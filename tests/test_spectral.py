"""
Spectral infrastructure tests: grid enumeration, transforms, operators,
projectors, trilinear forms and nodal machinery, checked against the
independent oracles in oracles.py.
"""

import numpy as np
import pytest

from micropolar.dynamics import random_state
from micropolar.spectral import (
    FieldError,
    Grid,
    ScalarField,
    VectorField,
    apply_A,
    apply_A1,
    apply_A1_inverse,
    galerkin_P,
    galerkin_Q,
    inner,
    leray_project,
    make_grid,
    make_node_set,
    mode_mask,
    nodal_interpolant,
    nodal_sample,
    nodal_values_max,
    norm,
    rot_scalar,
    rot_vec,
    transform_to_physical,
    transform_to_spectral,
    trilinear_b,
    trilinear_b1,
)
from oracles import (
    dft_physical,
    dft_spectral,
    laplacian_eigenvalues_bruteforce,
    quadrature_inner,
    random_fields,
    trilinear_b1_direct,
    trilinear_b_direct,
)


class TestGrid:
    def test_lambda1_and_multiplicity_n8(self, grid8):
        brute = laplacian_eigenvalues_bruteforce(8, 2 * np.pi)
        assert grid8.lambda1 == pytest.approx(1.0)
        assert grid8.lambda1 == pytest.approx(brute[0])
        assert np.count_nonzero(grid8.eigenvalues == grid8.eigenvalues[0]) == 4
        first_four = {tuple(k) for k in grid8.table_wavevectors[:4]}
        assert first_four == {(-1, 0), (0, -1), (0, 1), (1, 0)}

    def test_lambda1_unit_period(self):
        g = make_grid(8, 1.0)
        assert g.lambda1 == pytest.approx(4 * np.pi**2)

    def test_table_matches_bruteforce(self, grid8):
        brute = laplacian_eigenvalues_bruteforce(8, 2 * np.pi)
        assert np.allclose(grid8.eigenvalues, brute)

    def test_table_sorted_ties_lexicographic(self, grid16):
        lam = grid16.eigenvalues
        assert np.all(np.diff(lam) >= 0)
        kv = grid16.table_wavevectors
        for i in range(len(lam) - 1):
            if lam[i] == lam[i + 1]:
                assert tuple(kv[i]) < tuple(kv[i + 1])

    def test_excludes_zero_mode(self, grid8):
        assert grid8.eigenvalues[0] > 0
        assert len(grid8.eigenvalues) == 8 * 8 - 1

    def test_deterministic_across_builds(self):
        a = make_grid(16, 2 * np.pi)
        b = make_grid(16, 2 * np.pi)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.table_wavevectors, b.table_wavevectors)

    @pytest.mark.parametrize("n,L", [(7, 1.0), (6, 1.0), (0, 1.0), (8, 0.0), (8, -2.0)])
    def test_rejects_bad_grid(self, n, L):
        with pytest.raises(ValueError):
            make_grid(n, L)


class TestTransforms:
    def test_zero_field(self, grid8):
        assert np.all(transform_to_physical(ScalarField.zero(grid8)) == 0)

    def test_cosine_mode(self, grid8):
        f = ScalarField.from_mode(grid8, (1, 0), 0.5)
        phys = transform_to_physical(f)
        x1 = np.arange(8) * 2 * np.pi / 8
        assert np.max(np.abs(phys - np.cos(x1)[:, None])) < 1e-12

    def test_roundtrip_random_hermitian(self, grid16):
        rng = np.random.default_rng(0)
        for _ in range(5):
            raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            flat = raw.ravel()
            sym = 0.5 * (flat + np.conj(flat[grid16.conj_flat])).reshape(16, 16)
            f = ScalarField(grid16, sym)
            g = transform_to_spectral(transform_to_physical(f), grid16)
            scale = np.max(np.abs(f.coeffs))
            assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12 * scale

    def test_physical_matches_direct_dft(self, grid8):
        u, _ = random_fields(grid8, 3)
        phys = transform_to_physical(u.u1)
        direct = dft_physical(grid8, u.u1.coeffs)
        assert np.max(np.abs(direct.imag)) < 1e-12
        assert np.max(np.abs(phys - direct.real)) < 1e-12 * max(np.max(np.abs(direct.real)), 1e-30)
        back = dft_spectral(grid8, phys)
        assert np.max(np.abs(back - u.u1.coeffs)) < 1e-12

    def test_non_hermitian_rejected(self, grid8):
        c = np.zeros((8, 8), dtype=np.complex128)
        c[1, 0] = 1.0  # conjugate slot left empty
        with pytest.raises(FieldError, match="Hermitian"):
            ScalarField(grid8, c)

    def test_near_hermitian_symmetrized_exactly(self, grid8):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        flat = raw.ravel()
        sym = 0.5 * (flat + np.conj(flat[grid8.conj_flat])).reshape(8, 8)
        sym[1, 2] += 1e-12  # inside the tolerance: accepted, then symmetrized
        f = ScalarField(grid8, sym)
        c = f.coeffs.ravel()
        assert np.array_equal(c, np.conj(c[grid8.conj_flat]))
        assert f.coeffs[0, 0] == 0
        assert not f.coeffs.flags.writeable
        assert sym[1, 2] != f.coeffs[1, 2]  # the input array is left as given

    def test_wrong_shape_rejected(self, grid8):
        with pytest.raises(FieldError):
            transform_to_spectral(np.zeros((4, 4)), grid8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, grid8, bad):
        c = np.zeros((8, 8), dtype=np.complex128)
        c[1, 2] = bad
        c[-1, -2] = np.conj(bad)
        with pytest.raises(FieldError, match="finite"):
            ScalarField(grid8, c)


class TestLeray:
    def test_gradient_field_annihilated(self, grid16):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        flat = raw.ravel()
        phi = ScalarField(grid16, 0.5 * (flat + np.conj(flat[grid16.conj_flat])).reshape(16, 16))
        gradient = VectorField(
            ScalarField(grid16, grid16.deriv_factor(0) * phi.coeffs),
            ScalarField(grid16, grid16.deriv_factor(1) * phi.coeffs),
        )
        projected = leray_project(gradient)
        assert norm(projected) < 1e-14 * max(norm(gradient), 1e-30)

    def test_divergence_free_unchanged(self, grid16):
        u, _ = random_fields(grid16, 2)
        v = leray_project(u)
        assert np.max(np.abs(v.u1.coeffs - u.u1.coeffs)) < 1e-15
        assert np.max(np.abs(v.u2.coeffs - u.u2.coeffs)) < 1e-15

    def test_single_mode_by_hand(self, grid8):
        # k = (1, 0): projector I - k k^T/|k|^2 maps (a, b) -> (0, b)
        a, b = 0.3 - 0.1j, 0.2 + 0.4j
        u = VectorField(ScalarField.from_mode(grid8, (1, 0), a),
                        ScalarField.from_mode(grid8, (1, 0), b))
        p = leray_project(u)
        assert abs(p.u1.coeffs[1, 0]) < 1e-15
        assert p.u2.coeffs[1, 0] == pytest.approx(b)

    def test_idempotent_and_self_adjoint(self, grid16):
        rng = np.random.default_rng(5)

        def random_vec(seed):
            r = np.random.default_rng(seed)
            def sf():
                raw = r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16))
                flat = raw.ravel()
                return ScalarField(grid16, 0.5 * (flat + np.conj(flat[grid16.conj_flat])).reshape(16, 16))
            return VectorField(sf(), sf())

        f = random_vec(7)
        g = random_vec(8)
        pf = leray_project(f)
        ppf = leray_project(pf)
        assert np.max(np.abs(ppf.u1.coeffs - pf.u1.coeffs)) < 1e-12
        # <Pf, g> = <f, Pg>
        lhs = inner(pf, g)
        rhs = inner(f, leray_project(g))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestOperators:
    def test_apply_A_single_mode(self, grid8):
        u = VectorField(ScalarField.from_mode(grid8, (1, 0), 1.0), ScalarField.zero(grid8))
        au = apply_A(u)
        assert au.u1.coeffs[1, 0] == pytest.approx(1.0)

    def test_apply_A_zero(self, grid8):
        assert norm(apply_A(VectorField.zero(grid8))) == 0

    def test_A1_inverse_identity(self, grid16):
        _, om = random_fields(grid16, 9)
        back = apply_A1_inverse(apply_A1(om))
        assert np.max(np.abs(back.coeffs - om.coeffs)) < 1e-14

    def test_A_inverse_identity(self, grid16):
        from micropolar.spectral import apply_A_inverse
        u, _ = random_fields(grid16, 10)
        back = apply_A_inverse(apply_A(u))
        assert np.max(np.abs(back.u1.coeffs - u.u1.coeffs)) < 1e-14
        assert np.max(np.abs(back.u2.coeffs - u.u2.coeffs)) < 1e-14

    def test_rot_closed_form(self, grid16):
        # u = (sin(x2), 0) -> rot u = -cos(x2)
        c1 = np.zeros((16, 16), dtype=np.complex128)
        c1[0, 1] = 1 / 2j
        c1[0, -1] = -1 / 2j
        u = VectorField(ScalarField(grid16, c1), ScalarField.zero(grid16))
        r = transform_to_physical(rot_vec(u))
        x2 = np.arange(16) * 2 * np.pi / 16
        assert np.max(np.abs(r - (-np.cos(x2))[None, :])) < 1e-12

    def test_rot_scalar_zero(self, grid8):
        r = rot_scalar(ScalarField.zero(grid8))
        assert norm(r) == 0

    def test_rot_duality_quadrature(self, grid32):
        # <rot u, w> = <u, rot w>, both sides by grid quadrature
        for seed in range(5):
            u, om = random_fields(grid32, seed)
            lhs = quadrature_inner(grid32, transform_to_physical(rot_vec(u)),
                                   transform_to_physical(om))
            rw = rot_scalar(om)
            rhs = quadrature_inner(grid32, transform_to_physical(u.u1),
                                   transform_to_physical(rw.u1)) \
                + quadrature_inner(grid32, transform_to_physical(u.u2),
                                   transform_to_physical(rw.u2))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) < 1e-12 * scale

    def test_rot_norm_identities(self, grid32):
        for seed in range(5):
            u, om = random_fields(grid32, seed + 50)
            assert norm(rot_scalar(om)) == pytest.approx(norm(om, "H1"), rel=1e-12)
            assert norm(rot_vec(u)) == pytest.approx(norm(u, "H1"), rel=1e-12)


class TestGalerkin:
    def test_m_zero_and_full(self, grid16):
        _, f = random_fields(grid16, 11)
        total = grid16.num_modes
        assert norm(galerkin_P(f, 0)) == 0
        assert np.array_equal(galerkin_Q(f, 0).coeffs, f.coeffs)
        assert np.array_equal(galerkin_P(f, total).coeffs, f.coeffs)
        assert norm(galerkin_Q(f, total)) == 0

    @pytest.mark.parametrize("m", [1, 4, 7, 20, 100])
    def test_parseval_direct_summation(self, grid16, m):
        _, f = random_fields(grid16, m)
        p = galerkin_P(f, m)
        q = galerkin_Q(f, m)
        assert inner(p, q) == 0.0
        total = grid16.area * np.sum(np.abs(f.coeffs) ** 2)
        split = grid16.area * (np.sum(np.abs(p.coeffs) ** 2) + np.sum(np.abs(q.coeffs) ** 2))
        assert split == pytest.approx(total, rel=1e-14)
        assert np.array_equal(p.coeffs + q.coeffs, f.coeffs)

    def test_projector_algebra_exact(self, grid16):
        _, f = random_fields(grid16, 21)
        m = 12
        p = galerkin_P(f, m)
        assert np.array_equal(galerkin_P(p, m).coeffs, p.coeffs)
        assert norm(galerkin_P(galerkin_Q(f, m), m)) == 0.0

    def test_p_rot_against_q_exactly_orthogonal(self, grid16):
        u, om = random_fields(grid16, 31)
        m = 9
        p_rot = galerkin_P(rot_scalar(om), m)
        q_u = galerkin_Q(u, m)
        assert inner(p_rot, q_u) == 0.0

    def test_conjugate_closure_keeps_fields_real(self, grid16):
        _, f = random_fields(grid16, 41)
        for m in (1, 2, 3, 5):
            transform_to_physical(galerkin_P(f, m))  # raises if symmetry broke

    def test_mask_closure_counts(self, grid8):
        # first lambda-1 entry is (-1, 0); closure adds its partner (1, 0)
        mask = mode_mask(grid8, 1)
        assert int(mask.sum()) == 2

    def test_out_of_range_m(self, grid8):
        _, f = random_fields(grid8, 1)
        with pytest.raises(ValueError):
            galerkin_P(f, -1)
        with pytest.raises(ValueError):
            galerkin_P(f, grid8.num_modes + 1)


class TestTrilinear:
    @pytest.mark.parametrize("n", [16, 32])
    def test_orthogonality_b(self, n):
        grid = make_grid(n, 2 * np.pi)
        for seed in range(5):
            u, _ = random_fields(grid, seed)
            v, _ = random_fields(grid, seed + 60)
            scale = norm(u, "H1") * norm(v, "H1") ** 2
            assert abs(trilinear_b(u, v, v)) <= 1e-10 * scale
            scale2 = norm(u, "H1") ** 2 * norm(u, "DA")
            assert abs(trilinear_b(u, u, apply_A(u))) <= 1e-10 * scale2

    @pytest.mark.parametrize("n", [16, 32])
    def test_orthogonality_b1(self, n):
        grid = make_grid(n, 2 * np.pi)
        for seed in range(5):
            u, om = random_fields(grid, seed + 70)
            scale = norm(u, "H1") * norm(om, "H1") ** 2
            assert abs(trilinear_b1(u, om, om)) <= 1e-10 * scale

    def test_b1_lacks_second_orthogonality(self, grid8):
        u, om = random_fields(grid8, 3)
        value = trilinear_b1(u, om, apply_A1(om))
        direct = trilinear_b1_direct(u, om, apply_A1(om))
        assert abs(value) > 1e-6
        assert value == pytest.approx(direct, rel=1e-12)

    def test_b_matches_convolution_oracle(self, grid8):
        for seed in range(8):
            u, _ = random_fields(grid8, seed)
            v, _ = random_fields(grid8, seed + 100)
            w, _ = random_fields(grid8, seed + 200)
            ps = trilinear_b(u, v, w)
            direct = trilinear_b_direct(u, v, w)
            assert ps == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_b1_matches_convolution_oracle(self, grid8):
        for seed in range(8):
            u, om = random_fields(grid8, seed + 300)
            _, ps_field = random_fields(grid8, seed + 400)
            val = trilinear_b1(u, om, ps_field)
            direct = trilinear_b1_direct(u, om, ps_field)
            assert val == pytest.approx(direct, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [12, 16, 24])
    def test_full_band_matches_oracle(self, n):
        # The fields fill the whole dealiased band, so a band edge at which
        # products alias (kcut = n // 3 when 3 divides n) shows up here.
        grid = make_grid(n, 2 * np.pi)
        for seed in range(2):
            u, v, w = (random_state(grid, seed + s, 1.0, 1.0, kmax=n).u.dealiased()
                       for s in (0, 10, 20))
            om, ps = (random_state(grid, seed + s, 1.0, 1.0, kmax=n).omega.dealiased()
                      for s in (30, 40))
            assert trilinear_b(u, v, w) == pytest.approx(trilinear_b_direct(u, v, w),
                                                         rel=1e-12, abs=1e-14)
            assert trilinear_b1(u, om, ps) == pytest.approx(trilinear_b1_direct(u, om, ps),
                                                            rel=1e-12, abs=1e-14)

    def test_grid_mismatch(self, grid8, grid16):
        u8, _ = random_fields(grid8, 1)
        u16, om16 = random_fields(grid16, 1)
        with pytest.raises(FieldError):
            trilinear_b(u8, u16, u16)
        with pytest.raises(FieldError):
            trilinear_b1(u8, om16, om16)


class TestNorms:
    def test_zero_field_all_kinds(self, grid8):
        z = ScalarField.zero(grid8)
        for kind in ("L2", "H1", "Hminus1", "DA"):
            assert norm(z, kind) == 0

    def test_single_mode_scaling(self, grid16):
        f = ScalarField.from_mode(grid16, (2, 1), 0.7 + 0.1j)
        lam = (2**2 + 1**2)
        assert norm(f, "H1") == pytest.approx(np.sqrt(lam) * norm(f, "L2"), rel=1e-14)
        assert norm(f, "DA") == pytest.approx(lam * norm(f, "L2"), rel=1e-14)
        assert norm(f, "Hminus1") == pytest.approx(norm(f, "L2") / np.sqrt(lam), rel=1e-14)

    def test_poincare(self, grid32):
        for seed in range(10):
            _, f = random_fields(grid32, seed)
            assert norm(f, "H1") ** 2 >= grid32.lambda1 * norm(f, "L2") ** 2 * (1 - 1e-12)

    def test_unknown_kind(self, grid8):
        with pytest.raises(ValueError):
            norm(ScalarField.zero(grid8), "H2")

    def test_weight_tables_match_explicit_sums(self, grid16):
        assert not grid16.lam_sq.flags.writeable
        assert np.array_equal(grid16.lam_sq, grid16.lam * grid16.lam)
        u, f = random_fields(grid16, 5)
        power_f = np.abs(f.coeffs) ** 2
        power_u = np.abs(u.u1.coeffs) ** 2 + np.abs(u.u2.coeffs) ** 2
        for kind, w in (("L2", np.ones_like(grid16.lam)), ("H1", grid16.lam),
                        ("Hminus1", grid16.inv_lam), ("DA", grid16.lam * grid16.lam)):
            assert norm(f, kind) == np.sqrt(grid16.area * np.sum(w * power_f)), kind
            assert norm(u, kind) == np.sqrt(grid16.area * np.sum(w * power_u)), kind


class TestNodal:
    def test_zero_field(self, grid16):
        nodes = make_node_set(grid16, count=16)
        z = ScalarField.zero(grid16)
        assert np.all(nodal_sample(z, nodes) == 0)
        assert norm(nodal_interpolant(np.zeros(16), nodes, grid16)) == 0

    def test_eta_below_sup_norm(self, grid32):
        nodes = make_node_set(grid32, count=64)
        for seed in range(5):
            _, f = random_fields(grid32, seed)
            sup = np.max(np.abs(transform_to_physical(f)))
            # node values interpolate the same trig polynomial the sup is read from
            assert nodal_values_max(f, nodes) <= sup * (1 + 1e-12) + 1e-15

    def test_aligned_matches_trig_evaluation(self, grid32):
        aligned = make_node_set(grid32, count=64)
        assert aligned.aligned
        shifted_points = aligned.points + 0.001
        unaligned = make_node_set(grid32, side=8, points=shifted_points % (2 * np.pi))
        assert not unaligned.aligned
        _, f = random_fields(grid32, 12)
        # trig evaluation at aligned points equals the grid gather
        direct = np.array([
            np.sum(f.coeffs * np.exp(2j * np.pi / grid32.L
                                     * (grid32.k1 * p[0] + grid32.k2 * p[1]))).real
            for p in aligned.points
        ])
        assert np.max(np.abs(nodal_sample(f, aligned) - direct)) < 1e-12
        nodal_sample(f, unaligned)  # exercises the generic path

    @pytest.mark.parametrize("aligned", [True, False])
    def test_batched_helpers_match_per_plane(self, grid32, aligned):
        from micropolar.spectral import _full_from_half, _interpolant_scalar, _sample_scalar

        nodes = make_node_set(grid32, count=64)
        if not aligned:
            nodes = make_node_set(grid32, side=8, points=(nodes.points + 0.001) % grid32.L)
        assert nodes.aligned == aligned
        u, w = random_fields(grid32, 4)
        stack = np.stack([u.u1.coeffs, u.u2.coeffs, w.coeffs])
        half = stack[..., : grid32.n // 2 + 1]
        values = _sample_scalar(half, nodes)
        spectra = _full_from_half(grid32, _interpolant_scalar(values, nodes))
        single_values = np.stack([_sample_scalar(c, nodes) for c in half])
        single_spectra = np.stack([_full_from_half(grid32, _interpolant_scalar(v, nodes))
                                   for v in single_values])
        assert values.shape == (3, nodes.count) and spectra.shape == stack.shape
        if aligned:
            assert np.array_equal(values, single_values)
            assert np.array_equal(spectra, single_spectra)
        else:
            assert np.max(np.abs(values - single_values)) <= 1e-14 * np.max(np.abs(single_values))
            assert np.max(np.abs(spectra - single_spectra)) \
                <= 1e-14 * np.max(np.abs(single_spectra))

    def test_interpolant_piecewise_values(self, grid16):
        nodes = make_node_set(grid16, count=16)
        values = np.arange(16, dtype=float)
        interp = nodal_interpolant(values, nodes, grid16)
        phys = transform_to_physical(interp)
        assert abs(phys.mean()) < 1e-13
        # each covering square carries its (de-meaned) node value
        recon = phys[nodes.square_of_cell == 5]
        assert np.allclose(recon, values[5] - values.mean(), atol=1e-12)

    def test_one_per_square_enforced(self, grid16):
        pts = make_node_set(grid16, count=16).points.copy()
        pts[0] = pts[1]  # two nodes in one square
        with pytest.raises(ValueError):
            make_node_set(grid16, side=4, points=pts)

    def test_count_must_be_square(self, grid16):
        with pytest.raises(ValueError):
            make_node_set(grid16, count=15)

    def test_interpolation_error_scaling(self, grid32):
        # |w - I_h(w)| <= sqrt(c / (lambda1 N)) |A1 w| with a bounded fitted c
        fitted = []
        for side in (4, 8, 16):
            nodes = make_node_set(grid32, side=side)
            worst = 0.0
            for seed in range(5):
                _, w = random_fields(grid32, seed + 17)
                ih = nodal_interpolant(nodal_sample(w, nodes), nodes, grid32)
                err = norm(ScalarField(grid32, w.coeffs - ih.coeffs))
                bound_core = norm(w, "DA") / np.sqrt(grid32.lambda1 * nodes.count)
                worst = max(worst, (err / bound_core) ** 2)
            fitted.append(worst)
        # the fitted shape constant stays O(1) as the covering refines
        assert max(fitted) < 50.0
        assert max(fitted) / max(min(fitted), 1e-12) < 50.0
