"""
Spectral infrastructure tests: grid enumeration, transforms, operators,
projectors, trilinear forms and nodal machinery, checked against the
independent oracles in oracles.py.
"""

import gc
import weakref

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
    grid_tables,
    laplacian_eigenvalues_bruteforce,
    per_plane_half_to_phys,
    per_plane_phys_to_half,
    phase_sum_sample,
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

    def test_one_grid_per_lattice(self):
        grid = make_grid(24, 2 * np.pi)
        assert make_grid(24, 2 * np.pi) is grid
        assert make_grid(np.int64(24), np.float64(2 * np.pi)) is grid
        assert make_grid(24, 3.0) is not grid

    def test_unheld_grid_is_freed(self):
        held = weakref.ref(make_grid(26, 1.25))
        gc.collect()
        assert held() is None

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_wavenumber_tables_are_views_of_their_axes(self, n):
        grid = make_grid(n, 2 * np.pi)
        kax = np.fft.fftfreq(n, 1.0 / n).astype(np.int64)
        kd = kax.astype(np.float64)
        kd[n // 2] = 0.0
        for axis, tables in ((kax, (grid.k1, grid.k2)), (kd, (grid.k1_deriv, grid.k2_deriv))):
            for table, expected in zip(tables, np.meshgrid(axis, axis, indexing="ij")):
                assert table.dtype == expected.dtype and table.shape == (n, n)
                assert np.array_equal(table, expected)
                assert not table.flags.writeable
                # n values in memory, not n^2
                assert 0 in table.strides
            assert np.shares_memory(*tables)

    @pytest.mark.parametrize("n", [8, 10, 16])
    def test_mode_rank_is_computed_when_read(self, n):
        # the rank of each slot in the enumeration, the zero mode last; a
        # mask that reads it leaves no table on the grid
        grid = make_grid(n, 1.5)
        mode_mask(grid, 3)
        rank = grid.mode_rank
        assert "mode_rank" not in vars(grid) and rank is not grid.mode_rank
        assert not rank.flags.writeable
        for j, (k1, k2) in enumerate(grid.table_wavevectors):
            assert rank[k1 % n, k2 % n] == j
        assert rank[0, 0] == grid.num_modes

    @pytest.mark.parametrize("n", [8, 12, 16, 32, 64, 128])
    def test_computed_tables_match_the_stored_formulas(self, n):
        # every full-lattice table has the name, shape, dtype and bits that
        # the grid stored when it built them all at once; each read is a
        # new read-only array, and the grid keeps none of them
        L = 1.5 if n == 12 else 2 * np.pi
        grid = make_grid(n, L)
        expected = grid_tables(n, L)
        for name, table in expected.items():
            read = getattr(grid, name)
            assert read.dtype == table.dtype and read.shape == table.shape, name
            assert read.tobytes() == table.tobytes(), name
            assert not read.flags.writeable and read is not getattr(grid, name), name
            assert name not in vars(grid)
        assert grid.num_modes == n * n - 1
        assert grid.lambda1 == float(expected["eigenvalues"][0])
        for stop in (1, 9, grid.num_modes):
            assert np.array_equal(grid.table_rows(stop), expected["table_wavevectors"][:stop])

    def test_grid_stores_band_tables_and_axes_only(self):
        # make_grid(128) owns its block tables and row map, its two wavenumber axes and
        # one int32 per enumerated mode; every (n, n) table that it stores
        # is a broadcast view of an axis
        n = 128
        grid = make_grid(n, 2 * np.pi)
        owners = {}
        for name, value in vars(grid).items():
            if isinstance(value, np.ndarray):
                if value.shape[-2:] == (n, n):
                    assert 0 in value.strides, name
                while value.base is not None:
                    value = value.base
                owners[id(value)] = value
        owned = sum(array.nbytes for array in owners.values())
        band = sum(value.nbytes for name, value in vars(grid).items()
                   if name.startswith(("block_", "half_")))
        axes = 2 * n * 8
        assert grid.mode_order.dtype == np.int32
        assert owned <= band + axes + 4 * grid.num_modes
        # far below the full-lattice tables that it computes when read
        assert owned < sum(table.nbytes for table in grid_tables(n, 2 * np.pi).values()) / 2

    @pytest.mark.parametrize("n,L", [(7, 1.0), (6, 1.0), (0, 1.0), (8, 0.0), (8, -2.0)])
    def test_rejects_bad_grid(self, n, L):
        with pytest.raises(ValueError):
            make_grid(n, L)

    @pytest.mark.parametrize("L", [float("inf"), float("nan")])
    def test_rejects_nonfinite_period(self, L):
        with pytest.raises(ValueError, match="finite"):
            make_grid(8, L)


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

    @pytest.mark.parametrize("n,full_band", [pytest.param(8, False, id="dealiased-n8"),
                                             pytest.param(8, True, id="full_band-n8"),
                                             pytest.param(16, True, id="full_band-n16")])
    def test_physical_matches_direct_dft(self, n, full_band):
        # a full band (kmax = n) fills the self-conjugate Nyquist lines
        # k_i = -n/2, which irfft2 takes from the half plane alone while
        # dft_physical sums the full spectrum
        grid = make_grid(n, 2 * np.pi)
        f = (random_state(grid, 3, 1.0, 1.0, kmax=n).omega if full_band
             else random_fields(grid, 3)[0].u1)
        phys = transform_to_physical(f)
        direct = dft_physical(grid, f.coeffs)
        assert np.max(np.abs(direct.imag)) < 1e-12
        assert np.max(np.abs(phys - direct.real)) < 1e-12 * max(np.max(np.abs(direct.real)), 1e-30)
        back = dft_spectral(grid, phys)
        assert np.max(np.abs(back - f.coeffs)) < 1e-12

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


BAND_NS = [8, 12, 16, 32, 64]


def _dense_bound(n: int, x: np.ndarray) -> float:
    """Roundoff bound of a dense DFT product against pocketfft's transform,
    fixed from the dtype: 8 n eps max|x| of the input x."""
    return 8 * n * np.finfo(np.float64).eps * float(np.max(np.abs(x)))


class TestBandPlanes:
    """The transforms and the rebuild at any width: band planes (columns
    k2 = 0..kcut) give the bits of the zero-padded half plane.  Lattices up
    to n = 32 take the transforms as dense DFT products: their bits are
    the per-plane products', within roundoff of numpy's, and they treat
    the columns k2 = 0 and n/2 as rfft and irfft do; above, the bits are
    pocketfft's."""

    @pytest.mark.parametrize("n", BAND_NS)
    def test_half_to_phys_of_band_plane(self, n):
        from micropolar.dynamics import _random_scalars
        from micropolar.spectral import _half_to_phys

        grid = make_grid(n, 2 * np.pi)
        if n > 32:
            half = _random_scalars(grid, np.random.default_rng(n), grid.kcut, 3)[..., : n // 2 + 1]
            reference = np.fft.irfft2(half, axes=(-2, -1), norm="forward")
            assert _half_to_phys(half[..., : grid.kcut + 1]).tobytes() == reference.tobytes()
            return
        rng = np.random.default_rng(n)
        for width in range(1, n // 2 + 2):
            # planes that are not Hermitian: irfft2 reads only the real
            # parts of the axis-0 stage's columns k2 = 0 and n/2
            half = rng.standard_normal((3, n, width)) + 1j * rng.standard_normal((3, n, width))
            samples = _half_to_phys(half)
            assert samples.tobytes() == per_plane_half_to_phys(half).tobytes()
            padded = np.zeros((3, n, n // 2 + 1), dtype=np.complex128)
            padded[..., :width] = half
            reference = np.fft.irfft2(padded, s=(n, n), norm="forward")
            assert np.max(np.abs(samples - reference)) <= _dense_bound(n, half)
            # a plane with row k1 = 0 alone is its own axis-0 stage: the
            # imaginary parts of its columns 0 and n/2 are ignored exactly
            row = np.zeros((n, width), dtype=np.complex128)
            row[0] = half[0, 0]
            real = row.copy()
            real[0, 0:width:n // 2] = real[0, 0:width:n // 2].real
            assert _half_to_phys(row).tobytes() == _half_to_phys(real).tobytes()

    @pytest.mark.parametrize("n", BAND_NS)
    def test_phys_to_half_at_every_width(self, n):
        from micropolar.spectral import _phys_to_half

        x = np.random.default_rng(n).standard_normal((3, n, n))
        full = np.fft.rfft2(x, axes=(-2, -1), norm="forward")
        for width in range(1, n // 2 + 2):
            if n > 32:
                assert _phys_to_half(x, width).tobytes() == full[..., :width].tobytes()
                continue
            scratch = np.full((3, n, n // 2 + 1), np.nan, dtype=np.complex128)
            half = _phys_to_half(x, width, scratch=scratch)
            assert half.tobytes() == per_plane_phys_to_half(x, width).tobytes()
            assert np.max(np.abs(half - full[..., :width])) <= _dense_bound(n, x)
            # the last-axis stage's columns k2 = 0 and n/2 are exactly real
            assert np.all(scratch[..., 0:width:n // 2].imag == 0)

    @pytest.mark.parametrize("n", BAND_NS)
    def test_full_from_half_at_every_width(self, n):
        from micropolar.dynamics import _random_scalars
        from micropolar.spectral import _full_from_half

        grid = make_grid(n, 2 * np.pi)
        full = _random_scalars(grid, np.random.default_rng(n), n, 2)
        for width in range(1, n // 2 + 2):
            # the Hermitian spectrum of the zero-padded half plane: |k2| < width kept
            reference = full.copy()
            reference[..., width : n - width + 1] = 0
            assert _full_from_half(grid, full[..., :width]).tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n", [16, 128])
    def test_hermitianized_batch_equals_per_plane(self, n):
        from micropolar.spectral import _hermitianized

        grid = make_grid(n, 2 * np.pi)
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        batched = _hermitianized(grid, raw)
        single = np.stack([_hermitianized(grid, plane) for plane in raw])
        assert batched.flags.c_contiguous
        assert batched.tobytes() == single.tobytes()
        flat = raw.reshape(3, -1)
        reference = 0.5 * (flat + np.conj(flat[:, grid.conj_flat]))
        assert batched.tobytes() == reference.reshape(raw.shape).tobytes()


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
        conj = grid16.conj_flat
        for m in (1, 2, 3, 5):
            mask = mode_mask(grid16, m).ravel()
            assert np.array_equal(mask, mask[conj])
            c = galerkin_P(f, m).coeffs.ravel()
            assert np.array_equal(c, np.conj(c[conj]))

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
        shifted_points = aligned.points + 0.001
        unaligned = make_node_set(grid32, side=8, points=shifted_points % (2 * np.pi))
        _, f = random_fields(grid32, 12)
        # trig evaluation at points on the lattice, and off it
        for nodes in (aligned, unaligned):
            direct = phase_sum_sample(grid32, f.coeffs, nodes.points)
            assert np.max(np.abs(nodal_sample(f, nodes) - direct)) < 1e-12

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("placement", ["shifted", "random"])
    @pytest.mark.parametrize("band", ["kcut", "n"])
    def test_unaligned_matches_phase_sum(self, n, placement, band):
        from micropolar.dynamics import _random_scalars
        from micropolar.spectral import _block, _sample_scalar

        grid = make_grid(n, 2 * np.pi)
        centers = make_node_set(grid, side=n // 4)
        rng = np.random.default_rng(n)
        if placement == "shifted":
            points = (centers.points + 0.001) % grid.L
        else:  # anywhere inside each covering square
            h = grid.L / centers.side
            corners = np.floor(centers.points / h) * h
            points = corners + rng.uniform(0.05, 0.95, corners.shape) * h
        nodes = make_node_set(grid, side=centers.side, points=points)
        # kmax = n fills every slot, the Nyquist lines included, which a
        # block does not hold: its spectra are sampled whole
        coeffs = _random_scalars(grid, rng, grid.kcut if band == "kcut" else n, 3)
        reference = phase_sum_sample(grid, coeffs, nodes.points)
        for planes in [coeffs] + ([_block(grid, coeffs)] if band == "kcut" else []):
            values = _sample_scalar(planes, nodes)
            assert np.max(np.abs(values - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n", [16, 64])
    def test_unaligned_phase_tables_built_once(self, n):
        from micropolar.dynamics import _random_scalars
        from micropolar.spectral import _block, _block_rows, _column_weights, _sample_scalar

        grid = make_grid(n, 2 * np.pi)
        rng = np.random.default_rng(n)
        # shuffled, so the node set must sort the points before the tables
        side = n // 4
        points = rng.permutation((make_node_set(grid, side=side).points + 0.001) % grid.L)
        nodes = make_node_set(grid, side=side, points=points)
        # built once, over the s distinct coordinates of each axis of a
        # tensor set, and read-only
        E1, E2 = nodes.block_phases
        assert nodes.block_phases[0] is E1 and nodes.block_phases[1] is E2
        assert not E1.flags.writeable and not E2.flags.writeable
        xs, ys = (np.array(sorted(set(nodes.points[:, i]))) for i in (0, 1))
        assert E1.shape == (side, 2 * grid.kcut + 1) and E2.shape == (side, grid.kcut + 1)
        k = grid.k1[:, 0].astype(np.float64)
        assert np.array_equal(E1, np.exp(2j * np.pi / grid.L * xs[:, None] * k[_block_rows(n)]))
        assert np.array_equal(E2, np.exp(2j * np.pi / grid.L * ys[:, None] * k[:grid.kcut + 1])
                              * _column_weights(grid, grid.kcut + 1))
        # each node's slot is its (x, y) pair in the (s, s) plane of sums
        slot = nodes.slots // 2
        assert np.array_equal(xs[slot // side], nodes.points[:, 0])
        assert np.array_equal(ys[slot % side], nodes.points[:, 1])
        # the sampler's bits: the columns, then the rows k1 >= 0 and k1 < 0
        block = _block(grid, _random_scalars(grid, rng, grid.kcut, 3))
        columns, h = block @ E2.T, grid.kcut + 1
        sums = E1[:, :h] @ columns[..., :h, :] + E1[:, h:] @ columns[..., h:, :]
        expected = sums.real.reshape(3, -1)[:, slot]
        assert _sample_scalar(block, nodes).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("aligned", [True, False])
    def test_batched_helpers_match_per_plane(self, grid32, aligned):
        from micropolar.spectral import (_block, _full_from_half, _interpolant_scalar,
                                         _sample_scalar)

        nodes = make_node_set(grid32, count=64)
        if not aligned:
            nodes = make_node_set(grid32, side=8, points=(nodes.points + 0.001) % grid32.L)
        u, w = random_fields(grid32, 4)
        stack = np.stack([u.u1.coeffs, u.u2.coeffs, w.coeffs])
        for planes in (stack, _block(grid32, stack)):
            values = _sample_scalar(planes, nodes)
            single_values = np.stack([_sample_scalar(c, nodes) for c in planes])
            assert values.shape == (3, nodes.count)
            assert np.array_equal(values, single_values)
        spectra = _full_from_half(grid32, _interpolant_scalar(values, nodes))
        single_spectra = np.stack([_full_from_half(grid32, _interpolant_scalar(v, nodes))
                                   for v in single_values])
        assert spectra.shape == stack.shape
        assert np.array_equal(spectra, single_spectra)

    def test_interpolant_piecewise_values(self, grid16):
        nodes = make_node_set(grid16, count=16)
        values = np.arange(16, dtype=float)
        interp = nodal_interpolant(values, nodes, grid16)
        phys = transform_to_physical(interp)
        assert abs(phys.mean()) < 1e-13
        # each covering square carries its (de-meaned) node value
        recon = phys[nodes.square_of_cell == 5]
        assert np.allclose(recon, values[5] - values.mean(), atol=1e-12)

    def test_node_set_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma (about 10 ms), which no CLI run needs
        import os
        import subprocess
        import sys
        from pathlib import Path

        import micropolar

        code = ("import sys\n"
                "from micropolar.spectral import make_grid, make_node_set\n"
                "grid = make_grid(16, 6.283185307179586)\n"
                "make_node_set(grid, count=64)\n"
                "make_node_set(grid, side=6)\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(micropolar.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

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
