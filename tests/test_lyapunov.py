"""
Tangent-model and spectrum tests: linearity, finite-difference
consistency with an epsilon sweep, trace closed forms on a zero base,
Lieb-Thirring quadrature against the single-mode closed form, and the
exponent/trace bookkeeping of the Benettin run.
"""

import math

import numpy as np
import pytest

from micropolar.dynamics import (
    Forcing,
    NumericsError,
    Params,
    State,
    _explicit_terms,
    _Stepper,
    _to_half,
    _Workspace,
    make_forcing,
    random_state,
    rhs,
)
from micropolar.estimates import compute_constants
from micropolar import lyapunov
from micropolar.lyapunov import (
    _block_pairs,
    _mgs,
    _padded_phys,
    _rho_and_h1,
    _TangentRun,
    _trace_sample,
    kaplan_yorke_dimension,
    lieb_thirring_check,
    lyapunov_spectrum,
    random_tangent_pairs,
    tangent_rhs,
    trace_PN,
)
from micropolar.spectral import (
    ScalarField,
    VectorField,
    _block,
    _full_from_half,
    inner,
    make_grid,
    norm,
    rot_scalar,
)
from oracles import mgs, pair_inner


PARAMS = Params(nu=0.4, nu_r=0.15, alpha=0.5)


def perturbation(grid, seed, scale=1.0):
    s = random_state(grid, seed, scale, scale)
    return s.u, s.omega


def orthonormal_pairs(grid, count, seed, velocity_only=False):
    """Block pairs (count, 3, 2 kcut + 1, kcut + 1) as a run starts from."""
    pairs = _block_pairs(grid, count, seed, velocity_only)
    _mgs(grid, pairs)
    return pairs


def gram(grid, pairs):
    """Oracle Gram matrix of pairs of band or half planes, over full spectra."""
    full = _full_from_half(grid, pairs)
    return np.array([[pair_inner(grid, a[:2], a[2], b[:2], b[2]) for b in full] for a in full])


def as_fields(grid, pairs):
    """(VectorField, ScalarField) per pair of band or half planes."""
    full = _full_from_half(grid, pairs)
    return [(VectorField.from_coeffs(grid, f[0], f[1]), ScalarField(grid, f[2])) for f in full]


class TestTangentRhs:
    def test_zero_base_pure_linear_decay(self, grid16):
        base = State.zero(grid16)
        V, Z = perturbation(grid16, 3)
        dV, dZ = tangent_rhs(base, (V, Z), PARAMS)
        lam = grid16.lam
        visc = (PARAMS.nu + PARAMS.nu_r) * lam
        expected_V1 = -visc * V.u1.coeffs + 2 * PARAMS.nu_r * rot_scalar(Z).u1.coeffs
        assert np.max(np.abs(dV.u1.coeffs - expected_V1)) < 1e-13
        expected_Z = -(PARAMS.alpha * lam + 4 * PARAMS.nu_r) * Z.coeffs \
            + 2 * PARAMS.nu_r * (grid16.deriv_factor(0) * V.u2.coeffs
                                 - grid16.deriv_factor(1) * V.u1.coeffs)
        assert np.max(np.abs(dZ.coeffs - expected_Z)) < 1e-13

    def test_linearity(self, grid16):
        base = random_state(grid16, 1, 0.3, 0.1)
        Va, Za = perturbation(grid16, 2)
        Vb, Zb = perturbation(grid16, 3)
        dVa, dZa = tangent_rhs(base, (Va, Za), PARAMS)
        dVb, dZb = tangent_rhs(base, (Vb, Zb), PARAMS)
        dVs, dZs = tangent_rhs(base, (Va + Vb, Za + Zb), PARAMS)
        scale = max(norm(dVs), norm(dZs), 1e-30)
        assert norm(dVs - (dVa + dVb)) < 1e-12 * scale
        assert norm(ScalarField(grid16, dZs.coeffs - dZa.coeffs - dZb.coeffs)) < 1e-12 * scale
        dV2, dZ2 = tangent_rhs(base, (2.0 * Va, 2.0 * Za), PARAMS)
        assert norm(dV2 - 2.0 * dVa) < 1e-12 * scale

    @pytest.mark.parametrize("nu_r", [0.0, 0.15])
    def test_finite_difference_consistency(self, grid16, nu_r):
        params = Params(nu=0.4, nu_r=nu_r, alpha=0.5)
        base = random_state(grid16, 7, 0.3, 0.1)
        V, Z = perturbation(grid16, 8)
        dV, dZ = tangent_rhs(base, (V, Z), params)
        fo = Forcing.zero(grid16)
        du0, dw0 = rhs(base, params, fo)
        errors = []
        for eps in (1e-3, 1e-4, 1e-5):
            bumped = State(
                VectorField.from_coeffs(grid16,
                                        base.u.u1.coeffs + eps * V.u1.coeffs,
                                        base.u.u2.coeffs + eps * V.u2.coeffs),
                ScalarField(grid16, base.omega.coeffs + eps * Z.coeffs), base.t)
            du, dw = rhs(bumped, params, fo)
            errV = (du.u1.coeffs - du0.u1.coeffs) / eps - dV.u1.coeffs
            errV2 = (du.u2.coeffs - du0.u2.coeffs) / eps - dV.u2.coeffs
            errW = (dw.coeffs - dw0.coeffs) / eps - dZ.coeffs
            errors.append(np.sqrt(np.sum(np.abs(errV) ** 2 + np.abs(errV2) ** 2
                                         + np.abs(errW) ** 2)))
        # quadratic nonlinearity: the FD error is exactly linear in epsilon
        assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.02)
        assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.02)

    def test_nu_r_zero_velocity_tangent_ignores_microrotation(self, grid16):
        params = Params(nu=0.4, nu_r=0.0, alpha=0.5)
        base = random_state(grid16, 9, 0.3, 0.2)
        V, Za = perturbation(grid16, 10)
        _, Zb = perturbation(grid16, 11)
        dVa, _ = tangent_rhs(base, (V, Za), params)
        dVb, _ = tangent_rhs(base, (V, Zb), params)
        assert np.array_equal(dVa.u1.coeffs, dVb.u1.coeffs)
        assert np.array_equal(dVa.u2.coeffs, dVb.u2.coeffs)


class TestOrthonormalization:
    def test_mgs_orthonormalizes(self, grid16):
        full = _full_from_half(grid16, orthonormal_pairs(grid16, 4, seed=0))
        for i in range(4):
            for j in range(4):
                ip = grid16.area * float(np.sum(
                    full[i, 0] * np.conj(full[j, 0]) + full[i, 1] * np.conj(full[j, 1])
                    + full[i, 2] * np.conj(full[j, 2])).real)
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_rank_loss_detected(self, grid16):
        pairs = _block_pairs(grid16, 2, seed=1)
        pairs[1] = pairs[0]
        with pytest.raises(RuntimeError, match="rank"):
            _mgs(grid16, pairs)

    def test_non_finite_pairs_rejected(self, grid16):
        pairs = _block_pairs(grid16, 3, seed=1)
        pairs[1, 0, 1, 2] = np.inf
        with pytest.raises(NumericsError, match="non-finite"):
            _mgs(grid16, pairs)

    @pytest.mark.parametrize("count", [8, 64])
    def test_qr_matches_mgs_oracle(self, grid32, count):
        # the QR of the weighted real view against modified Gram-Schmidt
        # over full spectra: same growth factors and an orthonormal frame
        pairs = _block_pairs(grid32, count, seed=count)
        full = _full_from_half(grid32, pairs)
        V, Z = full[:, :2].copy(), full[:, 2].copy()
        expected = mgs(grid32, V, Z)
        growth = _mgs(grid32, pairs)
        assert np.max(np.abs(growth / expected - 1.0)) <= 1e-13
        assert np.max(np.abs(gram(grid32, pairs) - np.eye(count))) <= 1e-12
        frame = _full_from_half(grid32, pairs)
        assert np.max(np.abs(frame[:, :2] - V)) <= 1e-12 * np.max(np.abs(V))

    @pytest.mark.parametrize("scale", [1e-7, 1e-9])
    def test_ill_conditioned_frame_orthonormalized(self, grid32, scale):
        # two nearly parallel pairs: the frame still comes out orthonormal,
        # with the growth factors of Gram-Schmidt to its own accuracy there
        # (eps times the condition)
        pairs = _block_pairs(grid32, 4, seed=7)
        pairs[1] = pairs[0] + scale * pairs[1]
        full = _full_from_half(grid32, pairs)
        expected = mgs(grid32, full[:, :2].copy(), full[:, 2].copy())
        growth = _mgs(grid32, pairs)
        assert growth == pytest.approx(expected, rel=1e-6)
        assert np.max(np.abs(gram(grid32, pairs) - np.eye(4))) <= 1e-12

    def test_slots_outside_the_band_stay_zero(self, grid16):
        pairs = orthonormal_pairs(grid16, 3, seed=2, velocity_only=True)
        assert np.all(pairs[:, 2] == 0)
        # a block holds only the band: of its slots, the mean alone is not kept
        assert np.all(pairs[..., 0, 0] == 0)


class TestLiebThirring:
    def test_single_mode_closed_form(self, grid16):
        # normalized divergence-free cosine mode: rho = (2/|Q|) cos^2(k.x),
        # |rho|^2 = 3/(2 |Q|), sum ||phi||^2 = lambda(k), ratio = 3/(2 |Q| lambda)
        k = (1, 0)
        area = grid16.area
        amp = 1.0 / math.sqrt(2.0 * area)
        c1 = np.zeros((16, 16), dtype=np.complex128)
        c2 = np.zeros((16, 16), dtype=np.complex128)
        c2[k[0] % 16, k[1] % 16] = amp  # polarization (-k2, k1)/|k| = (0, 1)
        c2[(-k[0]) % 16, (-k[1]) % 16] = amp
        v = VectorField.from_coeffs(grid16, c1, c2)
        z = ScalarField.zero(grid16)
        assert norm(v) == pytest.approx(1.0, rel=1e-13)
        out = lieb_thirring_check([(v, z)])
        lam = grid16.lambda1
        assert out["ratio"] == pytest.approx(3.0 / (2.0 * area * lam), rel=1e-12)
        assert out["rho_integral"] == pytest.approx(1.0, rel=1e-12)

    def test_schwartz_inequality(self, grid16):
        pairs = as_fields(grid16, orthonormal_pairs(grid16, 5, seed=4))
        out = lieb_thirring_check(pairs)
        assert out["schwartz_lhs"] <= out["schwartz_rhs"] * (1 + 1e-12)
        assert out["rho_integral"] == pytest.approx(5.0, rel=1e-12)

    def test_ratio_invariant_under_remixing(self, grid16):
        full = _full_from_half(grid16, orthonormal_pairs(grid16, 4, seed=6))
        V, Z = full[:, :2], full[:, 2]
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Vr = np.einsum("ij,jabc->iabc", q, V)
        Zr = np.einsum("ij,jbc->ibc", q, Z)
        def pairs(VV, ZZ):
            return [(VectorField.from_coeffs(grid16, VV[j, 0], VV[j, 1]),
                     ScalarField(grid16, ZZ[j])) for j in range(4)]
        a = lieb_thirring_check(pairs(V, Z))
        b = lieb_thirring_check(pairs(Vr, Zr))
        assert a["ratio"] == pytest.approx(b["ratio"], rel=1e-10)

    @staticmethod
    def _complex_padded_phys(coeffs, n):
        """Reference quadrature: zero padding into a complex (2n)^2 spectrum,
        real part of the complex inverse transform."""
        m = 2 * n
        kmap = np.fft.fftfreq(n, 1.0 / n).astype(int) % m
        fine = np.zeros(coeffs.shape[:-2] + (m, m), dtype=np.complex128)
        fine[..., kmap[:, None], kmap[None, :]] = coeffs
        return (np.fft.ifft2(fine, axes=(-2, -1)) * (m * m)).real

    @pytest.mark.parametrize("n", [8, 16])
    def test_padded_quadrature_with_nyquist_content(self, n):
        grid = make_grid(n, 2 * np.pi)
        # kmax = n fills every mode, the Nyquist row and column included
        V, Z = random_tangent_pairs(grid, 3, seed=13, kmax=n)
        mgs(grid, V, Z)
        h = n // 2
        assert np.all(np.abs(Z[:, h, :]) > 0) and np.all(np.abs(Z[:, 1:, h]) > 0)
        assert np.any(V[:, 0, h, :] != 0) and np.any(V[:, 1, :, h] != 0)
        fine = {}
        for name, coeffs in (("V", V), ("Z", Z)):
            fine[name] = self._complex_padded_phys(coeffs, n)
            scale = np.max(np.abs(fine[name]))
            assert np.max(np.abs(_padded_phys(coeffs, n, 2) - fine[name])) <= 1e-14 * scale

        rho = np.sum(fine["V"][:, 0] ** 2 + fine["V"][:, 1] ** 2 + fine["Z"] ** 2, axis=0)
        pairs = [(VectorField.from_coeffs(grid, V[j, 0], V[j, 1]), ScalarField(grid, Z[j]))
                 for j in range(3)]
        out = lieb_thirring_check(pairs)
        assert out["rho_l2"] == pytest.approx(math.sqrt(grid.area * np.mean(rho**2)), rel=1e-14)
        assert out["rho_integral"] == pytest.approx(grid.area * np.mean(rho), rel=1e-14)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_band_lattice_matches_half_plane_lattice(self, n):
        # blocks are sampled on a (3n/2)^2 lattice, half planes on a
        # (2n)^2 one; with the band full, both give rho's moments exactly
        grid = make_grid(n, 2 * np.pi)
        V, Z = random_tangent_pairs(grid, 5, seed=n, kmax=n)
        band = _block(grid, np.concatenate([V, Z[:, None]], axis=1))
        _mgs(grid, band)
        half = _full_from_half(grid, band)[..., :n // 2 + 1]
        rho_l2, sum_h1, _, rho_integral = _rho_and_h1(grid, band)
        expected = _rho_and_h1(grid, half)
        assert rho_l2 == pytest.approx(expected[0], rel=1e-14)
        assert rho_integral == pytest.approx(expected[3], rel=1e-14)
        assert sum_h1 == pytest.approx(expected[1], rel=1e-14)

    def test_non_orthonormal_rejected(self, grid16):
        V, Z = random_tangent_pairs(grid16, 3, seed=8)
        pairs = [(VectorField.from_coeffs(grid16, V[j, 0], V[j, 1]),
                  ScalarField(grid16, Z[j])) for j in range(3)]
        with pytest.raises(ValueError, match="Gram"):
            lieb_thirring_check(pairs)


class TestSpectrumRun:
    def test_zero_forcing_exponents_below_decay_rate(self, grid32):
        params = Params(nu=0.5, nu_r=0.1, alpha=0.5)
        init = random_state(grid32, 11, 0.05, 0.02)
        rep = lyapunov_spectrum(init, params, Forcing.zero(grid32), count=4,
                                t_span=8.0, dt=0.01, seed=3)
        k2 = min(params.nu, params.alpha) * grid32.lambda1
        assert np.all(rep.exponents <= -k2 * 0.95)
        assert np.all(np.diff(rep.exponents) <= 1e-12)

    @pytest.mark.parametrize("grid_name,velocity_only", [
        pytest.param("grid16", False, id="n16-coupled"),
        pytest.param("grid16", True, id="n16-velocity_only"),
        pytest.param("grid32", False, id="n32-coupled"),
    ])
    def test_trace_sample_matches_trilinear_composition(self, request, grid_name,
                                                        velocity_only):
        # dual route: the trace from the tangent kernel against per-pair
        # evaluations of the trilinear forms
        from micropolar.lyapunov import _trace_sample
        from micropolar.spectral import trilinear_b, trilinear_b1

        grid = request.getfixturevalue(grid_name)
        params = Params(nu=0.4, nu_r=0.0, alpha=0.5) if velocity_only else PARAMS
        base = random_state(grid, 13, 0.3, 0.15)
        pairs = orthonormal_pairs(grid, 3, seed=5, velocity_only=velocity_only)
        sample = _trace_sample(grid, params, base.u.stacked(), base.omega.coeffs, pairs)
        total = 0.0
        for v, z in as_fields(grid, pairs):
            a = (params.nu + params.nu_r) * norm(v, "H1") ** 2 \
                + params.alpha * norm(z, "H1") ** 2
            b = trilinear_b(v, base.u, v) + trilinear_b1(v, base.omega, z)
            r = -4 * params.nu_r * inner(rot_scalar(z), v) \
                + 4 * params.nu_r * norm(z) ** 2
            total += -(a + b + r)
        assert sample["trace"] == pytest.approx(total, rel=1e-10)

    def test_exponent_sum_matches_trace_average(self, grid32):
        params = Params(nu=0.3, nu_r=0.1, alpha=0.3)
        fo = make_forcing(grid32, "steady", 0.005, 0.001, mode_hi=6, seed=7)
        from micropolar.dynamics import simulate
        init = simulate(random_state(grid32, 21, 0.05, 0.02), params, fo,
                        t_end=5.0, dt=0.01, stride=10**9).final_state
        rep = lyapunov_spectrum(init, params, fo, count=4, t_span=20.0, dt=0.01, seed=9)
        assert rep.partial_sums[-1] == pytest.approx(rep.trace.running_average[-1], rel=0.02)

    def test_trace_PN_running_average(self, grid16):
        params = Params(nu=0.5, nu_r=0.0, alpha=0.5)
        init = random_state(grid16, 2, 0.05, 0.02)
        series = trace_PN(init, params, Forcing.zero(grid16), count=3,
                          t_span=2.0, dt=0.01)
        assert len(series.times) == len(series.trace) == len(series.running_average)
        assert np.all(series.trace < 0)

    def test_budget_and_config_validation(self, grid16):
        init = random_state(grid16, 2, 0.05, 0.02)
        with pytest.raises(ValueError):
            lyapunov_spectrum(init, PARAMS, Forcing.zero(grid16), count=0,
                              t_span=1.0, dt=0.01)
        with pytest.raises(ValueError, match="mode budget"):
            lyapunov_spectrum(init, PARAMS, Forcing.zero(grid16),
                              count=grid16.num_modes + 1, t_span=1.0, dt=0.01)
        with pytest.raises(ValueError, match="velocity-only"):
            lyapunov_spectrum(init, PARAMS, Forcing.zero(grid16), count=2,
                              t_span=1.0, dt=0.01, velocity_only=True)

    def test_count_bounded_by_band_dimension(self, grid8):
        # the band of n = 8 (kcut = 2) holds 24 real dimensions per field
        init = random_state(grid8, 2, 0.05, 0.02)
        lyapunov_spectrum(init, PARAMS, Forcing.zero(grid8), count=48,
                          t_span=0.1, dt=0.01)
        with pytest.raises(ValueError, match="mode budget"):
            lyapunov_spectrum(init, PARAMS, Forcing.zero(grid8), count=49,
                              t_span=0.1, dt=0.01)
        params = Params(nu=0.4, nu_r=0.0, alpha=0.5)
        with pytest.raises(ValueError, match="mode budget"):
            lyapunov_spectrum(init, params, Forcing.zero(grid8), count=25,
                              t_span=0.1, dt=0.01, velocity_only=True)

    @pytest.mark.parametrize("count,velocity_only", [(97, False), (49, True)])
    def test_count_beyond_the_radius_four_modes(self, grid32, count, velocity_only):
        # |k| <= 4 holds 48 modes, 96 real dimensions of pairs (48 for
        # velocity-only pairs): more pairs are drawn on the smallest radius
        # that holds them instead of losing rank at the first frame, while
        # fewer keep the radius-4 draws bit for bit
        params = Params(nu=0.4, nu_r=0.0, alpha=0.5) if velocity_only else PARAMS
        init = random_state(grid32, 2, 0.05, 0.02)
        report = lyapunov_spectrum(init, params, Forcing.zero(grid32), count=count,
                                   t_span=0.2, dt=0.01, seed=31, velocity_only=velocity_only)
        assert report.exponents.shape == (count,)
        assert np.all(np.isfinite(report.exponents))
        fits = count - 1
        for a, b in zip(random_tangent_pairs(grid32, fits, 5, velocity_only=velocity_only),
                        random_tangent_pairs(grid32, fits, 5, kmax=4,
                                             velocity_only=velocity_only)):
            assert a.tobytes() == b.tobytes()

    def test_velocity_only_pairs_keep_zero_microrotation(self, grid16):
        params = Params(nu=0.4, nu_r=0.0, alpha=0.5)
        init = random_state(grid16, 2, 0.05, 0.02)
        run = _TangentRun(init, params, Forcing.zero(grid16), 3, dt=0.01,
                          reorth_interval=5, seed=4, velocity_only=True)
        for _ in range(2):
            run._advance_block()
            assert np.all(run.Z == 0)
            assert np.all(np.isfinite(run.V))

    def test_non_finite_pair_in_run_raises(self, grid16):
        init = random_state(grid16, 2, 0.05, 0.02)
        run = _TangentRun(init, PARAMS, Forcing.zero(grid16), 3, dt=0.01,
                          reorth_interval=5, seed=4)
        run.Z[2, 1, 1] = np.nan
        with pytest.raises(NumericsError, match="non-finite"):
            run._advance_block()

    def test_span_not_whole_blocks(self, grid16):
        # 0.15 is 15 steps but 1.5 re-orthonormalization blocks of 10 steps
        init = random_state(grid16, 2, 0.05, 0.02)
        with pytest.raises(ValueError, match="whole number"):
            lyapunov_spectrum(init, PARAMS, Forcing.zero(grid16), count=2,
                              t_span=0.15, dt=0.01, reorth_interval=10)


class TestBenettinBlocks:
    @staticmethod
    def setup(grid):
        fo = make_forcing(grid, "steady", 0.01, 0.002, mode_hi=6, seed=2)
        return PARAMS, fo, random_state(grid, 4, 0.1, 0.05)

    def test_step_terms_equal_kernel_call(self, grid32):
        # forcing reaches only the state's terms: a step's pair terms are the
        # bits of the zero-forcing kernel call the trace sample would make
        params, fo, init = self.setup(grid32)
        stepper = _Stepper(grid32, params, fo, dt=0.01)
        pairs = orthonormal_pairs(grid32, 8, seed=1)
        U, W = _to_half(init)
        for i in range(3):
            U, W = (x.copy() for x in stepper.advance(U, W, 0.01 * i, pairs[:, :2], pairs[:, 2])[:2])
        stepper.advance(U, W, 0.03, pairs[:, :2], pairs[:, 2])
        from_step = stepper.work.E_prev[:, 1:]
        fresh = _Workspace(grid32, 9)
        zero = np.zeros_like(W)
        _explicit_terms(grid32, params, U, W, np.stack([zero, zero]), zero, V=pairs[:, :2],
                        Z=pairs[:, 2], work=fresh)
        assert np.array_equal(from_step.view(np.uint64), fresh.E[:, 1:].view(np.uint64))
        assert _trace_sample(grid32, params, U, W, pairs, terms=from_step) \
            == _trace_sample(grid32, params, U, W, pairs)

    @pytest.mark.parametrize("velocity_only", [False, True])
    def test_block_samples_equal_kernel_samples(self, grid16, velocity_only):
        # each block returns the sample of the frame it starts from, the
        # bits of a sample with its own kernel call
        params, fo, init = self.setup(grid16)
        if velocity_only:
            params = Params(nu=0.4, nu_r=0.0, alpha=0.5)
        run = _TangentRun(init, params, fo, 4, dt=0.01, reorth_interval=3, seed=2,
                          velocity_only=velocity_only)
        for _ in range(3):
            expected = _trace_sample(grid16, params, run.U.copy(), run.W.copy(), run.pairs.copy())
            assert run._advance_block() == expected

    def test_exponents_match_mgs_oracle_run(self, grid32, monkeypatch):
        params, fo, init = self.setup(grid32)
        report = lyapunov_spectrum(init, params, fo, count=8, t_span=1.0, dt=0.01, seed=3)

        def oracle(grid, pairs):
            full = _full_from_half(grid, pairs)
            V, Z = full[:, :2].copy(), full[:, 2].copy()
            growth = mgs(grid, V, Z)
            pairs[:, :2], pairs[:, 2] = _block(grid, V), _block(grid, Z)
            return growth

        monkeypatch.setattr(lyapunov, "_mgs", oracle)
        reference = lyapunov_spectrum(init, params, fo, count=8, t_span=1.0, dt=0.01, seed=3)
        assert np.max(np.abs(report.exponents / reference.exponents - 1.0)) <= 1e-12
        assert report.trace.trace == pytest.approx(reference.trace.trace, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 12])
    def test_first_frame_orthonormal_within_the_band(self, n):
        # below n = 14 the seeded pairs reach beyond kcut; the first frame is
        # taken from their band part, all of which the first step keeps
        grid = make_grid(n, 2 * np.pi)
        run = _TangentRun(random_state(grid, 2, 0.05, 0.02), PARAMS, Forcing.zero(grid), 6,
                          dt=0.01, seed=4)
        assert np.max(np.abs(gram(grid, run.pairs) - np.eye(6))) <= 1e-12


class TestKaplanYorke:
    def test_contracting_spectrum(self):
        ky, undet = kaplan_yorke_dimension(np.array([-0.5, -1.0, -2.0]))
        assert ky == 0.0 and not undet

    def test_textbook_crossover(self):
        # mu = (1, 0.5, -4): j = 2, D = 2 + 1.5/4
        ky, undet = kaplan_yorke_dimension(np.array([1.0, 0.5, -4.0]))
        assert ky == pytest.approx(2.375)
        assert not undet

    def test_undetermined_when_no_crossover(self):
        ky, undet = kaplan_yorke_dimension(np.array([1.0, 0.5, -0.1]))
        assert ky is None and undet
