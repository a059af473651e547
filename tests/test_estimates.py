"""
Bound calculators against hand-evaluated golden values, monotonicity
scans, profile dual-strength closed forms and inequality audits along
short solver runs.
"""

import math

import numpy as np
import pytest

from micropolar.dynamics import Forcing, Params, make_forcing, random_state, simulate
from micropolar.estimates import (
    LADYZHENSKAYA_C1,
    Constants,
    ForceStrength,
    attractor_bound,
    compute_constants,
    profile_modes_bound,
    detect_transient,
    empirical_eigenvalue_growth,
    force_strength,
    modes_bound,
    nodes_bound,
    nodes_bound_log10,
    profile_dual_strength,
    verify_absorbing_ball,
    verify_energy_inequality,
    verify_h1_bound,
    verify_time_averages,
)
from micropolar.spectral import make_grid, norm
from oracles import nodes_bound_raw


UNIT = Constants(nu=1.0, nu_r=0.0, alpha=1.0, lambda1=1.0, c1=1.0)


class TestConstants:
    def test_k_values(self, grid16):
        cst = compute_constants(Params(nu=1.0, nu_r=0.5, alpha=2.0), grid16)
        assert cst.k1 == 1.0
        assert cst.k2 == pytest.approx(1.0)  # lambda1 = 1 at L = 2 pi
        assert cst.k3_modes == min(1.5, 2.0)
        assert cst.k3_nodes == min(0.5, 2.0)
        assert cst.c1 == pytest.approx(LADYZHENSKAYA_C1)

    def test_chat_identities(self):
        cst = Constants(nu=0.5, nu_r=0.25, alpha=2.0, lambda1=3.0, C=1.7, r=1.3)
        k1, k2, r = cst.k1, cst.k2, cst.r
        assert cst.chat1 == pytest.approx((2 + 3 * k2 * r) / (k1 * k2))
        assert cst.chat2 == pytest.approx(8 * 0.25**2 * r / 2.0)
        assert cst.chat3 == pytest.approx(8 * 1.7 * r / (2.0**2 * 0.5 * k1 * k2**3))

    def test_chat2_vanishes_without_microrotation(self):
        assert Constants(nu=1.0, nu_r=0.0, alpha=1.0, lambda1=1.0).chat2 == 0.0

    def test_chat1_golden(self):
        # r = 1, k1 = k2 = 1: (2 + 3)/(1*1) = 5
        assert Constants(nu=1.0, nu_r=0.0, alpha=1.0, lambda1=1.0, r=1.0).chat1 == 5.0

    def test_nonpositive_override_rejected(self, grid16):
        with pytest.raises(ValueError):
            compute_constants(Params(1.0, 0.0, 1.0), grid16, C=-1.0)
        with pytest.raises(ValueError):
            compute_constants(Params(1.0, 0.0, 1.0), grid16, c1=0.0)

    @pytest.mark.parametrize("name", ["c1", "C", "C0", "c", "d", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonfinite_override_rejected(self, grid16, name, value):
        with pytest.raises(ValueError, match="finite"):
            compute_constants(Params(1.0, 0.0, 1.0), grid16, **{name: value})

    def test_empirical_growth_constant(self, grid16):
        d = empirical_eigenvalue_growth(grid16)
        lam = grid16.eigenvalues
        assert d > 0
        assert np.all(lam >= d * lam[0] * np.arange(1, len(lam) + 1) - 1e-12)


class TestForceStrength:
    def test_zero(self, grid16):
        fs = force_strength(Forcing.zero(grid16), grid16)
        assert fs.F_tilde == 0 and fs.F_tilde_minus1 == 0

    def test_single_mode_dual_norm(self, grid16):
        fo = make_forcing(grid16, "uniform_N", magnitude_f2=4.0, mode_hi=1, seed=1)
        fs = force_strength(fo, grid16)
        lam1 = grid16.eigenvalues[0]
        assert fs.F_tilde == pytest.approx(2.0, rel=1e-13)
        assert fs.F_tilde_minus1 == pytest.approx(2.0 / math.sqrt(lam1), rel=1e-13)

    def test_poincare_dual_inequality_all_profiles(self, grid16):
        for profile in ("steady", "two_scale", "band", "uniform_N",
                        "linear_increasing", "linear_decreasing"):
            fo = make_forcing(grid16, profile, 0.3, 0.1, mode_lo=2, mode_hi=9, seed=4)
            fs = force_strength(fo, grid16)
            assert fs.F_tilde_minus1 <= fs.F_tilde / math.sqrt(grid16.lambda1) * (1 + 1e-12)

    def test_time_dependent_needs_window(self, grid16):
        fo = Forcing(grid16, lambda t: Forcing.zero(grid16).f_hat(0),
                     lambda t: Forcing.zero(grid16).g_hat(0), steady=False)
        with pytest.raises(ValueError):
            force_strength(fo, grid16)
        fs = force_strength(fo, grid16, window=[0.0, 1.0])
        assert fs.F_tilde == 0


class TestModesBound:
    def test_unit_constants_golden(self):
        # hand evaluation: 16*1/(1*1*1) + 8*1/(1*1*1) * 1 = 24
        cst = Constants(nu=1.0, nu_r=1.0, alpha=1.0, lambda1=1.0, c1=1.0, d=1.0)
        assert cst.k3_modes == 1.0
        assert modes_bound(cst, 1.0, "closed_form") == 24

    def test_vanishes_without_forcing_or_microrotation(self, grid16):
        cst = compute_constants(Params(1.0, 0.0, 1.0), grid16)
        assert modes_bound(cst, 0.0, "closed_form") == 0
        assert modes_bound(cst, 0.0, "exact_eigenvalues", grid16) == 0

    def test_exact_below_closed_form(self, grid64):
        params = Params(nu=0.2, nu_r=0.1, alpha=0.2)
        cst = compute_constants(params, grid64)
        for F in (0.0, 0.05, 0.1, 0.2):
            closed = modes_bound(cst, F, "closed_form")
            exact = modes_bound(cst, F, "exact_eigenvalues", grid64)
            assert exact <= closed

    def test_budget_exceeded(self, grid16):
        cst = compute_constants(Params(0.01, 0.0, 0.01), grid16)
        with pytest.raises(ValueError, match="threshold"):
            modes_bound(cst, 10.0, "exact_eigenvalues", grid16)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            modes_bound(UNIT, 1.0, "variational")

    def test_monotone_in_forcing_and_nu_r(self, grid64):
        cst = compute_constants(Params(0.2, 0.1, 0.2), grid64)
        bounds = [modes_bound(cst, F, "exact_eigenvalues", grid64)
                  for F in np.linspace(0, 0.3, 10)]
        assert all(b1 <= b2 for b1, b2 in zip(bounds, bounds[1:]))
        by_nur = [modes_bound(compute_constants(Params(0.2, nur, 0.2), grid64),
                              0.1, "exact_eigenvalues", grid64)
                  for nur in np.linspace(0, 0.2, 10)]
        assert all(b1 <= b2 for b1, b2 in zip(by_nur, by_nur[1:]))


class TestProfileBounds:
    def test_two_scale_equal_modes(self, grid16):
        lam = grid16.eigenvalues
        same = profile_dual_strength("two_scale", 1.0, grid16, mode_lo=3, mode_hi=3)
        assert same == pytest.approx(1.0 / lam[2])
        # the forcing itself puts the whole magnitude in the one mode
        for mode in (1, 3, 8):
            fo = make_forcing(grid16, "two_scale", 0.3, 0.1, mode_lo=mode, mode_hi=mode, seed=5)
            assert norm(fo.f_at(0.0)) ** 2 == pytest.approx(0.3, rel=1e-12)
            assert norm(fo.g_at(0.0)) ** 2 == pytest.approx(0.1, rel=1e-12)
            measured = force_strength(fo, grid16).F_tilde_minus1 ** 2
            predicted = profile_dual_strength("two_scale", math.sqrt(0.4), grid16, mode, mode)
            assert predicted == pytest.approx(measured, rel=1e-12)

    def test_uniform_single_mode_reduces(self, grid16):
        val = profile_dual_strength("uniform_N", 2.0, grid16, mode_hi=1)
        assert val == pytest.approx(4.0 / grid16.eigenvalues[0])

    def test_linear_decreasing_sum_oracle(self):
        grid = make_grid(16, 2 * np.pi)
        lam = grid.eigenvalues
        N, F2 = 10, 3.0
        direct = sum((N + 1 - k) / lam[k - 1] * 2 * F2 / (N * (N + 1)) for k in range(1, N + 1))
        val = profile_dual_strength("linear_decreasing", math.sqrt(F2), grid, mode_hi=N)
        assert val == pytest.approx(direct, rel=1e-12)

    def test_band_bracket_contains_concrete(self, grid16):
        lo_idx, hi_idx = 3, 11
        fo = make_forcing(grid16, "band", 0.5, 0.0, mode_lo=lo_idx, mode_hi=hi_idx, seed=9)
        fs = force_strength(fo, grid16)
        lo, hi = profile_dual_strength("band", fs.F_tilde, grid16, lo_idx, hi_idx)
        assert lo <= fs.F_tilde_minus1**2 <= hi

    def test_profile_bound_dispatch(self, grid64):
        cst = compute_constants(Params(0.2, 0.05, 0.2), grid64)
        m_exact = profile_modes_bound("uniform_N", cst, 0.1, grid64, mode_hi=5)
        assert isinstance(m_exact, int)
        interval = profile_modes_bound("band", cst, 0.1, grid64, mode_lo=2, mode_hi=9)
        assert interval[0] <= interval[1]


class TestNodesBound:
    def test_minimum_covering(self):
        assert nodes_bound(UNIT, 0.0) == 1

    def test_unit_constants_golden(self):
        # by hand: c2^ = 0, c3^ = 8, bracket = 0 - 0
        #   + (1 + 1) * (5 * 1 + 80 e^8) + 80 e^8 = 10 + 240 e^8 = 715439.9169
        # ceil -> 715440, next perfect square 846^2 = 715716
        assert nodes_bound(UNIT, 1.0) == 715716

    def test_rounds_to_perfect_square(self):
        value = nodes_bound(UNIT, 0.5)
        side = math.isqrt(value)
        assert side * side == value

    def test_monotone_in_forcing(self):
        grid = np.linspace(0.0, 1.0, 10)
        values = [nodes_bound(UNIT, F) for F in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_log10_matches_raw(self):
        for F in (0.3, 0.7, 1.0):
            log10 = nodes_bound_log10(UNIT, F)
            direct = math.log10(
                (8 * 0**2 / 1 - 0)
                + (1 + 1) * (5 * F**2 + 80 * F**6 * math.exp(8 * F**4))
                + 80 * F**4 * math.exp(8 * F**4)
            )
            assert log10 == pytest.approx(direct, rel=1e-12)
        # nu_r < alpha / 4 makes the first term 8 nu_r^2 / alpha - 2 nu_r negative
        for nu_r in (0.01, 0.05):
            cst = Constants(nu=0.3, nu_r=nu_r, alpha=0.3, lambda1=1.0)
            for F in (0.01, 0.03, 0.05):
                raw = nodes_bound_raw(cst, F)
                assert raw > 0
                assert nodes_bound_log10(cst, F) == pytest.approx(math.log10(raw), rel=1e-12)
            # a threshold <= 0 reads as the one-node floor, like zero forcing
            assert nodes_bound_raw(cst, 1e-3) < 0
            assert nodes_bound_log10(cst, 1e-3) == 0.0
            assert nodes_bound(cst, 1e-3) == 1

    def test_zero_forcing_is_finite_with_a_steep_exponent(self):
        # F = 0 leaves only the first term: 1 / (0.25 * 0.01) * (8 / 0.01 - 2)
        # = 319200 nodes, 565^2 = 319225 rounded up; the exponent chat2 = 800
        # of the other terms (zero here) does not make the bound overflow
        steep = Constants(nu=0.01, nu_r=1.0, alpha=0.01, lambda1=0.25, c1=0.3)
        assert steep.chat2 > 700
        assert nodes_bound(steep, 0.0) == 565**2

    def test_overflow_raises_with_log10(self):
        steep = Constants(nu=0.01, nu_r=0.0, alpha=0.01, lambda1=1.0, c1=1.0)
        with pytest.raises(OverflowError, match="log10"):
            nodes_bound(steep, 5.0)
        assert math.isfinite(nodes_bound_log10(steep, 5.0))


class TestAttractorBound:
    def test_zero_forcing(self):
        assert attractor_bound(UNIT, 0.0, 0.0) == 0

    def test_unit_golden(self):
        # 2 * 1 * 1 = 2 so N - 1 < 2 <= N gives N = 2
        assert attractor_bound(UNIT, 1.0, 0.0) == 2

    def test_doubling_forcing(self):
        cst = Constants(nu=1.0, nu_r=0.0, alpha=1.0, lambda1=1.0, c1=1.0, C0=0.77)
        x = 2 * 0.77 * math.hypot(0.3, 0.4)
        assert attractor_bound(cst, 0.3, 0.4) == math.ceil(x)
        assert attractor_bound(cst, 0.6, 0.8) == math.ceil(2 * x)


@pytest.fixture(scope="module")
def decaying_run(grid32):
    params = Params(nu=0.5, nu_r=0.1, alpha=0.5)
    init = random_state(grid32, 6, 0.4, 0.2)
    traj = simulate(init, params, Forcing.zero(grid32), t_end=12.0, dt=0.01, stride=10)
    cst = compute_constants(params, grid32)
    return traj, cst


@pytest.fixture(scope="module")
def forced_run(grid32):
    params = Params(nu=0.3, nu_r=0.1, alpha=0.3)
    fo = make_forcing(grid32, "steady", 0.01, 0.002, mode_hi=8, seed=3)
    init = random_state(grid32, 7, 0.1, 0.05)
    traj = simulate(init, params, fo, t_end=25.0, dt=0.01, stride=10)
    cst = compute_constants(params, grid32)
    return traj, cst, force_strength(fo, grid32)


class TestVerifiers:
    def test_energy_inequality_zero_forcing(self, decaying_run):
        traj, cst = decaying_run
        report = verify_energy_inequality(traj, cst)
        assert not report.violated
        assert report.left <= 1.0

    def test_energy_inequality_forced(self, forced_run):
        traj, cst, _ = forced_run
        assert not verify_energy_inequality(traj, cst).violated

    def test_missing_series_rejected(self, decaying_run):
        traj, cst = decaying_run
        crippled = type(traj)(times=traj.times, series={"u_l2_sq": traj.series["u_l2_sq"]},
                              final_state=traj.final_state, dt=traj.dt)
        with pytest.raises(ValueError, match="lacks"):
            verify_energy_inequality(crippled, cst)

    def test_absorbing_ball_zero_forcing(self, decaying_run):
        traj, cst = decaying_run
        report = verify_absorbing_ball(traj, cst, ForceStrength(0.0, 0.0))
        assert report.radius_sq == 0.0
        assert report.final_inside

    def test_absorbing_ball_forced(self, forced_run):
        traj, cst, fs = forced_run
        report = verify_absorbing_ball(traj, cst, fs)
        assert report.entered_at is not None
        assert report.remained and not report.violated

    def test_absorbing_ball_transit_reported_not_violated(self, decaying_run):
        # a tiny ball the decaying trajectory has not reached yet
        traj, cst = decaying_run
        short = type(traj)(times=traj.times[:5],
                           series={k: v[:5] for k, v in traj.series.items()},
                           final_state=traj.final_state, dt=traj.dt)
        tiny = ForceStrength(1e-9, 1e-9)
        report = verify_absorbing_ball(short, cst, tiny)
        assert report.entered_at is None
        assert not report.violated

    def test_ball_inflated_bound_weaker(self, forced_run):
        traj, cst, fs = forced_run
        bigger = ForceStrength(fs.F_tilde * 3, fs.F_tilde_minus1 * 3)
        a = verify_absorbing_ball(traj, cst, fs)
        b = verify_absorbing_ball(traj, cst, bigger)
        assert b.radius_sq > a.radius_sq
        assert b.entered_at <= a.entered_at

    def test_time_averages_zero_forcing(self, decaying_run):
        traj, cst = decaying_run
        reports = verify_time_averages(traj, cst, ForceStrength(0.0, 0.0))
        named = {r.check_name: r for r in reports}
        # left sides decay toward zero; right sides are zero, allow the slack floor
        assert named["h1_time_average"].left < 1e-3

    def test_time_averages_forced(self, forced_run):
        traj, cst, fs = forced_run
        for report in verify_time_averages(traj, cst, fs):
            assert not report.violated, report.check_name

    def test_time_averages_window_minimum(self, forced_run):
        traj, cst, fs = forced_run
        stub = type(traj)(times=traj.times[:3],
                          series={k: v[:3] for k, v in traj.series.items()},
                          final_state=traj.final_state, dt=traj.dt)
        with pytest.raises(ValueError, match="samples"):
            verify_time_averages(stub, cst, fs)

    def test_da_bound_monotone_in_forcing(self, forced_run):
        traj, cst, fs = forced_run
        reports = {r.check_name: r for r in verify_time_averages(traj, cst, fs)}
        bigger = {r.check_name: r for r in verify_time_averages(
            traj, cst, ForceStrength(fs.F_tilde * 2, fs.F_tilde_minus1 * 2))}
        assert bigger["da_time_average"].right >= reports["da_time_average"].right

    def test_h1_bound(self, forced_run):
        traj, cst, fs = forced_run
        report = verify_h1_bound(traj, cst, fs)
        assert not report.violated
        assert report.margin > 0

    def test_h1_bound_zero_forcing(self, decaying_run):
        traj, cst = decaying_run
        report = verify_h1_bound(traj, cst, ForceStrength(0.0, 0.0))
        assert not report.violated

    def test_h1_golden_bound_value(self):
        # nu = alpha = 1, nu_r = 0, r = 1, k2 = 1, C = 1, F~ = 1:
        # chat1 = 5, chat3 = 8 so the bound is 5 e^8
        cst = Constants(nu=1.0, nu_r=0.0, alpha=1.0, lambda1=1.0, c1=1.0)
        bound = cst.chat1 * 1.0**2 * math.exp(cst.chat2 + cst.chat3 * 1.0**4)
        assert bound == pytest.approx(5 * math.exp(8), rel=1e-12)

    def test_transient_detector(self):
        t = np.linspace(0, 10, 101)
        settles = np.where(t < 3, 1.0 + np.exp(-t), 1.0 + 1e-4 * np.sin(t))
        idx = detect_transient(t, settles)
        assert idx is not None and t[idx] <= 5.0
        never = np.exp(-0.05 * t)
        assert detect_transient(t, never) is None
