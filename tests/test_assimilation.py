"""
Twin-experiment machinery at desk scale: slaving exactness, nudging
convergence and divergence reporting, the Gronwall-hypothesis checker and
the decay-rate fitter against synthetic series.
"""

import numpy as np
import pytest

from micropolar.assimilation import (
    SyncConfig,
    check_gronwall_conditions,
    default_nudging_gain,
    fit_decay_rate,
    run_mode_sync,
    run_node_sync,
)
from micropolar.dynamics import Forcing, Params, State, make_forcing, random_state, simulate
from micropolar.estimates import Constants, compute_constants
from micropolar.spectral import _half_weights, _power, make_node_set
from oracles import mode_sync_by_fancy_index as oracle_mode_sync


PARAMS = Params(nu=0.25, nu_r=0.1, alpha=0.25)


def separate_energy(grid, dU, dW, weight):
    """One weighted energy of half planes with its own |c|^2 and a pairwise
    sum, as each twin series would take it alone."""
    power = _power(np.concatenate([dU, dW[None]]))
    density = power[0] + power[1] + power[2]
    return float(np.sum(density * _half_weights(grid, density.shape[-1], weight)[0]))


@pytest.fixture(scope="module")
def twin_setup(grid32):
    fo = make_forcing(grid32, "steady", 0.01, 0.002, mode_hi=6, seed=2)
    ref = simulate(random_state(grid32, 3, 0.1, 0.05), PARAMS, fo,
                   t_end=3.0, dt=0.01, stride=10**9).final_state
    pert = random_state(grid32, 17, 0.05, 0.02)
    pert = State(pert.u, pert.omega, ref.t)
    return fo, ref, pert


def make_config(fo, ref, pert, **kw):
    defaults = dict(params=PARAMS, reference=ref, perturbed=pert,
                    forcing1=fo, forcing2=fo, t_end=4.0, dt=0.01, stride=5)
    defaults.update(kw)
    return SyncConfig(**defaults)


class TestModeSync:
    def test_identical_states_stay_identical(self, grid32, twin_setup):
        fo, ref, _ = twin_setup
        cfg = make_config(fo, ref, ref, t_end=0.5)
        report = run_mode_sync(cfg, 4)
        assert np.all(report.series["delta_Q"] == 0.0)
        assert np.all(report.series["delta_P"] == 0.0)

    @pytest.mark.parametrize("m", [0, 12, 300, 1023])
    def test_series_and_planes_equal_fancy_index_slaving(self, twin_setup, monkeypatch, m):
        # the slaving step copies under a mask of each plane width; its
        # series and the slaved twin's last planes have the bits of boolean
        # fancy indexing at every step
        from micropolar import dynamics

        fo, ref, pert = twin_setup
        cfg = make_config(fo, ref, pert, t_end=0.3, stride=4)
        last = {}
        advance = dynamics._Stepper.advance

        def keep(self, *args):
            # the planes returned stay the stepper's own, slaved in place
            last[id(self)] = result = advance(self, *args)
            return result

        monkeypatch.setattr(dynamics._Stepper, "advance", keep)
        report = run_mode_sync(cfg, m)
        monkeypatch.undo()
        deltas, U2, W2 = oracle_mode_sync(cfg, m)
        delta_P, delta_Q = np.asarray(deltas).T
        assert report.series["delta_P"].tobytes() == delta_P.tobytes()
        assert report.series["delta_Q"].tobytes() == delta_Q.tobytes()
        U, W = list(last.values())[1]
        assert U.tobytes() == U2.tobytes() and W.tobytes() == W2.tobytes()

    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_one_rejected(self, twin_setup, stride):
        # 0 used to divide by zero after the set-up, -2 to record every second step
        fo, ref, pert = twin_setup
        with pytest.raises(ValueError, match="stride"):
            make_config(fo, ref, pert, stride=stride)

    def test_full_spectrum_synchronizes_immediately(self, grid32, twin_setup):
        fo, ref, pert = twin_setup
        cfg = make_config(fo, ref, pert, t_end=0.5)
        report = run_mode_sync(cfg, grid32.num_modes)
        assert np.all(report.series["delta_Q"] == 0.0)

    def test_delta_p_identically_zero(self, grid32, twin_setup):
        fo, ref, pert = twin_setup
        report = run_mode_sync(make_config(fo, ref, pert, t_end=1.0), 30)
        assert np.all(report.series["delta_P"] == 0.0)
        assert report.meta["effective_m"] >= 30

    def test_series_equal_separate_energies(self, grid32, twin_setup, monkeypatch):
        # delta_P and delta_Q come from one |c|^2 and one product per record,
        # with that call's bits, and match each energy taken alone within
        # the roundoff budget of the record norms (1e-15 relative)
        from micropolar import assimilation

        fo, ref, pert = twin_setup
        shared = assimilation._product_energies
        returned, separate = [], []

        def spy(grid, dU, dW, *weights):
            separate.append([separate_energy(grid, dU, dW, w) for w in weights])
            returned.append(shared(grid, dU, dW, *weights))
            return returned[-1]

        monkeypatch.setattr(assimilation, "_product_energies", spy)
        report = run_mode_sync(make_config(fo, ref, pert, t_end=0.5, stride=3), 40)
        expected, alone = np.asarray(returned), np.asarray(separate)
        assert expected.shape == (len(report.times), 2) and np.all(alone[1:, 1] > 0)
        assert np.all(np.abs(expected - alone) <= 1e-15 * alone)
        for k, name in enumerate(("delta_P", "delta_Q")):
            got = np.ascontiguousarray(report.series[name])
            assert np.array_equal(got.view(np.uint64), expected[:, k].view(np.uint64))

    def test_sufficient_modes_converge(self, grid32, twin_setup):
        fo, ref, pert = twin_setup
        cst = compute_constants(PARAMS, grid32)
        from micropolar.estimates import force_strength, modes_bound
        m = modes_bound(cst, force_strength(fo, grid32).F_tilde_minus1,
                        "exact_eigenvalues", grid32)
        report = run_mode_sync(make_config(fo, ref, pert, t_end=6.0), m)
        assert report.min_relative() < 1e-10

    def test_ladder_rates_monotone(self, grid32, twin_setup):
        fo, ref, pert = twin_setup
        rates = []
        for m in (60, 120, 240):
            rep = run_mode_sync(make_config(fo, ref, pert, t_end=2.5, stride=1), m)
            assert rep.rate is not None
            rates.append(rep.rate)
        # larger m never decays slower, within 10% fit noise
        for r_small, r_big in zip(rates, rates[1:]):
            assert r_big <= r_small + 0.1 * abs(r_small)

    def test_decaying_forcing_gap_still_converges(self, grid32, twin_setup):
        from micropolar.dynamics import forcing_with_decaying_gap
        fo, ref, pert = twin_setup
        gap = make_forcing(grid32, "steady", 0.002, 0.0005, mode_hi=4, seed=30)
        fo2 = forcing_with_decaying_gap(fo, gap.f_at(0), gap.g_at(0), decay_rate=1.5)
        cfg = make_config(fo, ref, pert, forcing2=fo2, t_end=10.0)
        report = run_mode_sync(cfg, 240)
        assert report.min_relative() < 1e-8


class TestNodeSync:
    def test_identical_states_remain_identical(self, grid32, twin_setup):
        fo, ref, _ = twin_setup
        nodes = make_node_set(grid32, count=64)
        report = run_node_sync(make_config(fo, ref, ref, t_end=0.5), nodes, mu=5.0)
        assert report.initial == 0.0
        assert np.all(report.series["h1_diff"] < 1e-25)

    def test_dense_nodes_converge(self, grid32, twin_setup):
        fo, ref, pert = twin_setup
        nodes = make_node_set(grid32, count=grid32.n**2 // 4)
        cst = compute_constants(PARAMS, grid32)
        mu = default_nudging_gain(cst, nodes.count)
        report = run_node_sync(make_config(fo, ref, pert, t_end=4.0, dt=0.005), nodes, mu)
        assert not report.diverged
        assert report.converged
        assert report.min_relative() < 1e-10

    def test_unstable_gain_reported_not_raised(self, grid32, twin_setup):
        fo, ref, pert = twin_setup
        nodes = make_node_set(grid32, count=16)
        report = run_node_sync(make_config(fo, ref, pert, t_end=4.0), nodes, mu=1e4)
        assert report.diverged
        assert not report.converged
        assert "blowup_time" in report.meta

    def test_eta_series_tracks_node_gap(self, grid32, twin_setup):
        fo, ref, pert = twin_setup
        nodes = make_node_set(grid32, count=256)
        mu = default_nudging_gain(compute_constants(PARAMS, grid32), nodes.count)
        report = run_node_sync(make_config(fo, ref, pert, t_end=2.0, dt=0.005), nodes, mu)
        assert report.series["eta_u"][0] > 0
        assert report.series["eta_u"][-1] < 1e-6 * report.series["eta_u"][0]

    @pytest.mark.parametrize("run", ["modes", "nodes"])
    def test_span_not_whole_steps(self, grid32, twin_setup, run):
        fo, ref, pert = twin_setup
        cfg = make_config(fo, ref, pert, t_end=0.015)
        with pytest.raises(ValueError, match="whole number"):
            if run == "modes":
                run_mode_sync(cfg, 4)
            else:
                run_node_sync(cfg, make_node_set(grid32, count=16), mu=1.0)

    def test_warm_nudged_advance_allocates_no_arrays(self, grid64, monkeypatch):
        # the nudging term works in buffers of the run: after warm-up a
        # nudged step stays under one band plane above the traced baseline
        self._assert_warm_nudged_advance_allocates_no_arrays(grid64, 1024, monkeypatch)

    def test_warm_dense_nudged_advance_allocates_no_arrays(self, grid32, monkeypatch):
        # n = 32 samples aligned nodes through a dense DFT product, whose
        # stage is a buffer of the run too
        self._assert_warm_nudged_advance_allocates_no_arrays(grid32, 256, monkeypatch)

    @staticmethod
    def _assert_warm_nudged_advance_allocates_no_arrays(grid, count, monkeypatch):
        import tracemalloc

        from micropolar.dynamics import _Stepper, _to_half

        caught = []
        init = _Stepper.__init__

        def catch(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self.extra is not None:
                caught.append(self.extra)

        monkeypatch.setattr(_Stepper, "__init__", catch)
        params = Params(0.15, 0.075, 0.15)
        fo = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
        nodes = make_node_set(grid, count=count)
        assert nodes.aligned
        ref, pert = random_state(grid, 2, 0.15, 0.05), random_state(grid, 3, 0.15, 0.05)
        run_node_sync(SyncConfig(params, ref, pert, fo, fo, t_end=0.03, dt=0.01), nodes, mu=1.0)
        monkeypatch.undo()
        # the caught term keeps nudging toward the run's last reference planes
        stepper = _Stepper(grid, params, fo, 0.01, extra=caught[0])
        m = grid.kcut + 1
        U, W = (x[..., :m].copy() for x in _to_half(pert))
        for i in range(3):
            U, W = stepper.advance(U, W, 0.01 * i)
        band_plane = grid.n * m * 16
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for i in range(3, 13):
                U, W = stepper.advance(U, W, 0.01 * i)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak < band_plane, f"{peak} bytes above baseline, one band plane is {band_plane}"

    def test_warm_unaligned_nudged_advance_allocates_no_arrays(self, grid64):
        # 900 nodes sit off the lattice: the phase contraction, the full
        # spectra it reads and its mirror scratch are buffers of the run too
        import tracemalloc

        from micropolar.assimilation import _Nudging
        from micropolar.dynamics import _Stepper, _to_half

        params = Params(0.15, 0.075, 0.15)
        fo = make_forcing(grid64, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
        nodes = make_node_set(grid64, count=900)
        assert not nodes.aligned
        ref, pert = random_state(grid64, 2, 0.15, 0.05), random_state(grid64, 3, 0.15, 0.05)
        m = grid64.kcut + 1
        reference = tuple(x[..., :m].copy() for x in _to_half(ref))
        stepper = _Stepper(grid64, params, fo, 0.01, extra=_Nudging(nodes, 1.0, reference))
        U, W = (x[..., :m].copy() for x in _to_half(pert))
        for i in range(3):
            U, W = stepper.advance(U, W, 0.01 * i)
        band_plane = grid64.n * m * 16
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for i in range(3, 13):
                U, W = stepper.advance(U, W, 0.01 * i)
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert peak < band_plane, f"{peak} bytes above baseline, one band plane is {band_plane}"

    def test_bad_gain_rejected(self, grid32, twin_setup):
        fo, ref, pert = twin_setup
        nodes = make_node_set(grid32, count=16)
        with pytest.raises(ValueError):
            run_node_sync(make_config(fo, ref, pert), nodes, mu=0.0)


class TestGronwallChecker:
    def test_decayed_trajectory_limit(self, grid32):
        # with f = g = 0 and large t the norms vanish and the window average
        # approaches k1 lambda_{m+1} - 16 nu_r^2 / alpha
        params = Params(nu=0.5, nu_r=0.2, alpha=0.5)
        traj = simulate(random_state(grid32, 4, 0.02, 0.01), params,
                        Forcing.zero(grid32), t_end=20.0, dt=0.01, stride=10)
        cst = compute_constants(params, grid32)
        m = 12
        report = check_gronwall_conditions(traj, cst, m, grid32, window=2.0)
        expected = cst.k1 * grid32.eigenvalues[m] - 16 * params.nu_r**2 / params.alpha
        assert report.window_averages[-1] == pytest.approx(expected, rel=1e-3)
        assert report.l2_holds

    def test_l1_fails_at_m_zero_under_forcing(self, grid32):
        params = Params(nu=0.05, nu_r=0.1, alpha=0.05)
        fo = make_forcing(grid32, "steady", 0.02, 0.005, mode_hi=6, seed=8)
        traj = simulate(random_state(grid32, 5, 0.2, 0.1), params, fo,
                        t_end=5.0, dt=0.005, stride=10)
        cst = compute_constants(params, grid32)
        report = check_gronwall_conditions(traj, cst, 0, grid32, window=1.0)
        assert not report.l1_holds  # reported, not raised

    def test_window_too_long(self, grid32):
        params = Params(nu=0.5, nu_r=0.0, alpha=0.5)
        traj = simulate(random_state(grid32, 4, 0.05, 0.02), params,
                        Forcing.zero(grid32), t_end=1.0, dt=0.01, stride=10)
        cst = compute_constants(params, grid32)
        with pytest.raises(ValueError, match="window"):
            check_gronwall_conditions(traj, cst, 5, grid32, window=50.0)

    def test_window_too_short(self, grid32):
        params = Params(nu=0.5, nu_r=0.0, alpha=0.5)
        traj = simulate(random_state(grid32, 4, 0.05, 0.02), params,
                        Forcing.zero(grid32), t_end=1.0, dt=0.01, stride=10)
        cst = compute_constants(params, grid32)
        with pytest.raises(ValueError, match="fewer than two samples"):
            check_gronwall_conditions(traj, cst, 5, grid32, window=0.05)

    def test_m_out_of_range(self, grid32):
        params = Params(nu=0.5, nu_r=0.0, alpha=0.5)
        traj = simulate(random_state(grid32, 4, 0.05, 0.02), params,
                        Forcing.zero(grid32), t_end=1.0, dt=0.01, stride=10)
        cst = compute_constants(params, grid32)
        with pytest.raises(ValueError):
            check_gronwall_conditions(traj, cst, grid32.num_modes + 1, grid32)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 200)
        rate, r2 = fit_decay_rate(t, np.exp(-2.0 * t))
        assert rate == pytest.approx(-2.0, abs=1e-6)
        assert r2 > 1 - 1e-12

    def test_constant_series(self):
        t = np.linspace(0, 5, 50)
        rate, _ = fit_decay_rate(t, np.full(50, 3.0))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValueError, match="10 samples"):
            fit_decay_rate([0, 1, 2], [1.0, 0.5, 0.25])

    def test_too_short_after_the_transient(self):
        # 0.95 of 12 samples leaves one point, which used to fit with R^2 = 1
        t = np.linspace(0, 5, 12)
        with pytest.raises(ValueError, match="10 samples"):
            fit_decay_rate(t, np.exp(-t), transient_fraction=0.95)
        # half of 20 leaves exactly 10
        t = np.linspace(0, 5, 20)
        rate, _ = fit_decay_rate(t, np.exp(-t), transient_fraction=0.5)
        assert rate == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("fraction", [1.0, -0.1, 1.5, float("nan")])
    def test_transient_fraction_outside_unit_interval(self, fraction):
        # 1.0 used to fit an empty segment and return (0.0, 1.0)
        t = np.linspace(0, 5, 10)
        with pytest.raises(ValueError, match="transient_fraction"):
            fit_decay_rate(t, np.exp(-t), transient_fraction=fraction)

    def test_nonpositive_rejected(self):
        t = np.linspace(0, 5, 20)
        v = np.exp(-t)
        v[15] = 0.0
        with pytest.raises(ValueError, match="nonpositive"):
            fit_decay_rate(t, v)

    def test_transient_skipped(self):
        t = np.linspace(0, 10, 400)
        v = np.where(t < 2, 5.0, np.exp(-1.5 * (t - 2)) * 5.0)
        rate, _ = fit_decay_rate(t, v, transient_fraction=0.5)
        assert rate == pytest.approx(-1.5, rel=1e-6)
