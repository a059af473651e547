"""
Solver tests: right-hand side structure, IMEX stepping against the exact
heat-decay solution, discrete energy decay, forcing profile exactness and
the checkpoint format.
"""

import math
import tracemalloc

import numpy as np
import pytest

from micropolar.dynamics import (
    CflViolationError,
    Forcing,
    NumericsError,
    Params,
    State,
    _from_half,
    _half_planes,
    _Stepper,
    _to_half,
    forcing_with_decaying_gap,
    make_forcing,
    random_state,
    read_checkpoint,
    rhs,
    shear_state,
    simulate,
    standard_observers,
    step,
    write_checkpoint,
)
from micropolar.spectral import (
    FieldError,
    ScalarField,
    VectorField,
    _full_from_half,
    make_grid,
    norm,
)
from oracles import random_state_by_fields


class TestParams:
    def test_navier_stokes_reduction_allowed(self):
        Params(nu=1.0, nu_r=0.0, alpha=1.0)

    @pytest.mark.parametrize("nu,nu_r,alpha", [(0.0, 0.0, 1.0), (1.0, -0.1, 1.0), (1.0, 0.0, 0.0)])
    def test_invalid_params(self, nu, nu_r, alpha):
        with pytest.raises(ValueError):
            Params(nu=nu, nu_r=nu_r, alpha=alpha)

    @pytest.mark.parametrize("nu,nu_r,alpha", [(float("nan"), 0.0, 1.0), (1.0, float("nan"), 1.0),
                                               (1.0, float("inf"), 1.0), (1.0, 0.0, float("inf"))])
    def test_nonfinite_params(self, nu, nu_r, alpha):
        # nan < 0 is False, so a sign test alone lets NaN through
        with pytest.raises(ValueError, match="finite"):
            Params(nu=nu, nu_r=nu_r, alpha=alpha)


class TestRhs:
    def test_zero_state_zero_forcing(self, grid16):
        du, dw = rhs(State.zero(grid16), Params(1.0, 0.5, 1.0), Forcing.zero(grid16))
        assert norm(du) == 0
        assert norm(dw) == 0

    def test_nu_r_zero_decouples_velocity(self, grid16):
        p = Params(nu=0.7, nu_r=0.0, alpha=0.4)
        base = random_state(grid16, 5, 0.2, 0.0)
        om_a = random_state(grid16, 6, 0.0, 0.3).omega
        om_b = random_state(grid16, 7, 0.0, 0.9).omega
        du_a, _ = rhs(State(base.u, om_a, 0.0), p, Forcing.zero(grid16))
        du_b, _ = rhs(State(base.u, om_b, 0.0), p, Forcing.zero(grid16))
        assert np.array_equal(du_a.u1.coeffs, du_b.u1.coeffs)
        assert np.array_equal(du_a.u2.coeffs, du_b.u2.coeffs)

    def test_shear_mode_closed_form(self, grid16):
        # pure shear: advection vanishes, du/dt = -nu lambda_1 u
        nu = 0.3
        p = Params(nu=nu, nu_r=0.0, alpha=1.0)
        s = shear_state(grid16, amplitude=2.0)
        du, dw = rhs(s, p, Forcing.zero(grid16))
        expected = -nu * grid16.lambda1
        assert np.max(np.abs(du.u1.coeffs - expected * s.u.u1.coeffs)) < 1e-14
        assert norm(du.u2) < 1e-14
        assert norm(dw) == 0

    def test_forcing_grid_mismatch(self, grid16):
        other = make_grid(8, 2 * np.pi)
        with pytest.raises(Exception):
            rhs(State.zero(grid16), Params(1.0, 0.0, 1.0), Forcing.zero(other))


class TestStep:
    def test_zero_stays_zero(self, grid16):
        p = Params(1.0, 0.2, 1.0)
        s = step(State.zero(grid16), p, Forcing.zero(grid16), dt=0.01)
        assert s.energy() == 0
        assert s.t == pytest.approx(0.01)

    def test_exact_shear_decay(self, grid16):
        nu = 1.0
        p = Params(nu=nu, nu_r=0.0, alpha=1.0)
        res = simulate(shear_state(grid16, 1.0), p, Forcing.zero(grid16),
                       t_end=1.0, dt=1e-3, stride=1000)
        amp = np.sqrt(res.series["u_l2_sq"][-1] / res.series["u_l2_sq"][0])
        exact = np.exp(-nu * grid16.lambda1 * 1.0)
        assert abs(amp - exact) / exact < 1e-4

    @pytest.mark.parametrize("dt", [1e-3, 5e-3, 2e-2])
    def test_energy_never_increases_unforced(self, grid16, dt):
        p = Params(nu=0.2, nu_r=0.1, alpha=0.3)
        init = random_state(grid16, 8, 0.4, 0.2)
        res = simulate(init, p, Forcing.zero(grid16), t_end=1.0, dt=dt, stride=1)
        E = res.series["u_l2_sq"] + res.series["omega_l2_sq"]
        assert np.all(np.diff(E) <= 1e-14 * E[0])

    def test_divergence_free_preserved(self, grid16):
        p = Params(nu=0.05, nu_r=0.02, alpha=0.05)
        fo = make_forcing(grid16, "steady", 0.01, 0.002, mode_hi=6, seed=2)
        res = simulate(random_state(grid16, 9, 0.2, 0.1), p, fo, t_end=5.0, dt=5e-3,
                       stride=1000)
        assert res.final_state.u.max_divergence() < 1e-12

    def test_cfl_violation_reports_speed(self, grid16):
        p = Params(nu=1e-4, nu_r=0.0, alpha=1e-4)
        big = random_state(grid16, 3, 50.0, 0.0)
        with pytest.raises(CflViolationError, match="advective speed"):
            step(big, p, Forcing.zero(grid16), dt=0.5)

    def test_nan_detection(self, grid16):
        # bypass the CFL guard to drive the explicit part unstable
        p = Params(nu=1e-6, nu_r=0.0, alpha=1e-6)
        wild = random_state(grid16, 4, 100.0, 10.0)
        with pytest.raises((NumericsError, CflViolationError)):
            simulate(wild, p, Forcing.zero(grid16), t_end=10.0, dt=0.5,
                     cfl_limit=1e9, stride=100)

    def test_deterministic_resimulation(self, grid16):
        p = Params(nu=0.1, nu_r=0.05, alpha=0.1)
        fo = make_forcing(grid16, "steady", 0.01, 0.001, mode_hi=5, seed=1)
        a = simulate(random_state(grid16, 1, 0.1, 0.05), p, fo, t_end=1.0, dt=0.01)
        b = simulate(random_state(grid16, 1, 0.1, 0.05), p, fo, t_end=1.0, dt=0.01)
        assert np.array_equal(a.final_state.u.u1.coeffs, b.final_state.u.u1.coeffs)
        assert np.array_equal(a.final_state.omega.coeffs, b.final_state.omega.coeffs)


class TestSimulate:
    def test_zero_span_returns_initial(self, grid16):
        init = random_state(grid16, 2, 0.1, 0.1)
        res = simulate(init, Params(1.0, 0.0, 1.0), Forcing.zero(grid16), t_end=0.0, dt=0.01)
        assert res.final_state.t == init.t
        assert len(res.times) == 1

    def test_span_not_whole_steps(self, grid16):
        # 0.015 with dt = 0.01 used to end at t = 0.02
        init = random_state(grid16, 2, 0.1, 0.1)
        with pytest.raises(ValueError, match="whole number"):
            simulate(init, Params(1.0, 0.0, 1.0), Forcing.zero(grid16), t_end=0.015, dt=0.01)

    def test_observer_stride(self, grid16):
        init = random_state(grid16, 2, 0.1, 0.1)
        res = simulate(init, Params(1.0, 0.0, 1.0), Forcing.zero(grid16),
                       t_end=1.0, dt=0.01, stride=10)
        assert len(res.times) == 11
        assert set(standard_observers()) <= set(res.series)

    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_one_rejected(self, grid16, stride):
        # rejected before the initial state is built: 0 used to divide by
        # zero after the set-up, -2 to record every second step
        from micropolar.dynamics import _simulate

        built = []
        init = random_state(grid16, 2, 0.1, 0.1)
        with pytest.raises(ValueError, match="stride"):
            _simulate(lambda: built.append(init) or init, Params(1.0, 0.0, 1.0),
                      Forcing.zero(grid16), t_end=0.05, dt=0.01, stride=stride)
        assert built == []
        with pytest.raises(ValueError, match="stride"):
            simulate(init, Params(1.0, 0.0, 1.0), Forcing.zero(grid16), t_end=0.05, dt=0.01,
                     stride=stride)

    def test_custom_observer(self, grid16):
        init = random_state(grid16, 2, 0.1, 0.1)
        res = simulate(init, Params(1.0, 0.0, 1.0), Forcing.zero(grid16), t_end=0.1,
                       dt=0.01, observers={"one": lambda s, f: 1.0}, stride=1)
        assert np.all(res.series["one"] == 1.0)

    def test_custom_observer_receives_validated_state(self, grid16):
        seen = []

        def grab(state, forcing):
            seen.append(state)
            return 0.0

        init = random_state(grid16, 2, 0.1, 0.1)
        simulate(init, Params(1.0, 0.0, 1.0), Forcing.zero(grid16), t_end=0.02,
                 dt=0.01, observers={"grab": grab}, stride=1)
        assert [s.t for s in seen] == [0.0, 0.01, 0.02]
        for s in seen:
            assert isinstance(s, State)
            assert not s.omega.coeffs.flags.writeable
            assert s.u.is_divergence_free()


_FORCING_OBSERVERS = {"f_l2_sq": ("f", "L2"), "g_l2_sq": ("g", "L2"),
                      "f_hm1_sq": ("f", "Hminus1"), "g_hm1_sq": ("g", "Hminus1")}


def _forcing_norm_sq(forcing, which, kind, t):
    target = forcing.f_at(t) if which == "f" else forcing.g_at(t)
    return norm(target, kind) ** 2


class TestRecordPath:
    def test_time_dependent_forcing_evaluated_every_record(self, grid16):
        base = make_forcing(grid16, "steady", 0.01, 0.002, mode_hi=4, seed=2)
        gap = make_forcing(grid16, "steady", 0.04, 0.01, mode_hi=4, seed=3)
        fo = forcing_with_decaying_gap(base, gap.f_at(0), gap.g_at(0), decay_rate=2.0)
        res = simulate(random_state(grid16, 4, 0.1, 0.05), Params(0.3, 0.1, 0.3), fo,
                       t_end=0.2, dt=0.01, stride=2)
        for name, (which, kind) in _FORCING_OBSERVERS.items():
            column = res.series[name]
            expected = [_forcing_norm_sq(fo, which, kind, t) for t in res.times]
            assert np.array_equal(column, expected), name
            assert len(np.unique(column)) == len(column), name

    def test_one_mapping_serves_two_steady_forcings(self, grid16):
        fo1 = make_forcing(grid16, "steady", 0.01, 0.002, mode_hi=4, seed=2)
        fo2 = make_forcing(grid16, "steady", 0.04, 0.01, mode_hi=5, seed=3)
        state = random_state(grid16, 4, 0.1, 0.05)
        observers = standard_observers()
        for fo in (fo1, fo2, fo1, fo2):
            for name, (which, kind) in _FORCING_OBSERVERS.items():
                value = observers[name](state, fo)
                assert value == _forcing_norm_sq(fo, which, kind, state.t), name
        assert observers["f_l2_sq"](state, fo1) != observers["f_l2_sq"](state, fo2)

    def test_steady_forcing_norms_evaluated_once(self, grid16, monkeypatch):
        # each of the four forcing norms evaluates the forcing once, over
        # the 11 records: f twice (L2, Hminus1), g twice
        fo = make_forcing(grid16, "steady", 0.01, 0.002, mode_hi=4, seed=2)
        calls = []
        for which in ("f", "g"):
            original = getattr(Forcing, f"{which}_hat")
            monkeypatch.setattr(Forcing, f"{which}_hat",
                                lambda self, t, which=which, original=original:
                                calls.append(which) or original(self, t))
        res = simulate(random_state(grid16, 4, 0.1, 0.05), Params(0.3, 0.1, 0.3), fo,
                       t_end=0.1, dt=0.01, stride=1)
        assert len(res.times) == 11
        assert sorted(calls) == sorted(which for which, _ in _FORCING_OBSERVERS.values())
        for name, (which, kind) in _FORCING_OBSERVERS.items():
            assert np.all(res.series[name] == _forcing_norm_sq(fo, which, kind, 0.0)), name


def _series_bits(result):
    # uint64 views, so that equal-comparing values with other bits count
    return {name: column.view(np.uint64).tobytes() for name, column in result.series.items()}


class TestStandardBatches:
    """The default observer set is taken from the stepper's planes; its
    series must equal the per-State observers' bit for bit."""

    @staticmethod
    def _forcing(grid, kind):
        base = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
        if kind == "steady":
            return base
        gap = make_forcing(grid, "steady", 0.04, 0.01, mode_hi=4, seed=3)
        return forcing_with_decaying_gap(base, gap.f_at(0), gap.g_at(0), decay_rate=2.0)

    # 23 and 47 steps: multiples of no stride
    @pytest.mark.parametrize("n,steps", [(16, 47), (32, 47), (128, 23)])
    @pytest.mark.parametrize("stride", [1, 3, 10])
    @pytest.mark.parametrize("kind", ["steady", "decaying_gap"])
    def test_default_equals_per_state_observers(self, n, steps, stride, kind):
        grid = make_grid(n, 2 * np.pi)
        forcing = self._forcing(grid, kind)
        params = Params(0.15, 0.075, 0.15)
        initial = random_state(grid, 2, 0.15, 0.05)
        batched = simulate(initial, params, forcing, 0.01 * steps, 0.01, stride=stride)
        per_state = simulate(initial, params, forcing, 0.01 * steps, 0.01, stride=stride,
                             observers=standard_observers())
        assert list(batched.series) == list(standard_observers())
        assert _series_bits(batched) == _series_bits(per_state)
        assert batched.times.tobytes() == per_state.times.tobytes()
        assert len(batched.times) == 1 + -(-steps // stride)
        assert _coefficient_bits(batched.final_state) == _coefficient_bits(per_state.final_state)

    def test_mixed_mapping_keeps_the_per_state_contract(self, grid16):
        seen = []

        def energy(state, forcing):
            seen.append(state)
            return state.energy()

        forcing = self._forcing(grid16, "steady")
        params = Params(0.15, 0.075, 0.15)
        initial = random_state(grid16, 2, 0.15, 0.05)
        standard = standard_observers()
        mixed = {"u_h1_sq": standard["u_h1_sq"], "energy": energy,
                 "f_hm1_sq": standard["f_hm1_sq"], "omega_da_sq": standard["omega_da_sq"]}
        res = simulate(initial, params, forcing, 0.29, 0.01, stride=2, observers=mixed)
        default = simulate(initial, params, forcing, 0.29, 0.01, stride=2)
        assert list(res.series) == list(mixed)
        for name in ("u_h1_sq", "f_hm1_sq", "omega_da_sq"):
            assert res.series[name].view(np.uint64).tobytes() \
                == default.series[name].view(np.uint64).tobytes(), name
        # the custom observer got one validated, read-only State per record, in time order
        assert [s.t for s in seen] == list(res.times)
        assert all(isinstance(s, State) and not s.u.u1.coeffs.flags.writeable for s in seen)
        expected = default.series["u_l2_sq"] + default.series["omega_l2_sq"]
        assert np.array_equal(res.series["energy"], expected)

    def test_default_builds_no_state_per_record(self, grid16, monkeypatch):
        import micropolar.dynamics as dynamics

        states = []
        from_half = dynamics._from_half
        monkeypatch.setattr(dynamics, "_from_half",
                            lambda *a: states.append(a[-1]) or from_half(*a))
        forcing = self._forcing(grid16, "steady")
        res = simulate(random_state(grid16, 2, 0.15, 0.05), Params(0.15, 0.075, 0.15), forcing,
                       0.47, 0.01, stride=1)
        assert len(res.times) == 48
        assert states == [res.final_state.t]  # only the final state

    def test_one_record_batches_hold_one_record(self, grid64):
        # records are taken from the stepper's planes: above its bare steps
        # and final state, the run peaks at one record's power planes (the
        # power of (u1, u2, omega), its products with the L2, H1 and D(A)
        # weights and the weights: 12 band planes of floats) and 2 KiB per
        # record for the series, below one state's full spectra
        import tracemalloc

        params = Params(0.15, 0.075, 0.15)
        forcing = self._forcing(grid64, "steady")
        initial = random_state(grid64, 2, 0.15, 0.05)

        def peak(call):
            call()  # warm-up
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                call()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        def bare():
            stepper = _Stepper(grid64, params, forcing, 0.01)
            U, W = _to_half(initial)
            for i in range(8):
                U, W = stepper.advance(U, W, 0.01 * i)
            _from_half(grid64, U, W, 0.08)

        recorded = peak(lambda: simulate(initial, params, forcing, 0.08, 0.01, stride=1))
        bound = 12 * grid64.n * (grid64.kcut + 1) * 8 + (8 + 1) * 2048
        assert recorded - peak(bare) <= bound
        assert bound < 3 * grid64.n ** 2 * 16


def _validated_from_half(grid, U, W, t):
    """The record boundary through the validating constructors."""
    full = _full_from_half(grid, np.concatenate([U, W[None]]))
    return State(VectorField.from_coeffs(grid, full[0], full[1]), ScalarField(grid, full[2]), t)


def _coefficient_bits(state):
    # uint64 views, so that signed zeros count
    return [c.view(np.uint64).tobytes() for c in
            (state.u.u1.coeffs, state.u.u2.coeffs, state.omega.coeffs)]


class TestFromHalf:
    @pytest.mark.parametrize("n", [16, 32, 128])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_validating_construction(self, n, seed):
        grid = make_grid(n, 2 * np.pi)
        # kmax = n fills every mode: the whole half plane, Nyquist column included
        state = random_state(grid, seed, 1.0, 0.5, kmax=n)
        params = Params(0.1, 0.05, 0.1)
        forcing = make_forcing(grid, "steady", 0.05, 0.01, mode_hi=4, seed=seed)
        stepper = _Stepper(grid, params, forcing, dt=0.005)
        U, W = _to_half(state)
        for i in range(6):
            fast, checked = _from_half(grid, U, W, 0.1 * i), _validated_from_half(grid, U, W, 0.1 * i)
            assert _coefficient_bits(fast) == _coefficient_bits(checked)
            assert fast.t == checked.t
            U, W = stepper.advance(U, W, 0.005 * i)

    def test_batch_records_equal_validating_construction(self):
        # one record of a stepper's band planes, on either transform path:
        # the State gets the validating constructor's bits, and the norms
        # taken from the planes equal those of the State's observers bit
        # for bit
        from micropolar.dynamics import _state_sums

        for n in (16, 64, 128):
            grid = make_grid(n, 2 * np.pi)
            params = Params(0.15, 0.075, 0.15)
            forcing = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25,
                                   seed=1)
            stepper = _Stepper(grid, params, forcing, dt=0.01)
            U, W = _to_half(random_state(grid, 1, 0.5, 0.2))
            for i in range(10):
                U, W = stepper.advance(U, W, 0.01 * i)
            planes = stepper.work.out[:, 0]
            recorded = _from_half(grid, U, W, 0.1)
            assert _coefficient_bits(recorded) == _coefficient_bits(
                _validated_from_half(grid, U, W, 0.1)), n
            observed = [fn(recorded, Forcing.zero(grid)) for fn in standard_observers().values()]
            values = _state_sums(grid, planes)
            assert np.asarray(values).view(np.uint64).tobytes() \
                == np.asarray(observed[:len(values)]).view(np.uint64).tobytes(), n

    def test_record_outlives_the_stepper_buffers(self, grid16):
        params = Params(0.1, 0.05, 0.1)
        forcing = make_forcing(grid16, "steady", 0.05, 0.01, mode_hi=4, seed=2)
        stepper = _Stepper(grid16, params, forcing, dt=0.01)
        U, W = stepper.advance(*_to_half(random_state(grid16, 5, 0.5, 0.2)), 0.0)
        recorded = _from_half(grid16, U, W, 0.01)
        bits = _coefficient_bits(recorded)
        U2, W2 = stepper.advance(U, W, 0.01)
        assert U2 is U and W2 is W  # the stepper's own planes, overwritten in place
        assert _coefficient_bits(recorded) == bits
        assert not recorded.u.u1.coeffs.flags.writeable


def _relative(got, expected):
    return np.max(np.abs(np.asarray(got) - expected) / np.abs(expected))


class TestRecordNorms:
    """The record path's norms, summed over half or band planes, against
    the full spectrum's (``spectral.norm`` of the rebuilt ``State``),
    within the roundoff budget of 1e-15 relative."""

    BUDGET = 1e-15

    @staticmethod
    def _inputs(grid):
        # a band plane of a stepped state, and a whole half plane with its
        # Nyquist column (kmax = n fills every mode)
        params = Params(0.15, 0.075, 0.15)
        forcing = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
        stepper = _Stepper(grid, params, forcing, dt=0.01)
        U, W = _to_half(random_state(grid, 2, 0.15, 0.05))
        for i in range(20):
            U, W = stepper.advance(U, W, 0.01 * i)
        whole = random_state(grid, 3, 1.0, 0.5, kmax=grid.n)
        return [np.concatenate([U, W[None]]), _half_planes(whole)]

    @pytest.mark.parametrize("n", [16, 32, 128])
    def test_state_norms_match_full_spectra(self, n):
        from micropolar.dynamics import _state_sums

        grid = make_grid(n, 2 * np.pi)
        band, whole = self._inputs(grid)
        assert band.shape[-1] == grid.kcut + 1 and whole.shape[-1] == n // 2 + 1
        assert np.any(whole[..., n // 2] != 0)
        for planes in (band, whole):
            state = _from_half(grid, planes[:2], planes[2], 0.0)
            expected = [norm(field, kind) ** 2 for kind in ("L2", "H1", "DA")
                        for field in (state.u, state.omega)]
            assert _relative(_state_sums(grid, planes), expected) <= self.BUDGET

    @pytest.mark.parametrize("n", [16, 32, 128])
    def test_twin_energies_sum_to_the_total(self, n):
        from micropolar.spectral import _product_energies, mode_mask

        grid = make_grid(n, 2 * np.pi)
        mask_P = mode_mask(grid, 30)
        for planes in self._inputs(grid):
            state = _from_half(grid, planes[:2], planes[2], 0.0)
            total = norm(state.u) ** 2 + norm(state.omega) ** 2
            delta_P, delta_Q = _product_energies(grid, planes[:2], planes[2], mask_P, ~mask_P)
            assert 0 < delta_P < total and 0 < delta_Q < total
            assert _relative(delta_P + delta_Q, total) <= self.BUDGET
            h1 = norm(state.u, "H1") ** 2 + norm(state.omega, "H1") ** 2
            assert _relative(_product_energies(grid, planes[:2], planes[2], grid.lam), h1) \
                <= self.BUDGET


class TestTemporalOrder:
    def test_cn_ab2_is_second_order(self, grid16):
        # successive differences of the final state at t = 1 as dt halves:
        # CN/AB2 (Ascher-Ruuth-Wetton 1995) shrinks them fourfold
        import time

        start = time.perf_counter()
        params = Params(0.15, 0.075, 0.15)
        forcing = make_forcing(grid16, "two_scale", 0.5, 0.1, mode_lo=4, mode_hi=9, seed=5)
        initial = random_state(grid16, 31, 0.15, 0.05)
        finals = [simulate(initial, params, forcing, 1.0, 0.02 / 2 ** k, stride=10 ** 6).final_state
                  for k in range(5)]
        gaps = [math.sqrt(norm(a.u - b.u) ** 2 + norm(a.omega - b.omega) ** 2)
                for a, b in zip(finals, finals[1:])]
        orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
        assert len(orders) == 3 and min(orders) >= 1.9, orders
        assert time.perf_counter() - start < 5.0


class TestSpatialConvergence:
    def test_error_falls_spectrally_in_n(self):
        # The |k| <= 5 initial data and forcing of n = 16, embedded at
        # n = 16, 24, 32, 48 and 96 and run to t = 2 with one dt: the
        # relative error of the |k| <= 5 modes against n = 96 read 1.51e-3,
        # 1.26e-4, 7.93e-7 and 1.12e-10, and each bound below is 3x that.
        # Spectral convergence (Canuto et al., Spectral Methods, 2006): the
        # error falls faster than any power of n, so the apparent order
        # log(e_a / e_b) / log(n_b / n_a) grows (6.1, 17.6, 21.9).
        import time

        start = time.perf_counter()
        base = make_grid(16, 2 * np.pi)
        params = Params(0.02, 0.01, 0.02)
        forcing = make_forcing(base, "two_scale", 0.5, 0.1, mode_lo=4, mode_hi=9, seed=5)
        initial = random_state(base, 31, 0.15, 0.05, kmax=5)
        k = np.fft.fftfreq(16, 1 / 16).astype(int)

        def low_modes(n):
            grid = make_grid(n, 2 * np.pi)
            slots = np.ix_(k % n, k % n)

            def embed(c):
                out = np.zeros((n, n), dtype=np.complex128)
                out[slots] = c
                return out

            state = State(VectorField.from_coeffs(grid, embed(initial.u.u1.coeffs),
                                                  embed(initial.u.u2.coeffs)),
                          ScalarField(grid, embed(initial.omega.coeffs)))
            fo = Forcing(grid, np.stack([embed(c) for c in forcing.f_hat(0.0)]),
                         embed(forcing.g_hat(0.0)))
            final = simulate(state, params, fo, 2.0, 0.01, stride=10 ** 6).final_state
            kept = np.ix_(k[np.abs(k) <= 5] % n, k[np.abs(k) <= 5] % n)
            return np.stack([c.coeffs[kept] for c in (final.u.u1, final.u.u2, final.omega)])

        sizes = (16, 24, 32, 48)
        reference = low_modes(96)
        errors = [np.linalg.norm(low_modes(n) - reference) / np.linalg.norm(reference)
                  for n in sizes]
        assert all(e <= bound for e, bound in zip(errors, (4.5e-3, 3.8e-4, 2.4e-6, 3.4e-10))), \
            errors
        orders = [math.log(a / b) / math.log(nb / na)
                  for a, b, na, nb in zip(errors, errors[1:], sizes, sizes[1:])]
        assert orders == sorted(orders) and orders[0] > 4, orders
        assert time.perf_counter() - start < 3.0


class TestForcingProfiles:
    def _mode_energies(self, grid, field_f, field_g, count):
        """Per-entry energies in the real eigenmode basis."""
        area = grid.area
        out_f = np.zeros(count)
        out_g = np.zeros(count)
        for j in range(count):
            k1, k2 = (int(v) for v in grid.table_wavevectors[j])
            kc = (k1, k2) if (k1 > 0 or (k1 == 0 and k2 > 0)) else (-k1, -k2)
            is_cos = (k1, k2) != kc
            i, jj = kc[0] % grid.n, kc[1] % grid.n
            kn = np.hypot(*kc)
            pol = np.array([-kc[1], kc[0]]) / kn
            cf = field_f.u1.coeffs[i, jj] * pol[0] + field_f.u2.coeffs[i, jj] * pol[1]
            cg = field_g.coeffs[i, jj]
            picker = (lambda z: z.real) if is_cos else (lambda z: -z.imag)
            out_f[j] = 2 * area * picker(cf) ** 2
            out_g[j] = 2 * area * picker(cg) ** 2
        return out_f, out_g

    def test_two_scale(self, grid16):
        fo = make_forcing(grid16, "two_scale", magnitude_f2=2.0, mode_lo=2, mode_hi=7, seed=3)
        ef, _ = self._mode_energies(grid16, fo.f_at(0), fo.g_at(0), 10)
        assert ef[1] == pytest.approx(1.0, abs=1e-14)
        assert ef[6] == pytest.approx(1.0, abs=1e-14)
        assert np.sum(ef) == pytest.approx(2.0, rel=1e-14)

    def test_uniform_single_mode(self, grid16):
        fo = make_forcing(grid16, "uniform_N", magnitude_f2=3.0, mode_hi=1, seed=1)
        ef, _ = self._mode_energies(grid16, fo.f_at(0), fo.g_at(0), 4)
        assert ef[0] == pytest.approx(3.0, rel=1e-14)
        assert np.sum(ef[1:]) == 0

    def test_linear_increasing_golden(self, grid16):
        # 2 |f|^2 k / (N (N+1)) with |f|^2 = 12, N = 3 gives (2, 4, 6)
        fo = make_forcing(grid16, "linear_increasing", magnitude_f2=12.0, mode_hi=3, seed=5)
        ef, _ = self._mode_energies(grid16, fo.f_at(0), fo.g_at(0), 5)
        assert np.allclose(ef[:3], [2.0, 4.0, 6.0], rtol=1e-14)

    def test_linear_decreasing_exact(self, grid16):
        fo = make_forcing(grid16, "linear_decreasing", magnitude_f2=6.0, mode_hi=3, seed=5)
        ef, _ = self._mode_energies(grid16, fo.f_at(0), fo.g_at(0), 5)
        assert np.allclose(ef[:3], [3.0, 2.0, 1.0], rtol=1e-14)

    def test_profiles_exact_total_and_g(self, grid16):
        for profile in ("steady", "band", "uniform_N", "linear_increasing",
                        "linear_decreasing"):
            fo = make_forcing(grid16, profile, magnitude_f2=0.4, magnitude_g2=0.25,
                              mode_lo=1, mode_hi=6, seed=11)
            assert norm(fo.f_at(0)) ** 2 == pytest.approx(0.4, rel=1e-13)
            assert norm(fo.g_at(0)) ** 2 == pytest.approx(0.25, rel=1e-13)
            assert fo.f_at(0).is_divergence_free(1e-12)

    def test_invalid_profile_and_ranges(self, grid16):
        with pytest.raises(ValueError):
            make_forcing(grid16, "gaussian", 1.0)
        with pytest.raises(ValueError):
            make_forcing(grid16, "two_scale", 1.0, mode_lo=5, mode_hi=2)
        with pytest.raises(ValueError):
            make_forcing(grid16, "uniform_N", 1.0, mode_hi=10**6)
        with pytest.raises(ValueError):
            make_forcing(grid16, "uniform_N", -1.0, mode_hi=3)

    def test_zero_profile_checked_like_the_others(self):
        grid = make_grid(8, 2 * np.pi)
        fo = make_forcing(grid, "zero", 0.0, 0.0, mode_lo=1, mode_hi=1)
        assert norm(fo.f_at(0)) == 0 and norm(fo.g_at(0)) == 0
        with pytest.raises(ValueError, match="nonnegative"):
            make_forcing(grid, "zero", -1.0)
        with pytest.raises(ValueError, match="mode_lo"):
            make_forcing(grid, "zero", 0.0, mode_hi=10**6)
        with pytest.raises(ValueError, match="unknown forcing profile"):
            make_forcing(grid, "gaussian", 0.0)

    @pytest.mark.parametrize("f2,g2", [(float("nan"), 0.0), (float("inf"), 0.0),
                                       (0.1, float("nan")), (0.1, float("inf"))])
    def test_nonfinite_magnitudes_rejected(self, grid16, f2, g2):
        with pytest.raises(ValueError, match="finite"):
            make_forcing(grid16, "uniform_N", f2, g2, mode_hi=3)

    def test_support_outside_band_rejected(self, grid16):
        # entries near the table end exceed |k| = n//3
        with pytest.raises(ValueError, match="dealiased band"):
            make_forcing(grid16, "uniform_N", 1.0, mode_hi=grid16.num_modes)

    def test_support_check_uses_band_edge_n12(self):
        # at n=12 the dealiased band is |k_i| <= (n - 1) // 3 = 3, not n // 3 = 4
        grid = make_grid(12, 2 * np.pi)
        outside = np.max(np.abs(grid.table_wavevectors), axis=1) > 3
        first = int(np.argmax(outside))
        make_forcing(grid, "uniform_N", 1.0, mode_hi=first)
        with pytest.raises(ValueError, match="dealiased band"):
            make_forcing(grid, "uniform_N", 1.0, mode_hi=first + 1)

    @pytest.mark.parametrize("profile", ["two_scale", "band", "steady", "uniform_N", "zero"])
    def test_full_spectra_written_on_request(self, grid16, profile):
        # f_hat and g_hat write the full spectra anew, with the bits of the
        # half planes in their columns k2 <= n/2 and Hermitian elsewhere
        fo = make_forcing(grid16, profile, 0.01, 0.002, mode_lo=2, mode_hi=9, seed=4)
        full = np.concatenate([fo.f_hat(0.0), fo.g_hat(0.0)[None]])
        h = grid16.n // 2 + 1
        assert np.array_equal(full[..., :h].view(np.uint64), fo.half.view(np.uint64))
        assert np.array_equal(full, _full_from_half(grid16, fo.half))
        assert fo.f_hat(1.0) is not fo.f_hat(1.0) and not fo.half.flags.writeable

    def test_given_spectra_are_kept(self, grid16):
        # the half columns of the given spectra are kept bit for bit; the
        # full spectra are mirrored from them, equal to the given ones (the
        # signs of zero imaginary parts may differ)
        f = random_state(grid16, 3, 0.1, 0.05)
        fo = Forcing.from_fields(f.u, f.omega)
        h = grid16.n // 2 + 1
        given = np.concatenate([f.u.stacked(), f.omega.coeffs[None]])
        assert np.array_equal(fo.half.view(np.uint64), given[..., :h].view(np.uint64))
        mirrored = _full_from_half(grid16, fo.half)
        assert np.array_equal(fo.f_hat(0.0).view(np.uint64), mirrored[:2].view(np.uint64))
        assert np.array_equal(fo.g_hat(0.0).view(np.uint64), mirrored[2].view(np.uint64))
        assert np.array_equal(fo.f_hat(0.0), f.u.stacked())
        assert np.array_equal(fo.g_hat(0.0), f.omega.coeffs)

    def test_given_arrays_of_wrong_shape_rejected(self, grid16):
        f = random_state(grid16, 3, 0.1, 0.05)
        g = f.omega.coeffs
        with pytest.raises(FieldError, match="shapes"):
            Forcing(grid16, np.stack([g, g, g]), g)
        with pytest.raises(FieldError, match="shapes"):
            Forcing(grid16, f.u.stacked(), g[:, :9])

    def test_nonfinite_given_arrays_rejected(self, grid16):
        f = random_state(grid16, 3, 0.1, 0.05)
        g = f.omega.coeffs.copy()
        g[2, 3] = np.nan
        with pytest.raises(FieldError, match="finite"):
            Forcing(grid16, f.u.stacked(), g)

    def test_non_hermitian_given_arrays_rejected(self, grid16):
        f = random_state(grid16, 3, 0.1, 0.05)
        spectra = f.u.stacked()
        spectra[1, 2, 3] += 1e-3 * np.max(np.abs(spectra))
        with pytest.raises(FieldError, match="Hermitian"):
            Forcing(grid16, spectra, f.omega.coeffs)

    def test_given_arrays_recorded_as_their_fields(self, grid16):
        # arrays Hermitian to roundoff are kept as their exact Hermitian
        # part: the run integrates and records the same forcing
        rng = np.random.default_rng(5)
        f = random_state(grid16, 3, 0.1, 0.05)
        spectra = np.concatenate([f.u.stacked(), f.omega.coeffs[None]])
        spectra *= 1 + 1e-12 * rng.standard_normal(spectra.shape)
        fo = Forcing(grid16, spectra[:2], spectra[2])
        h = grid16.n // 2 + 1
        fields = np.concatenate([fo.f_at(0.0).stacked(), fo.g_at(0.0).coeffs[None]])
        assert np.array_equal(fo.half, fields[..., :h])
        res = simulate(random_state(grid16, 4, 0.1, 0.05), Params(0.3, 0.1, 0.3), fo,
                       t_end=0.02, dt=0.01)
        for name, (which, kind) in _FORCING_OBSERVERS.items():
            assert np.all(res.series[name] == _forcing_norm_sq(fo, which, kind, 0.0)), name

    def test_decaying_gap_forcing(self, grid16):
        base = make_forcing(grid16, "steady", 0.01, 0.0, mode_hi=4, seed=2)
        gap = make_forcing(grid16, "steady", 0.04, 0.0, mode_hi=4, seed=3)
        fo = forcing_with_decaying_gap(base, gap.f_at(0), gap.g_at(0), decay_rate=2.0)
        assert not fo.steady
        d0 = fo.f_at(0.0) - base.f_at(0.0)
        d1 = fo.f_at(1.0) - base.f_at(1.0)
        assert norm(d1) == pytest.approx(np.exp(-2.0) * norm(d0), rel=1e-12)


@pytest.mark.parametrize("energy_u,energy_omega", [
    (-1.0, 0.1), (0.1, -1.0), (float("nan"), 0.1), (0.1, float("inf"))])
def test_random_state_rejects_bad_energy(grid16, energy_u, energy_omega):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        random_state(grid16, 0, energy_u=energy_u, energy_omega=energy_omega)


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, grid16, tmp_path):
        p = Params(nu=0.1, nu_r=0.03, alpha=0.2)
        state = random_state(grid16, 12, 0.3, 0.1, t=1.75)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, state, p)
        loaded, p2 = read_checkpoint(path)
        assert p2 == p
        assert loaded.t == state.t
        assert np.array_equal(loaded.u.u1.coeffs, state.u.u1.coeffs)
        assert np.array_equal(loaded.u.u2.coeffs, state.u.u2.coeffs)
        assert np.array_equal(loaded.omega.coeffs, state.omega.coeffs)
        # writing the loaded state reproduces the file byte for byte
        path2 = tmp_path / "state2.ckpt"
        write_checkpoint(path2, loaded, p2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, grid16, tmp_path):
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, State.zero(grid16), Params(1.0, 0.5, 2.0))
        raw = path.read_bytes()
        assert raw[:4] == b"MPF1"
        assert int.from_bytes(raw[8:12], "little") == 16
        assert len(raw) == 4 + 4 + 4 + 6 * 8 + 3 * 16 * 16 * 16

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX" + b"\0" * 100)
        with pytest.raises(ValueError, match="magic"):
            read_checkpoint(path)

    def test_truncated(self, grid16, tmp_path):
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, State.zero(grid16), Params(1.0, 0.5, 2.0))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, grid16, tmp_path):
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, State.zero(grid16), Params(1.0, 0.5, 2.0))
        path.write_bytes(path.read_bytes() + b"\0" * 7)
        with pytest.raises(ValueError, match="trailing"):
            read_checkpoint(path)

    def test_oversized_header_rejected_before_allocating(self, grid16, tmp_path):
        # n = 2**20 would ask for 48 TiB; the payload size is checked first
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, State.zero(grid16), Params(1.0, 0.5, 2.0))
        raw = bytearray(path.read_bytes()[:4 + 4 + 4 + 6 * 8 + 64])
        raw[8:12] = (2**20).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    def test_non_finite_payload_rejected(self, grid16, tmp_path):
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, random_state(grid16, 3, 0.1, 0.1), Params(1.0, 0.5, 2.0))
        raw = bytearray(path.read_bytes())
        offset = 4 + 4 + 4 + 6 * 8 + 16 * (1 * 16 + 1)  # u1 coefficient (1, 1)
        raw[offset:offset + 8] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldError, match="finite"):
            read_checkpoint(path)

    def test_resumed_state_shares_the_configured_grid(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, random_state(make_grid(24, 3.0), 4, 0.1, 0.1), Params(1.0, 0.5, 2.0))
        grid = make_grid(24, 3.0)
        state, _ = read_checkpoint(path)
        assert state.grid is grid
        assert all(f.grid is grid for f in (state.u.u1, state.u.u2, state.omega))

    def test_non_hermitian_payload_rejected(self, grid16, tmp_path):
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, random_state(grid16, 3, 0.1, 0.1), Params(1.0, 0.5, 2.0))
        raw = bytearray(path.read_bytes())
        offset = 4 + 4 + 4 + 6 * 8 + 16 * (16 * 16 + 1 * 16 + 1)  # u2 coefficient (1, 1)
        raw[offset:offset + 8] = np.float64(1.0).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FieldError, match="Hermitian"):
            read_checkpoint(path)

    @pytest.mark.parametrize("n", [16, 32])
    def test_equals_validating_construction(self, n, tmp_path):
        # a payload Hermitian only to roundoff, with a nonzero mean, reads as
        # the field constructors would validate and symmetrize it
        grid = make_grid(n, 2 * np.pi)
        rng = np.random.default_rng(n)
        state = random_state(grid, n, 0.3, 0.1, kmax=n)
        blocks = np.stack([state.u.u1.coeffs, state.u.u2.coeffs, state.omega.coeffs])
        blocks *= 1 + 1e-12 * rng.standard_normal(blocks.shape)
        blocks[:, 0, 0] = 0.25
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, state, Params(1.0, 0.5, 2.0))
        header = path.read_bytes()[:4 + 4 + 4 + 6 * 8]
        path.write_bytes(header + blocks.astype("<c16").tobytes())
        loaded, _ = read_checkpoint(path)
        checked = State(VectorField.from_coeffs(grid, blocks[0], blocks[1]),
                        ScalarField(grid, blocks[2]), state.t)
        assert _coefficient_bits(loaded) == _coefficient_bits(checked)


class TestRandomState:
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("energies,kmax", [
        ((0.1, 0.05), 4), ((1.0, 0.5), 64), ((0.0, 0.05), 3), ((0.1, 0.0), 3), ((0.1, 0.05), 0.5)])
    def test_equals_validating_construction(self, n, energies, kmax):
        # signed zeros included: kmax = 0.5 leaves the band empty, so the
        # fields stay unscaled zeros
        grid = make_grid(n, 2 * np.pi)
        state = random_state(grid, n + 3, *energies, kmax=kmax)
        reference = random_state_by_fields(grid, n + 3, *energies, kmax=kmax)
        assert _coefficient_bits(state) == [c.view(np.uint64).tobytes() for c in reference]
        assert not any(c.flags.writeable for c in (state.u.u1.coeffs, state.omega.coeffs))


def _traced_peak(call) -> int:
    """Peak traced bytes of ``call()`` above the level before it; a first
    call outside the trace fills numpy's and Python's caches."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestSetupMemory:
    """
    The set-up builds a state's spectra once, in place: its traced peak
    stays within 3 states (a state is 3 n^2 complex) at n = 64.  The bound
    lies between this construction (2.2 states for a random state, 1.7 for
    a checkpoint) and one through full-size draws, masks and a validated
    copy per field (4.2 and 6.2, a checkpoint's own grid included).
    """

    N = 64
    STATE_BYTES = 3 * N * N * 16

    def test_random_state(self):
        grid = make_grid(self.N, 2 * np.pi)
        peak = _traced_peak(lambda: random_state(grid, 5, 0.1, 0.05))
        assert peak <= 3 * self.STATE_BYTES

    @pytest.mark.parametrize("profile", ["two_scale", "steady", "zero"])
    def test_make_forcing_holds_its_half_planes(self, profile):
        # the forcing keeps the half planes of (f1, f2, g) and builds no
        # full spectrum on the way; 8 KiB cover its seeded generator, mode
        # data and objects
        grid = make_grid(self.N, 2 * np.pi)
        kept = []
        peak = _traced_peak(lambda: kept.append(
            make_forcing(grid, profile, 0.01, 0.002, mode_lo=4, mode_hi=9, seed=5)))
        half = 3 * self.N * (self.N // 2 + 1) * 16
        assert kept[0].half.nbytes == half
        assert peak <= half + 8192 < self.STATE_BYTES

    def test_read_checkpoint(self, tmp_path):
        grid = make_grid(self.N, 2 * np.pi)
        path = tmp_path / "s.ckpt"
        write_checkpoint(path, random_state(grid, 5, 0.1, 0.05), Params(1.0, 0.5, 2.0))
        peak = _traced_peak(lambda: read_checkpoint(path))
        assert peak <= 3 * self.STATE_BYTES
