"""
Solver tests: right-hand side structure, IMEX stepping against the exact
heat-decay solution, discrete energy decay, forcing profile exactness and
the checkpoint format.
"""

import numpy as np
import pytest

from micropolar.dynamics import (
    CflViolationError,
    Forcing,
    NumericsError,
    Params,
    State,
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
from micropolar.spectral import FieldError, ScalarField, VectorField, make_grid, norm


class TestParams:
    def test_navier_stokes_reduction_allowed(self):
        Params(nu=1.0, nu_r=0.0, alpha=1.0)

    @pytest.mark.parametrize("nu,nu_r,alpha", [(0.0, 0.0, 1.0), (1.0, -0.1, 1.0), (1.0, 0.0, 0.0)])
    def test_invalid_params(self, nu, nu_r, alpha):
        with pytest.raises(ValueError):
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
        fo = make_forcing(grid16, "steady", 0.01, 0.002, mode_hi=4, seed=2)
        calls = []
        for name in ("f_at", "g_at"):
            original = getattr(fo, name)
            monkeypatch.setattr(fo, name, lambda t, _o=original, _n=name: calls.append(_n) or _o(t))
        res = simulate(random_state(grid16, 4, 0.1, 0.05), Params(0.3, 0.1, 0.3), fo,
                       t_end=0.1, dt=0.01, stride=1)
        assert len(res.times) == 11
        assert sorted(calls) == ["f_at", "f_at", "g_at", "g_at"]
        for name, (which, kind) in _FORCING_OBSERVERS.items():
            assert np.all(res.series[name] == _forcing_norm_sq(fo, which, kind, 0.0)), name


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

    def test_decaying_gap_forcing(self, grid16):
        base = make_forcing(grid16, "steady", 0.01, 0.0, mode_hi=4, seed=2)
        gap = make_forcing(grid16, "steady", 0.04, 0.0, mode_hi=4, seed=3)
        fo = forcing_with_decaying_gap(base, gap.f_at(0), gap.g_at(0), decay_rate=2.0)
        assert not fo.steady
        d0 = fo.f_at(0.0) - base.f_at(0.0)
        d1 = fo.f_at(1.0) - base.f_at(1.0)
        assert norm(d1) == pytest.approx(np.exp(-2.0) * norm(d0), rel=1e-12)


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
