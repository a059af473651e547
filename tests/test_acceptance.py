"""
Acceptance suite: one test per criterion, each printing a PASS line when
its assertions hold.  Heavy runs (the n=64 reference scenario and twin
experiments) are shared through session fixtures.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
import pytest

from micropolar import cli
from micropolar.assimilation import (
    SyncConfig,
    check_gronwall_conditions,
    default_nudging_gain,
    fit_decay_rate,
    run_mode_sync,
    run_node_sync,
)
from micropolar.dynamics import (
    Forcing,
    Params,
    State,
    make_forcing,
    random_state,
    rhs,
    shear_state,
    simulate,
)
from micropolar.estimates import (
    Constants,
    attractor_bound,
    compute_constants,
    force_strength,
    modes_bound,
    nodes_bound,
    profile_dual_strength,
    verify_absorbing_ball,
    verify_energy_inequality,
)
from micropolar.lyapunov import lyapunov_spectrum
from micropolar.spectral import (
    ScalarField,
    VectorField,
    apply_A,
    apply_A1,
    inner,
    make_grid,
    make_node_set,
    norm,
    rot_scalar,
    rot_vec,
    trilinear_b,
    trilinear_b1,
)
from oracles import random_fields, trilinear_b1_direct, trilinear_b_direct


def report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# Shared n=64 scenario: subcritical steady two-scale forcing
# ---------------------------------------------------------------------------

SCEN_PARAMS = Params(nu=0.15, nu_r=0.075, alpha=0.15)
SCEN_DT = 0.01


@pytest.fixture(scope="session")
def scenario64(grid64):
    forcing = make_forcing(grid64, "two_scale", magnitude_f2=0.008, magnitude_g2=0.002,
                           mode_lo=9, mode_hi=25, seed=5)
    constants = compute_constants(SCEN_PARAMS, grid64)
    strength = force_strength(forcing, grid64)
    spun = simulate(random_state(grid64, 11, 0.15, 0.05), SCEN_PARAMS, forcing,
                    t_end=6.0, dt=SCEN_DT, stride=10**9).final_state
    reference_traj = simulate(spun, SCEN_PARAMS, forcing, t_end=12.0, dt=SCEN_DT,
                              stride=10)
    m_star = modes_bound(constants, strength.F_tilde_minus1, "exact_eigenvalues", grid64)
    return {
        "grid": grid64, "forcing": forcing, "constants": constants,
        "strength": strength, "spun": spun, "traj": reference_traj, "m_star": m_star,
    }


@pytest.fixture(scope="session")
def twin64(scenario64, grid64):
    pert = random_state(grid64, 23, 0.05, 0.02)
    perturbed = State(pert.u, pert.omega, scenario64["spun"].t)
    def config(**kw):
        base = dict(params=SCEN_PARAMS, reference=scenario64["spun"], perturbed=perturbed,
                    forcing1=scenario64["forcing"], forcing2=scenario64["forcing"],
                    t_end=12.0, dt=SCEN_DT, stride=10)
        base.update(kw)
        return SyncConfig(**base)
    return config


@pytest.fixture(scope="session")
def spun32(grid32):
    params = Params(nu=0.3, nu_r=0.1, alpha=0.3)
    forcing = make_forcing(grid32, "steady", magnitude_f2=0.01, magnitude_g2=0.002,
                           mode_hi=6, seed=7)
    state = simulate(random_state(grid32, 21, 0.08, 0.03), params, forcing,
                     t_end=5.0, dt=0.01, stride=10**9).final_state
    constants = compute_constants(params, grid32)
    return {"params": params, "forcing": forcing, "state": state, "constants": constants}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_orthogonality_suite(grid32):
    for seed in range(100):
        u, om = random_fields(grid32, seed)
        v, _ = random_fields(grid32, seed + 1000)
        assert abs(trilinear_b(u, v, v)) <= 1e-10 * norm(u, "H1") * norm(v, "H1") ** 2
        assert abs(trilinear_b(u, u, apply_A(u))) <= 1e-10 * norm(u, "H1") ** 2 * norm(u, "DA")
        assert abs(trilinear_b1(u, om, om)) <= 1e-10 * norm(u, "H1") * norm(om, "H1") ** 2
    # constructed non-orthogonality witness, cross-checked against the
    # direct convolution sum on the small grid
    g8 = make_grid(8, 2 * np.pi)
    u8, om8 = random_fields(g8, 3)
    witness = trilinear_b1(u8, om8, apply_A1(om8))
    assert abs(witness) > 1e-6
    assert witness == pytest.approx(trilinear_b1_direct(u8, om8, apply_A1(om8)), rel=1e-10)
    report(1, "orthogonality suite (100 fields + b1 witness)")


def test_criterion_02_rot_identities(grid32):
    for seed in range(100):
        u, om = random_fields(grid32, seed + 2000)
        lhs = inner(rot_vec(u), om)
        rhs_ = inner(u, rot_scalar(om))
        scale = max(abs(lhs), abs(rhs_), norm(u, "H1") * norm(om))
        assert abs(lhs - rhs_) <= 1e-12 * scale
        assert abs(norm(rot_scalar(om)) ** 2 - norm(om, "H1") ** 2) <= 1e-12 * norm(om, "H1") ** 2
        assert abs(norm(rot_vec(u)) ** 2 - norm(u, "H1") ** 2) <= 1e-12 * norm(u, "H1") ** 2
    report(2, "rot identities on 100 random fields")


def test_criterion_03_trilinear_oracle(grid8):
    for seed in range(50):
        u, om = random_fields(grid8, seed)
        v, _ = random_fields(grid8, seed + 100)
        w, psi = random_fields(grid8, seed + 200)
        b_ps = trilinear_b(u, v, w)
        b_direct = trilinear_b_direct(u, v, w)
        scale_b = max(abs(b_direct), norm(u) * norm(v, "H1") * norm(w))
        assert abs(b_ps - b_direct) <= 1e-12 * scale_b
        b1_ps = trilinear_b1(u, om, psi)
        b1_direct = trilinear_b1_direct(u, om, psi)
        scale_b1 = max(abs(b1_direct), norm(u) * norm(om, "H1") * norm(psi))
        assert abs(b1_ps - b1_direct) <= 1e-12 * scale_b1
    report(3, "pseudo-spectral forms match O(n^4) convolution (50 triples)")


def test_criterion_04_exact_decay(grid16):
    nu = 1.0
    res = simulate(shear_state(grid16, 1.0), Params(nu, 0.0, 1.0), Forcing.zero(grid16),
                   t_end=1.0, dt=1e-3, stride=1000)
    measured = np.sqrt(res.series["u_l2_sq"][-1] / res.series["u_l2_sq"][0])
    exact = math.exp(-nu * grid16.lambda1)
    assert abs(measured - exact) / exact < 1e-4
    report(4, "single-shear decay matches exp(-nu lambda1 t) at 1e-4")


def test_criterion_05_energy_inequality_matrix():
    params = Params(nu=0.2, nu_r=0.1, alpha=0.2)
    for n in (32, 64):
        grid = make_grid(n, 2 * np.pi)
        cst = compute_constants(params, grid)
        for profile in ("zero", "steady", "uniform_N"):
            forcing = (Forcing.zero(grid) if profile == "zero"
                       else make_forcing(grid, profile, 0.008, 0.002, mode_hi=6, seed=4))
            traj = simulate(random_state(grid, 13, 0.2, 0.1), params, forcing,
                            t_end=10.0, dt=0.01, stride=10)
            checked = verify_energy_inequality(traj, cst, slack=0.05)
            assert not checked.violated, (n, profile)
            if profile == "zero":
                E = traj.series["u_l2_sq"] + traj.series["omega_l2_sq"]
                rate, _ = fit_decay_rate(traj.times, E, transient_fraction=0.1)
                assert -rate >= cst.k2 * 0.95
    report(5, "integrated energy inequality over 3 profiles x 2 resolutions")


def test_criterion_06_absorbing_ball(grid64):
    started = time.monotonic()
    params = Params(nu=0.1, nu_r=0.05, alpha=0.1)
    forcing = make_forcing(grid64, "steady", 0.008, 0.002, mode_hi=12, seed=6)
    cst = compute_constants(params, grid64)
    strength = force_strength(forcing, grid64)
    # start outside the ball so entry is nontrivial
    traj = simulate(random_state(grid64, 17, 3.0, 1.0), params, forcing,
                    t_end=25.0, dt=0.01, stride=10)
    ball = verify_absorbing_ball(traj, cst, strength, slack=0.05)
    elapsed = time.monotonic() - started
    E0 = traj.series["u_l2_sq"][0] + traj.series["omega_l2_sq"][0]
    assert E0 > ball.radius_sq * 1.05
    assert ball.entered_at is not None and ball.remained and not ball.violated
    assert elapsed < 120.0
    report(6, f"absorbing ball entered at t={ball.entered_at:.2f}, kept ({elapsed:.0f}s)")


def test_criterion_07_bound_calculators():
    unit_modes = Constants(nu=1.0, nu_r=1.0, alpha=1.0, lambda1=1.0, c1=1.0, d=1.0)
    # hand evaluation: 16 nu_r^2/(d l1 a k1) + 8 c1^2/(d l1 k3 k1^3) F^2
    #                = 16 + 8 = 24 at unit constants
    assert modes_bound(unit_modes, 1.0, "closed_form") == 24

    unit = Constants(nu=1.0, nu_r=0.0, alpha=1.0, lambda1=1.0, c1=1.0)
    # hand evaluation of the sandwich: 2 C0 (k1^3 k2)^(-1/2) G = 2, so N = 2
    assert attractor_bound(unit, 1.0, 0.0) == 2
    # hand evaluation of the nodes bound at unit constants, nu_r = 0, F = 1:
    #   chat1 = 5, chat2 = 0, chat3 = 8
    #   braces = 0 + (1 + 1)(5 + 80 e^8) + 80 e^8 = 10 + 240 e^8 = 715439.91689...
    #   ceil -> 715440 -> next perfect square 846^2 = 715716
    hand = 10 + 240 * math.exp(8)
    assert math.ceil(hand) == 715440
    assert nodes_bound(unit, 1.0) == 846**2 == 715716
    assert nodes_bound(unit, 0.0) == 1

    for F_grid, nur_grid in ((np.linspace(0, 2, 10), None), (None, np.linspace(0, 1, 10))):
        if F_grid is not None:
            modes_scan = [modes_bound(unit_modes, F, "closed_form") for F in F_grid]
            nodes_scan = [nodes_bound(unit, F) for F in np.linspace(0, 1, 10)]
            attr_scan = [attractor_bound(unit, F, 0.0) for F in F_grid]
        else:
            modes_scan = [modes_bound(
                Constants(nu=1.0, nu_r=nr, alpha=1.0, lambda1=1.0, c1=1.0, d=1.0),
                0.5, "closed_form") for nr in nur_grid]
            nodes_scan = [nodes_bound(
                Constants(nu=1.0, nu_r=nr, alpha=1.0, lambda1=1.0, c1=1.0), 0.5)
                for nr in nur_grid]
            attr_scan = [0]
        for scan in (modes_scan, nodes_scan, attr_scan):
            assert all(a <= b for a, b in zip(scan, scan[1:]))
    report(7, "golden bound values (24 / 2 / 715716) and monotone scans")


def test_criterion_08_profile_dual_strengths(grid32):
    total_f2, total_g2 = 0.3, 0.1
    F2 = total_f2 + total_g2
    for profile in ("two_scale", "band", "uniform_N", "linear_increasing",
                    "linear_decreasing"):
        lo, hi = (3, 11) if profile in ("two_scale", "band") else (1, 9)
        fo = make_forcing(grid32, profile, total_f2, total_g2, mode_lo=lo, mode_hi=hi,
                          seed=19)
        measured = force_strength(fo, grid32).F_tilde_minus1 ** 2
        predicted = profile_dual_strength(profile, math.sqrt(F2), grid32, lo, hi)
        if profile == "band":
            assert predicted[0] * (1 - 1e-12) <= measured <= predicted[1] * (1 + 1e-12)
        else:
            assert measured == pytest.approx(predicted, rel=1e-10)
    report(8, "profile dual strengths match closed forms (bracket for band)")


def test_criterion_09_determining_modes(scenario64, twin64):
    started = time.monotonic()
    m_star = scenario64["m_star"]
    synced = run_mode_sync(twin64(), m_star)
    free = run_mode_sync(twin64(), 0)
    elapsed = time.monotonic() - started
    assert np.all(synced.series["delta_P"] == 0.0)
    assert synced.min_relative() < 1e-10
    assert not free.converged
    assert free.min_relative() > 1e-8
    assert elapsed < 300.0
    report(9, f"mode sync at m*={m_star} converged, m=0 did not ({elapsed:.0f}s)")


def test_criterion_10_determining_nodes(scenario64, twin64, grid64):
    constants = scenario64["constants"]
    flags = []
    mu_default = default_nudging_gain(constants, grid64.n**2 // 4)
    for count in (grid64.n**2 // 4, grid64.n**2 // 16, grid64.n**2 // 64):
        nodes = make_node_set(grid64, count=count)
        rep = run_node_sync(twin64(t_end=8.0, dt=0.005), nodes, mu_default)
        flags.append(rep.converged)
    assert flags[0]
    # reducing N with mu fixed never turns a non-convergent setup convergent
    for denser, coarser in zip(flags, flags[1:]):
        assert denser or not coarser
    report(10, f"node sync N-ladder flags {flags} monotone, densest converged")


def test_criterion_11_gronwall_hypotheses(scenario64, grid64):
    rep = check_gronwall_conditions(scenario64["traj"], scenario64["constants"],
                                    scenario64["m_star"], grid64)
    assert rep.l1_holds and rep.l2_holds
    assert rep.liminf_proxy > 0
    report(11, f"Gronwall (l1) positive on all windows (liminf {rep.liminf_proxy:.3g})")


def test_criterion_12_tangent_consistency(grid32, spun32):
    params, forcing = spun32["params"], spun32["forcing"]
    base = spun32["state"]
    from micropolar.lyapunov import tangent_rhs

    V = random_state(grid32, 31, 1.0, 1.0)
    dV, dZ = tangent_rhs(base, (V.u, V.omega), params)
    du0, dw0 = rhs(base, params, forcing)
    errors = []
    for eps in (1e-3, 1e-4, 1e-5):
        bumped = State(
            VectorField.from_coeffs(grid32, base.u.u1.coeffs + eps * V.u.u1.coeffs,
                                    base.u.u2.coeffs + eps * V.u.u2.coeffs),
            ScalarField(grid32, base.omega.coeffs + eps * V.omega.coeffs), base.t)
        du, dw = rhs(bumped, params, forcing)
        err = math.sqrt(
            norm(VectorField.from_coeffs(
                grid32,
                (du.u1.coeffs - du0.u1.coeffs) / eps - dV.u1.coeffs,
                (du.u2.coeffs - du0.u2.coeffs) / eps - dV.u2.coeffs)) ** 2
            + norm(ScalarField(grid32, (dw.coeffs - dw0.coeffs) / eps - dZ.coeffs)) ** 2)
        errors.append(err)
    assert errors[0] / errors[1] == pytest.approx(10.0, rel=0.05)
    assert errors[1] / errors[2] == pytest.approx(10.0, rel=0.05)

    rep = lyapunov_spectrum(base, params, forcing, count=4, t_span=20.0, dt=0.01,
                            seed=5, constants=spun32["constants"])
    sum_exp = rep.partial_sums[-1]
    trace_avg = rep.trace.running_average[-1]
    assert sum_exp == pytest.approx(trace_avg, rel=0.02)
    report(12, f"FD linear in eps; exponent sum {sum_exp:.4f} = trace avg "
               f"{trace_avg:.4f} within 2%")


def test_criterion_13_trace_and_dimension(grid32, spun32):
    params, forcing, constants = spun32["params"], spun32["forcing"], spun32["constants"]
    rep = lyapunov_spectrum(spun32["state"], params, forcing, count=8, t_span=25.0,
                            dt=0.01, seed=6, constants=constants)
    tr = rep.trace
    k1 = constants.k1
    # every sampled trace obeys the displayed bound
    bound = -k1 * tr.sum_h1_sq + math.sqrt(2.0) * tr.rho_l2 * tr.base_h1
    assert np.all(tr.trace <= bound + 1e-9 * np.abs(bound))
    # running average against -kappa1 N^2 + kappa2 with the fitted constant
    q_bound = -rep.kappa1 * 8**2 + rep.kappa2
    tail = tr.running_average[len(tr.running_average) // 2:]
    assert np.all(tail <= q_bound)
    # Kaplan-Yorke against twice the volume-element integer
    assert rep.kaplan_yorke is not None
    assert rep.kaplan_yorke <= rep.bound_2N
    # decaying flow: all exponents at least as negative as the energy rate
    decay = lyapunov_spectrum(random_state(grid32, 41, 0.05, 0.02),
                              Params(nu=0.5, nu_r=0.1, alpha=0.5),
                              Forcing.zero(grid32), count=4, t_span=8.0, dt=0.01, seed=7)
    k2 = 0.5 * grid32.lambda1
    assert np.all(decay.exponents <= -k2 * 0.95)
    report(13, f"trace bounds hold; KY {rep.kaplan_yorke:.3f} <= 2N={rep.bound_2N}; "
               f"unforced exponents below -k2")


def test_criterion_14_navier_stokes_reduction(grid16, grid32):
    params = Params(nu=0.4, nu_r=0.0, alpha=0.6)
    forcing = make_forcing(grid16, "steady", 0.004, 0.002, mode_hi=5, seed=9)
    u0 = random_state(grid16, 51, 0.1, 0.0).u
    om_a = random_state(grid16, 52, 0.0, 0.08).omega
    om_b = random_state(grid16, 53, 0.0, 0.3).omega

    from micropolar.dynamics import _Stepper
    from micropolar.spectral import _full_from_half
    sa = _Stepper(grid16, params, forcing, dt=1e-3)
    sb = _Stepper(grid16, params, forcing, dt=1e-3)
    half = grid16.n // 2 + 1
    Ua, Wa = np.stack([u0.u1.coeffs, u0.u2.coeffs])[..., :half], om_a.coeffs[:, :half].copy()
    Ub, Wb = Ua.copy(), om_b.coeffs[:, :half].copy()
    worst = 0.0
    worst_div = 0.0
    for i in range(10_000):
        t = i * 1e-3
        Ua, Wa = sa.advance(Ua, Wa, t)
        Ub, Wb = sb.advance(Ub, Wb, t)
        if i % 100 == 0 or i == 9_999:
            scale = max(float(np.max(np.abs(Ua))), 1e-300)
            worst = max(worst, float(np.max(np.abs(Ua - Ub))) / scale)
            full_a = _full_from_half(grid16, Ua)
            div = VectorField.from_coeffs(grid16, full_a[0], full_a[1]).max_divergence()
            worst_div = max(worst_div, div)
    assert worst <= 1e-12
    assert worst_div <= 1e-12

    # velocity-block exponents agree with a pure Navier-Stokes run
    params32 = Params(nu=0.35, nu_r=0.0, alpha=0.5)
    f32 = make_forcing(grid32, "steady", 0.006, 0.003, mode_hi=6, seed=10)
    base_u = random_state(grid32, 61, 0.08, 0.0).u
    with_om = State(base_u, random_state(grid32, 62, 0.0, 0.1).omega, 0.0)
    without = State(base_u, ScalarField.zero(grid32), 0.0)
    ns_forcing = make_forcing(grid32, "steady", 0.006, 0.0, mode_hi=6, seed=10)
    rep_a = lyapunov_spectrum(with_om, params32, f32, count=3, t_span=10.0, dt=0.01,
                              seed=12, velocity_only=True)
    rep_b = lyapunov_spectrum(without, params32, ns_forcing, count=3, t_span=10.0,
                              dt=0.01, seed=12, velocity_only=True)
    scale = np.max(np.abs(rep_b.exponents))
    assert np.max(np.abs(rep_a.exponents - rep_b.exponents)) <= 0.01 * scale
    report(14, f"nu_r=0 reduction: u-paths identical (worst {worst:.2e}), "
               f"velocity exponents match NS run")


def test_criterion_15_cli_determinism(tmp_path, capsys):
    cfg = {
        "grid": {"n": 16, "L": 6.283185307179586},
        "params": {"nu": 0.3, "nu_r": 0.1, "alpha": 0.3},
        "forcing": {"profile": "steady", "magnitude_f2": 0.01, "magnitude_g2": 0.002,
                    "mode_hi": 5, "seed": 3},
        "initial": {"seed": 11, "energy_u": 0.1, "energy_omega": 0.05},
        "integrator": {"dt": 0.01, "t_end": 2.0, "stride": 10},
        "experiment": {"count": 2, "m": 6, "num_nodes": 16, "spinup": 0.5,
                       "perturb_seed": 7},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    def compare_dirs(a, b):
        files_a = sorted(p.name for p in a.iterdir())
        assert files_a == sorted(p.name for p in b.iterdir())
        for name in files_a:
            fa, fb = (a / name).read_bytes(), (b / name).read_bytes()
            if name.endswith(".json"):
                da, db = json.loads(fa), json.loads(fb)
                da.pop("timestamp", None)
                db.pop("timestamp", None)
                assert da == db, name
            else:
                assert fa == fb, name

    for command in ("simulate", "verify-estimates", "bounds", "sync-modes",
                    "sync-nodes", "lyapunov"):
        out_a, out_b = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
        for out in (out_a, out_b):
            code = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, command
        compare_dirs(out_a, out_b)

    ckpt = tmp_path / "simulate-a" / "final.ckpt"
    assert cli.main(["checkpoint-info", str(ckpt)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["checkpoint-info", str(ckpt)]) == 0
    assert capsys.readouterr().out == first
    report(15, "all subcommands byte-identical across repeated runs")
