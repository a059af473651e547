"""
Batch experiment runner.

Subcommands: simulate, verify-estimates, bounds, sync-modes, sync-nodes,
lyapunov, checkpoint-info.  Every run is driven by a JSON config; outputs
(CSV series with 17-significant-digit numerics, JSON summaries) embed the
sha256 hash of the canonicalized config and are byte-identical across
repeated runs apart from the summary timestamp.

Exit codes: 0 success, 2 config error, 3 numerical failure (NaN or CFL),
4 verification violation under --strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from micropolar import assimilation, estimates, lyapunov, spectral
from micropolar.dynamics import (
    CflViolationError,
    Forcing,
    NumericsError,
    Params,
    State,
    _whole_steps,
    make_forcing,
    random_state,
    read_checkpoint,
    simulate,
    write_checkpoint,
)
from micropolar.estimates import compute_constants, force_strength
from micropolar.spectral import Grid, make_grid, make_node_set

__all__ = ["main", "ConfigError", "config_hash"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3
EXIT_VIOLATION = 4


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def _expect(mapping: dict, key: str, types, where: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"missing required field {where}.{key}")
        return default
    value = mapping[key]
    if not isinstance(value, types):
        raise ConfigError(f"field {where}.{key} has wrong type {type(value).__name__}")
    return value


def _section(config: dict, name: str, keys: tuple[str, ...], required: bool = False) -> dict:
    """A fixed config section; a key outside ``keys`` (a typo) is an error."""
    section = _expect(config, name, dict, "", default={}, required=required)
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown field {name}.{key}; expected one of {', '.join(keys)}")
    return section


def _steps(span: float, step: float, where: str) -> int:
    """Whole number of steps in a configured span; anything else is a config error."""
    try:
        return _whole_steps(span, step)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def build_grid(config: dict) -> Grid:
    gcfg = _section(config, "grid", ("n", "L"), required=True)
    n = _expect(gcfg, "n", int, "grid", required=True)
    L = _expect(gcfg, "L", (int, float), "grid", default=2.0 * math.pi)
    try:
        return make_grid(n, float(L))
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_params(config: dict) -> Params:
    pcfg = _section(config, "params", ("nu", "nu_r", "alpha"), required=True)
    try:
        return Params(
            nu=float(_expect(pcfg, "nu", (int, float), "params", required=True)),
            nu_r=float(_expect(pcfg, "nu_r", (int, float), "params", default=0.0)),
            alpha=float(_expect(pcfg, "alpha", (int, float), "params", required=True)),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_forcing(config: dict, grid: Grid) -> Forcing:
    fcfg = _section(config, "forcing", ("profile", "magnitude_f2", "magnitude_g2",
                                        "mode_lo", "mode_hi", "seed"))
    profile = _expect(fcfg, "profile", str, "forcing", default="zero")
    if profile == "zero":
        return Forcing.zero(grid)
    try:
        return make_forcing(
            grid, profile,
            magnitude_f2=float(_expect(fcfg, "magnitude_f2", (int, float), "forcing", default=0.0)),
            magnitude_g2=float(_expect(fcfg, "magnitude_g2", (int, float), "forcing", default=0.0)),
            mode_lo=_expect(fcfg, "mode_lo", int, "forcing", default=1),
            mode_hi=_expect(fcfg, "mode_hi", int, "forcing", default=1),
            seed=_expect(fcfg, "seed", int, "forcing", default=0),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_initial(config: dict, grid: Grid) -> State:
    icfg = _section(config, "initial", ("checkpoint", "zero", "seed", "energy_u",
                                        "energy_omega", "kmax"))
    if "checkpoint" in icfg:
        # a path string only: open() would take an integer as a file descriptor
        path = _expect(icfg, "checkpoint", str, "initial")
        try:
            state, _ = read_checkpoint(path)
        except (OSError, ValueError) as err:
            raise ConfigError(f"cannot read checkpoint {path}: {err}") from err
        if state.grid != grid:
            raise ConfigError("checkpoint grid does not match the configured grid")
        return state
    if _expect(icfg, "zero", bool, "initial", default=False):
        return State.zero(grid)
    return random_state(
        grid,
        seed=_expect(icfg, "seed", int, "initial", default=0),
        energy_u=float(_expect(icfg, "energy_u", (int, float), "initial", default=0.1)),
        energy_omega=float(_expect(icfg, "energy_omega", (int, float), "initial", default=0.05)),
        kmax=_expect(icfg, "kmax", int, "initial", default=4),
    )


def build_constants(config: dict, params: Params, grid: Grid):
    names = ("c1", "C", "C0", "c", "d", "r")
    ccfg = _section(config, "constants", names)
    kwargs = {}
    for name in names:
        if name in ccfg and ccfg[name] is not None:
            value = ccfg[name]
            if not isinstance(value, (int, float)):
                raise ConfigError(f"constants.{name} must be numeric")
            kwargs[name] = float(value)
    try:
        return compute_constants(params, grid, **kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def build_integrator(config: dict) -> dict:
    icfg = _section(config, "integrator", ("dt", "t_end", "stride"), required=True)
    dt = float(_expect(icfg, "dt", (int, float), "integrator", required=True))
    t_end = float(_expect(icfg, "t_end", (int, float), "integrator", required=True))
    stride = _expect(icfg, "stride", int, "integrator", default=10)
    if dt <= 0 or t_end < 0 or stride < 1:
        raise ConfigError("integrator needs dt > 0, t_end >= 0, stride >= 1")
    _steps(t_end, dt, "integrator.t_end")
    return {"dt": dt, "t_end": t_end, "stride": stride}


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(path: Path, header: list[str], columns: list[np.ndarray], chash: str) -> None:
    rows = len(columns[0])
    with open(path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(float(col[i])) for col in columns) + "\n")


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    return value


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _summary(chash: str, **fields) -> dict:
    return {"config_hash": chash, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **fields}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(config: dict, out: Path, strict: bool) -> int:
    grid = build_grid(config)
    params = build_params(config)
    forcing = build_forcing(config, grid)
    initial = build_initial(config, grid)
    integ = build_integrator(config)
    chash = config_hash(config)

    result = simulate(initial, params, forcing, integ["t_end"], integ["dt"],
                      stride=integ["stride"])
    names = sorted(result.series)
    write_csv(out / "series.csv", ["t"] + names,
              [result.times] + [result.series[n] for n in names], chash)
    write_checkpoint(out / "final.ckpt", result.final_state, params)
    write_json(out / "summary.json", _summary(
        chash,
        final_time=result.final_state.t,
        final_energy=result.final_state.energy(),
        steps=_whole_steps(integ["t_end"], integ["dt"]),
    ))
    return EXIT_OK


def cmd_verify_estimates(config: dict, out: Path, strict: bool) -> int:
    grid = build_grid(config)
    params = build_params(config)
    forcing = build_forcing(config, grid)
    initial = build_initial(config, grid)
    integ = build_integrator(config)
    constants = build_constants(config, params, grid)
    chash = config_hash(config)

    result = simulate(initial, params, forcing, integ["t_end"], integ["dt"],
                      stride=integ["stride"])
    strength = force_strength(forcing, grid, window=result.times)

    reports = [estimates.verify_energy_inequality(result, constants)]
    reports.extend(estimates.verify_time_averages(result, constants, strength))
    reports.append(estimates.verify_h1_bound(result, constants, strength))
    ball = estimates.verify_absorbing_ball(result, constants, strength)

    records = [dict(r.to_record(), config_hash=chash) for r in reports]
    records.append({
        "check_name": "absorbing_ball", "left": ball.max_after_entry,
        "right": ball.radius_sq, "margin": ball.radius_sq - ball.max_after_entry,
        "violated": ball.violated, "entered_at": ball.entered_at,
        "config_hash": chash,
    })
    names = sorted(result.series)
    write_csv(out / "series.csv", ["t"] + names,
              [result.times] + [result.series[n] for n in names], chash)
    write_json(out / "checks.json", _summary(chash, checks=records))
    if strict and any(r["violated"] for r in records):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_bounds(config: dict, out: Path, strict: bool) -> int:
    grid = build_grid(config)
    params = build_params(config)
    forcing = build_forcing(config, grid)
    constants = build_constants(config, params, grid)
    chash = config_hash(config)

    ecfg = _expect(config, "experiment", dict, "", default={})
    if "F_tilde" in ecfg:
        F = float(ecfg["F_tilde"])
        Fm1 = float(ecfg.get("F_tilde_minus1", F / math.sqrt(grid.lambda1)))
        strength = estimates.ForceStrength(F, Fm1)
        f_l2 = strength.F_tilde
        g_l2 = 0.0
    else:
        strength = force_strength(forcing, grid)
        f_l2 = spectral.norm(forcing.f_at(0.0))
        g_l2 = spectral.norm(forcing.g_at(0.0))

    payload: dict = {
        "F_tilde": strength.F_tilde,
        "F_tilde_minus1": strength.F_tilde_minus1,
        "modes_closed_form": estimates.modes_bound(constants, strength.F_tilde_minus1,
                                                   "closed_form"),
        "constants": {
            "k1": constants.k1, "k2": constants.k2,
            "k3_modes": constants.k3_modes, "k3_nodes": constants.k3_nodes,
            "c1": constants.c1, "C": constants.C, "C0": constants.C0,
            "c": constants.c, "d": constants.d, "r": constants.r,
            "chat1": constants.chat1, "chat2": constants.chat2, "chat3": constants.chat3,
        },
    }
    try:
        payload["modes_exact_eigenvalues"] = estimates.modes_bound(
            constants, strength.F_tilde_minus1, "exact_eigenvalues", grid)
    except ValueError as err:
        payload["modes_exact_eigenvalues"] = None
        payload["modes_exact_error"] = str(err)
    try:
        payload["nodes"] = estimates.nodes_bound(constants, strength.F_tilde)
    except OverflowError:
        payload["nodes"] = None
    payload["nodes_log10"] = estimates.nodes_bound_log10(constants, strength.F_tilde)
    payload["attractor_hausdorff"] = estimates.attractor_bound(constants, f_l2, g_l2)
    payload["attractor_fractal"] = 2 * payload["attractor_hausdorff"]

    write_json(out / "bounds.json", _summary(chash, **payload))
    return EXIT_OK


def _twin_setup(config: dict):
    grid = build_grid(config)
    params = build_params(config)
    forcing = build_forcing(config, grid)
    integ = build_integrator(config)
    ecfg = _expect(config, "experiment", dict, "", default={})
    spinup = float(_expect(ecfg, "spinup", (int, float), "experiment", default=0.0))
    _steps(spinup, integ["dt"], "experiment.spinup")

    reference = build_initial(config, grid)
    if spinup > 0:
        reference = simulate(reference, params, forcing, spinup, integ["dt"],
                             stride=10**9).final_state
    perturb_seed = _expect(ecfg, "perturb_seed", int, "experiment", default=99)
    pert = random_state(grid, perturb_seed,
                        energy_u=float(_expect(ecfg, "perturb_energy_u", (int, float),
                                               "experiment", default=0.05)),
                        energy_omega=float(_expect(ecfg, "perturb_energy_omega", (int, float),
                                                   "experiment", default=0.02)))
    perturbed = State(pert.u, pert.omega, reference.t)
    cfg = assimilation.SyncConfig(
        params=params, reference=reference, perturbed=perturbed,
        forcing1=forcing, forcing2=forcing,
        t_end=integ["t_end"], dt=integ["dt"], stride=integ["stride"],
    )
    return grid, params, forcing, cfg, ecfg


def cmd_sync_modes(config: dict, out: Path, strict: bool) -> int:
    grid, params, forcing, cfg, ecfg = _twin_setup(config)
    chash = config_hash(config)
    m = ecfg.get("m", "auto")
    if m == "auto":
        constants = build_constants(config, params, grid)
        strength = force_strength(forcing, grid)
        m = estimates.modes_bound(constants, strength.F_tilde_minus1,
                                  "exact_eigenvalues", grid)
    elif not isinstance(m, int) or m < 0:
        raise ConfigError("experiment.m must be a nonnegative integer or 'auto'")

    report = assimilation.run_mode_sync(cfg, m)
    write_csv(out / "sync_modes.csv", ["t", "delta_P", "delta_Q"],
              [report.times, report.series["delta_P"], report.series["delta_Q"]], chash)
    write_json(out / "summary.json", _summary(
        chash, kind="modes", m=m, effective_m=report.meta["effective_m"],
        converged=report.converged, rate=report.rate,
        threshold_time=report.threshold_time, min_relative=report.min_relative(),
    ))
    return EXIT_OK


def cmd_sync_nodes(config: dict, out: Path, strict: bool) -> int:
    grid, params, forcing, cfg, ecfg = _twin_setup(config)
    chash = config_hash(config)
    num_nodes = _expect(ecfg, "num_nodes", int, "experiment", required=True)
    try:
        nodes = make_node_set(grid, count=num_nodes)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    mu = ecfg.get("mu", "auto")
    if mu == "auto":
        constants = build_constants(config, params, grid)
        mu = assimilation.default_nudging_gain(constants, nodes.count)
    elif not isinstance(mu, (int, float)) or mu <= 0:
        raise ConfigError("experiment.mu must be a positive number or 'auto'")

    report = assimilation.run_node_sync(cfg, nodes, float(mu))
    write_csv(out / "sync_nodes.csv", ["t", "eta_u", "eta_omega", "h1_diff"],
              [report.times, report.series["eta_u"], report.series["eta_omega"],
               report.series["h1_diff"]], chash)
    write_json(out / "summary.json", _summary(
        chash, kind="nodes", num_nodes=nodes.count, mu=float(mu),
        converged=report.converged, diverged=report.diverged, rate=report.rate,
        threshold_time=report.threshold_time, min_relative=report.min_relative(),
    ))
    return EXIT_OK


def cmd_lyapunov(config: dict, out: Path, strict: bool) -> int:
    grid = build_grid(config)
    params = build_params(config)
    forcing = build_forcing(config, grid)
    initial = build_initial(config, grid)
    integ = build_integrator(config)
    constants = build_constants(config, params, grid)
    chash = config_hash(config)
    ecfg = _expect(config, "experiment", dict, "", default={})
    count = _expect(ecfg, "count", int, "experiment", default=4)
    reorth = _expect(ecfg, "reorth_interval", int, "experiment", default=10)
    seed = _expect(ecfg, "seed", int, "experiment", default=0)
    spinup = float(_expect(ecfg, "spinup", (int, float), "experiment", default=0.0))
    if count < 1:
        raise ConfigError("experiment.count must be >= 1")
    if reorth < 1:
        raise ConfigError("experiment.reorth_interval must be >= 1")
    _steps(spinup, integ["dt"], "experiment.spinup")
    _steps(integ["t_end"], integ["dt"] * reorth,
           "integrator.t_end (in blocks of dt x experiment.reorth_interval)")

    if spinup > 0:
        initial = simulate(initial, params, forcing, spinup, integ["dt"],
                           stride=10**9).final_state
    report = lyapunov.lyapunov_spectrum(initial, params, forcing, count,
                                        integ["t_end"], integ["dt"],
                                        reorth_interval=reorth, seed=seed,
                                        constants=constants)
    write_csv(out / "qn_series.csv", ["t", "trace", "running_average"],
              [report.trace.times, report.trace.trace, report.trace.running_average], chash)
    write_json(out / "lyapunov.json", _summary(
        chash,
        exponents=report.exponents,
        partial_sums=report.partial_sums,
        kaplan_yorke=report.kaplan_yorke,
        ky_undetermined=report.ky_undetermined,
        converged=report.converged,
        kappa1=report.kappa1, kappa2=report.kappa2,
        bound_N=report.bound_N, bound_2N=report.bound_2N,
        C0_used=report.C0_used, C0_fitted=report.C0_fitted,
        qN_series_file="qn_series.csv",
    ))
    return EXIT_OK


def cmd_checkpoint_info(path: str) -> int:
    state, params = read_checkpoint(path)
    info = {
        "n": state.grid.n,
        "L": state.grid.L,
        "nu": params.nu,
        "nu_r": params.nu_r,
        "alpha": params.alpha,
        "t": state.t,
        "u_l2": spectral.norm(state.u),
        "omega_l2": spectral.norm(state.omega),
        "divergence_free": state.u.is_divergence_free(1e-10),
    }
    print(json.dumps(_jsonable(info), sort_keys=True, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "verify-estimates": cmd_verify_estimates,
    "bounds": cmd_bounds,
    "sync-modes": cmd_sync_modes,
    "sync-nodes": cmd_sync_nodes,
    "lyapunov": cmd_lyapunov,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="micropolar",
                                     description="2-D micropolar flow experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--strict", action="store_true",
                       help="exit 4 when a verification check is violated")
    p = sub.add_parser("checkpoint-info")
    p.add_argument("path", help="checkpoint file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_CONFIG if err.code not in (0, None) else EXIT_OK

    if args.command == "checkpoint-info":
        try:
            return cmd_checkpoint_info(args.path)
        except (OSError, ValueError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG

    try:
        config = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out, args.strict)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (CflViolationError, NumericsError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
