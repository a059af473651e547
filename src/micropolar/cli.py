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
import contextlib
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
    SimulationResult,
    State,
    _simulate,
    _whole_steps,
    make_forcing,
    random_state,
    read_checkpoint,
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
# Config schema
# ---------------------------------------------------------------------------

_REQUIRED = object()  # default of a key that the subcommands reading it cannot do without


def _real(v) -> bool:
    """An int or a float, not a bool, that is finite as a float."""
    return type(v) is float and math.isfinite(v) or type(v) is int and abs(v) <= sys.float_info.max


_KINDS = {  # kind -> (test, description); JSON gives exact int, float, str and bool types
    "real": (_real, "a finite number"),
    "int": (lambda v: type(v) is int, "a whole number"),
    "str": (lambda v: type(v) is str, "a string"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "auto|int": (lambda v: v == "auto" or type(v) is int, '"auto" or a whole number'),
    "auto|real": (lambda v: v == "auto" or _real(v), '"auto" or a finite number'),
    "real|null": (lambda v: v is None or _real(v), "a finite number or null"),
}
_DOMAINS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1}

# section -> key -> (kind, default, domain).  Every key present is checked
# when the config loads; a missing _REQUIRED key fails only the subcommands
# that read it.  Domains the library checks (even n >= 8, Params, profile
# names, the mode_lo/mode_hi range, square node counts, constants) are left
# to it.  `experiment` holds the keys of every subcommand.
_SCHEMA = {
    "grid": {"n": ("int", _REQUIRED, None), "L": ("real", 2.0 * math.pi, None)},
    "params": {"nu": ("real", _REQUIRED, None), "nu_r": ("real", 0.0, None),
               "alpha": ("real", _REQUIRED, None)},
    "forcing": {"profile": ("str", "zero", None),
                "magnitude_f2": ("real", 0.0, None), "magnitude_g2": ("real", 0.0, None),
                "mode_lo": ("int", 1, None), "mode_hi": ("int", 1, None),
                "seed": ("int", 0, ">= 0")},
    "initial": {"checkpoint": ("str", None, None), "zero": ("bool", False, None),
                "seed": ("int", 0, ">= 0"), "energy_u": ("real", 0.1, ">= 0"),
                "energy_omega": ("real", 0.05, ">= 0"), "kmax": ("int", 4, ">= 1")},
    "integrator": {"dt": ("real", _REQUIRED, "> 0"), "t_end": ("real", _REQUIRED, ">= 0"),
                   "stride": ("int", 10, ">= 1")},
    "constants": {name: ("real|null", None, None) for name in ("c1", "C", "C0", "c", "d", "r")},
    "experiment": {
        "spinup": ("real", 0.0, ">= 0"),                 # sync-*, lyapunov
        "perturb_seed": ("int", 99, ">= 0"),             # sync-*
        "perturb_energy_u": ("real", 0.05, ">= 0"),      # sync-*
        "perturb_energy_omega": ("real", 0.02, ">= 0"),  # sync-*
        "m": ("auto|int", "auto", ">= 0"),               # sync-modes
        "num_nodes": ("int", _REQUIRED, ">= 1"),         # sync-nodes
        "mu": ("auto|real", "auto", "> 0"),              # sync-nodes
        "count": ("int", 4, ">= 1"),                     # lyapunov
        "reorth_interval": ("int", 10, ">= 1"),          # lyapunov
        "seed": ("int", 0, ">= 0"),                      # lyapunov
        "F_tilde": ("real", None, ">= 0"),               # bounds
        "F_tilde_minus1": ("real", None, ">= 0"),        # bounds
    },
}


def _check(config: dict) -> None:
    """Check every key present against _SCHEMA; the first bad one is a ConfigError."""
    for section, entries in config.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown field {section}; expected one of {', '.join(_SCHEMA)}")
        if not isinstance(entries, dict):
            raise ConfigError(f"field {section} must be an object, got {entries!r}")
        for key, value in entries.items():
            where = f"{section}.{key}"
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown field {where}; "
                                  f"expected one of {', '.join(_SCHEMA[section])}")
            kind, _, domain = _SCHEMA[section][key]
            accepts, wanted = _KINDS[kind]
            if not accepts(value):
                raise ConfigError(f"field {where} must be {wanted}, got {value!r}")
            if domain and isinstance(value, (int, float)) and not _DOMAINS[domain](value):
                raise ConfigError(f"field {where} must be {domain}, got {value!r}")


def _get(config: dict, where: str):
    """Value at ``where`` ("section.key") in a checked config or its default; reals as floats."""
    section, key = where.split(".")
    kind, default, _ = _SCHEMA[section][key]
    value = config.get(section, {}).get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"missing required field {where}")
    return float(value) if "real" in kind and type(value) is int else value


@contextlib.contextmanager
def _config_errors(where: str = ""):
    """Report a ValueError the library raises in the block as a config error."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(f"{where}{err}") from err


def _steps(span: float, step: float, where: str) -> int:
    """Whole number of steps in a configured span; anything else is a config error."""
    with _config_errors(f"{where}: "):
        return _whole_steps(span, step)


def load_config(path: str) -> dict:
    """The config as written, after every key in it passed _check."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    _check(config)
    return config


def build_grid(config: dict) -> Grid:
    with _config_errors():
        return make_grid(_get(config, "grid.n"), _get(config, "grid.L"))


def build_params(config: dict) -> Params:
    with _config_errors():
        return Params(**{key: _get(config, f"params.{key}") for key in _SCHEMA["params"]})


def build_forcing(config: dict, grid: Grid) -> Forcing:
    with _config_errors():
        return make_forcing(grid, **{key: _get(config, f"forcing.{key}")
                                     for key in _SCHEMA["forcing"]})


def build_initial(config: dict, grid: Grid) -> State:
    path = _get(config, "initial.checkpoint")
    if path is not None:
        try:
            # the time loops carry the dealiased blocks of a zero-mean,
            # divergence-free state: another state would change unreported
            state, _ = read_checkpoint(path, resumable=True)
        except (OSError, ValueError) as err:
            raise ConfigError(f"initial.checkpoint: cannot resume from {path}: {err}") from err
        if state.grid != grid:
            raise ConfigError("checkpoint grid does not match the configured grid")
        return state
    if _get(config, "initial.zero"):
        return State.zero(grid)
    return random_state(grid, **{key: _get(config, f"initial.{key}")
                                 for key in ("seed", "energy_u", "energy_omega", "kmax")})


def build_constants(config: dict, params: Params, grid: Grid):
    overrides = {key: _get(config, f"constants.{key}") for key in _SCHEMA["constants"]}
    with _config_errors():
        return compute_constants(params, grid, **{key: value for key, value in overrides.items()
                                                  if value is not None})


def build_integrator(config: dict) -> dict:
    integ = {key: _get(config, f"integrator.{key}") for key in _SCHEMA["integrator"]}
    _steps(integ["t_end"], integ["dt"], "integrator.t_end")
    return integ


def _setup(config: dict):
    grid = build_grid(config)
    return grid, build_params(config), build_forcing(config, grid), build_integrator(config)


def _simulated(config: dict, grid: Grid, params: Params, forcing: Forcing, t_end: float,
               dt: float, stride: int) -> SimulationResult:
    """The run of the configured initial state, which the time loop builds
    and drops before its first step: a State built here would stay alive
    beside the loop's workspace for the whole run."""
    return _simulate(lambda: build_initial(config, grid), params, forcing, t_end, dt,
                     stride=stride)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

# rows of a CSV converted to Python floats at a time
_CSV_BLOCK = 1024


def write_csv(path: Path, header: list[str], columns: list[np.ndarray], chash: str) -> None:
    # every value as "%.17g" of a Python float (the bytes of f"{value:.17g}",
    # inf, nan and signed zeros included), one %-format per row, the floats
    # taken from the columns in blocks of rows
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    columns = [np.asarray(col, dtype=np.float64) for col in columns]
    with open(path, "w") as fh:
        fh.write(f"# config_hash={chash}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            block = (col[start:start + _CSV_BLOCK].tolist() for col in columns)
            fh.writelines(row % values for values in zip(*block))


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
    grid, params, forcing, integ = _setup(config)
    chash = config_hash(config)

    result = _simulated(config, grid, params, forcing, integ["t_end"], integ["dt"],
                        integ["stride"])
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
    grid, params, forcing, integ = _setup(config)
    constants = build_constants(config, params, grid)
    chash = config_hash(config)

    result = _simulated(config, grid, params, forcing, integ["t_end"], integ["dt"],
                        integ["stride"])
    strength = force_strength(forcing, grid, window=result.times)

    reports = [estimates.verify_energy_inequality(result, constants)]
    with _config_errors("integrator.t_end / integrator.stride: "):
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

    F, Fm1 = _get(config, "experiment.F_tilde"), _get(config, "experiment.F_tilde_minus1")
    if F is None and Fm1 is not None:
        raise ConfigError("field experiment.F_tilde_minus1 needs experiment.F_tilde; "
                          "without it both strengths come from the forcing")
    if F is not None:
        strength = estimates.ForceStrength(F, F / math.sqrt(grid.lambda1) if Fm1 is None else Fm1)
        f_l2 = strength.F_tilde
        g_l2 = 0.0
    else:
        strength = force_strength(forcing, grid)
        f_l2 = forcing.norm("f")
        g_l2 = forcing.norm("g")

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
    grid, params, forcing, integ = _setup(config)
    spinup = _get(config, "experiment.spinup")
    _steps(spinup, integ["dt"], "experiment.spinup")
    if spinup > 0:
        reference = _simulated(config, grid, params, forcing, spinup, integ["dt"],
                               10**9).final_state
    else:
        reference = build_initial(config, grid)
    perturbed = random_state(grid, _get(config, "experiment.perturb_seed"),
                             energy_u=_get(config, "experiment.perturb_energy_u"),
                             energy_omega=_get(config, "experiment.perturb_energy_omega"),
                             t=reference.t)
    with _config_errors():  # a twin run needs t_end > 0
        cfg = assimilation.SyncConfig(params=params, reference=reference, perturbed=perturbed,
                                      forcing1=forcing, forcing2=forcing, t_end=integ["t_end"],
                                      dt=integ["dt"], stride=integ["stride"])
    return grid, params, forcing, cfg


def cmd_sync_modes(config: dict, out: Path, strict: bool) -> int:
    grid, params, forcing, cfg = _twin_setup(config)
    chash = config_hash(config)
    m = _get(config, "experiment.m")
    if m == "auto":
        constants = build_constants(config, params, grid)
        strength = force_strength(forcing, grid)
        m = estimates.modes_bound(constants, strength.F_tilde_minus1,
                                  "exact_eigenvalues", grid)

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
    grid, params, forcing, cfg = _twin_setup(config)
    chash = config_hash(config)
    with _config_errors():
        nodes = make_node_set(grid, count=_get(config, "experiment.num_nodes"))
    mu = _get(config, "experiment.mu")
    if mu == "auto":
        constants = build_constants(config, params, grid)
        mu = assimilation.default_nudging_gain(constants, nodes.count)

    report = assimilation.run_node_sync(cfg, nodes, mu)
    write_csv(out / "sync_nodes.csv", ["t", "eta_u", "eta_omega", "h1_diff"],
              [report.times, report.series["eta_u"], report.series["eta_omega"],
               report.series["h1_diff"]], chash)
    write_json(out / "summary.json", _summary(
        chash, kind="nodes", num_nodes=nodes.count, mu=mu,
        converged=report.converged, diverged=report.diverged, rate=report.rate,
        threshold_time=report.threshold_time, min_relative=report.min_relative(),
    ))
    return EXIT_OK


def cmd_lyapunov(config: dict, out: Path, strict: bool) -> int:
    grid, params, forcing, integ = _setup(config)
    constants = build_constants(config, params, grid)
    chash = config_hash(config)
    count, reorth, seed, spinup = (_get(config, f"experiment.{key}")
                                   for key in ("count", "reorth_interval", "seed", "spinup"))
    _steps(spinup, integ["dt"], "experiment.spinup")
    _steps(integ["t_end"], integ["dt"] * reorth,
           "integrator.t_end (in blocks of dt x experiment.reorth_interval)")

    if spinup > 0:
        initial = _simulated(config, grid, params, forcing, spinup, integ["dt"],
                             10**9).final_state
    else:
        initial = build_initial(config, grid)
    with _config_errors("experiment.count: "):  # the band bounds the count of pairs
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
