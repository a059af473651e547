"""
Workload definitions: the configs each workload writes from its seed, the
CLI commands it issues in order, and how many field-steps those commands
take.

A field-step is one time step of one evolving field set (a reference, a
twin or one tangent pair).  It is counted from the config, never from
calls inside the program, so a later change that batches twins or tangents
still reports comparable throughput.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Callable

L = 6.283185307179586

# The README example config.
_README = {
    "grid": {"n": 64, "L": L},
    "params": {"nu": 0.15, "nu_r": 0.075, "alpha": 0.15},
    "forcing": {"profile": "two_scale", "magnitude_f2": 0.008, "magnitude_g2": 0.002,
                "mode_lo": 9, "mode_hi": 25},
    "initial": {"energy_u": 0.15, "energy_omega": 0.05},
    "integrator": {"dt": 0.01, "t_end": 2.0, "stride": 10},
    "constants": {"C": 1.0, "C0": 1.0, "c": 1.0, "r": 1.0},
}

# The config of acceptance criterion 15 (n=16, steady forcing).
_CRITERION_15 = {
    "grid": {"n": 16, "L": L},
    "params": {"nu": 0.3, "nu_r": 0.1, "alpha": 0.3},
    "forcing": {"profile": "steady", "magnitude_f2": 0.01, "magnitude_g2": 0.002, "mode_hi": 5},
    "initial": {"energy_u": 0.1, "energy_omega": 0.05},
    "integrator": {"dt": 0.01, "t_end": 30.0, "stride": 1},
}

# The scenario of acceptance criterion 13 (n=32, steady forcing, 8 tangents).
_CRITERION_13 = {
    "grid": {"n": 32, "L": L},
    "params": {"nu": 0.3, "nu_r": 0.1, "alpha": 0.3},
    "forcing": {"profile": "steady", "magnitude_f2": 0.01, "magnitude_g2": 0.002, "mode_hi": 6},
    "initial": {"energy_u": 0.08, "energy_omega": 0.03},
    "integrator": {"dt": 0.01, "t_end": 3.0, "stride": 10},
    "experiment": {"count": 8, "reorth_interval": 10, "spinup": 1.0},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``label`` also names its output directory."""

    label: str
    subcommand: str
    config: str

    def argv(self) -> list[str]:
        return [self.subcommand, "--config", self.config, "--out", self.label]


@dataclass(frozen=True)
class Part:
    """Commands on one scenario; ``name`` keys the seeds derived for it."""

    name: str
    build: Callable[[int, bool], dict[str, dict]]
    commands: tuple[Command, ...]
    # labels of the commands whose outputs include a checkpoint
    checkpoints: tuple[str, ...] = ()

    def field_steps(self, configs: dict[str, dict]) -> int:
        """Field-steps taken by the part's commands, from the configs alone."""
        return sum(_field_steps(c.subcommand, configs[c.config]) for c in self.commands)


@dataclass(frozen=True)
class Workload:
    """One iteration runs the commands of every part, in order."""

    name: str
    parts: tuple[Part, ...]

    @property
    def commands(self) -> tuple[Command, ...]:
        return tuple(c for part in self.parts for c in part.commands)

    @property
    def checkpoints(self) -> tuple[str, ...]:
        return tuple(label for part in self.parts for label in part.checkpoints)

    def configs(self, seed: int, smoke: bool = False) -> dict[str, dict]:
        """File name -> config for this seed."""
        return {name: cfg for part in self.parts for name, cfg in part.build(seed, smoke).items()}

    def field_steps(self, configs: dict[str, dict]) -> int:
        """Field-steps taken by all commands, from the configs alone."""
        return sum(part.field_steps(configs) for part in self.parts)


def derived_seed(workload: str, seed: int, role: str) -> int:
    """Stable 31-bit seed for one role (forcing, initial, perturb, tangent)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _steps(t: float, dt: float) -> int:
    # the rounding the solver uses (dynamics.simulate, run_*_sync)
    return int(round(t / dt)) if t > 0 else 0


def _field_steps(subcommand: str, cfg: dict) -> int:
    integ = cfg["integrator"]
    dt = integ["dt"]
    exp = cfg.get("experiment", {})
    spinup = _steps(exp.get("spinup", 0.0), dt)
    if subcommand in ("simulate", "verify-estimates"):
        return _steps(integ["t_end"], dt)
    if subcommand in ("sync-modes", "sync-nodes"):
        return spinup + 2 * _steps(integ["t_end"], dt)
    if subcommand == "lyapunov":
        reorth = exp.get("reorth_interval", 10)
        blocks = max(1, int(round(integ["t_end"] / (dt * reorth))))
        return spinup + (1 + exp.get("count", 4)) * blocks * reorth
    return 0  # bounds takes no time step


def _seeded(base: dict, workload: str, seed: int) -> dict:
    cfg = copy.deepcopy(base)
    cfg["forcing"]["seed"] = derived_seed(workload, seed, "forcing")
    cfg["initial"]["seed"] = derived_seed(workload, seed, "initial")
    return cfg


def _sim_n128(seed: int, smoke: bool) -> dict[str, dict]:
    sim = _seeded(_README, "sim-n128", seed)
    sim["grid"]["n"] = 128
    if smoke:
        sim["integrator"].update(t_end=0.4, stride=2)
    resumed = copy.deepcopy(sim)
    resumed["initial"] = {"checkpoint": "simulate/final.ckpt"}
    return {"sim.json": sim, "verify.json": resumed}


def _dense_n16(seed: int, smoke: bool) -> dict[str, dict]:
    cfg = _seeded(_CRITERION_15, "dense-n16", seed)
    if smoke:
        cfg["integrator"]["t_end"] = 2.0
    return {"dense.json": cfg}


def _twin_n64(seed: int, smoke: bool) -> dict[str, dict]:
    cfg = _seeded(_README, "twin-n64", seed)
    cfg["integrator"]["t_end"] = 2.5
    cfg["experiment"] = {"m": "auto", "num_nodes": 1024, "mu": "auto", "spinup": 1.0,
                         "perturb_seed": derived_seed("twin-n64", seed, "perturb")}
    if smoke:
        cfg["integrator"]["t_end"] = 0.3
        cfg["experiment"]["spinup"] = 0.1
    return {"twin.json": cfg}


def _lyap_n32(seed: int, smoke: bool) -> dict[str, dict]:
    cfg = _seeded(_CRITERION_13, "lyap-n32", seed)
    cfg["experiment"]["seed"] = derived_seed("lyap-n32", seed, "tangent")
    if smoke:
        cfg["integrator"]["t_end"] = 0.3
        cfg["experiment"]["spinup"] = 0.1
    return {"lyap.json": cfg}


SIM_N128 = Part("sim-n128", _sim_n128,
                (Command("simulate", "simulate", "sim.json"),
                 Command("verify", "verify-estimates", "verify.json"),
                 Command("bounds", "bounds", "sim.json")),
                checkpoints=("simulate",))
TWIN_N64 = Part("twin-n64", _twin_n64,
                (Command("sync_modes", "sync-modes", "twin.json"),
                 Command("sync_nodes", "sync-nodes", "twin.json")))
DENSE_N16 = Part("dense-n16", _dense_n16,
                 (Command("simulate", "simulate", "dense.json"),),
                 checkpoints=("simulate",))
LYAP_N32 = Part("lyap-n32", _lyap_n32,
                (Command("lyapunov", "lyapunov", "lyap.json"),))

# Two regimes: large n, where FFTs and elementwise work limit speed, and
# small n, where Python overhead does.  Each iteration is long enough
# (5-9 s) that a 60-s run takes its median over 6-12 iterations.
WORKLOADS = {
    w.name: w for w in (
        Workload("large-n", (SIM_N128, TWIN_N64)),
        Workload("small-n", (DENSE_N16, LYAP_N32)),
    )
}
