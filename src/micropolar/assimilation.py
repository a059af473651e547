"""
Twin experiments probing finite-dimensionality empirically.

Mode synchronization slaves the low Galerkin modes of a second solution to
a reference solution by direct overwrite after every step, which realizes
the low-mode agreement hypothesis exactly, and records the energy left in
the complementary modes.  Node synchronization nudges the second solution
toward the nodal interpolant of the reference (the standard constructive
proxy for the purely asymptotic determining-nodes definition).  A checker
for the generalized Gronwall hypotheses evaluates the sign-indefinite
decay coefficient along the reference trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from micropolar import spectral
from micropolar.dynamics import (
    CflViolationError,
    Forcing,
    NumericsError,
    Params,
    State,
    _Stepper,
    _to_half,
    _whole_steps,
)
from micropolar.estimates import Constants
from micropolar.spectral import Grid, NodeSet, _product_energies, mode_mask

__all__ = [
    "SyncConfig",
    "SyncReport",
    "GronwallReport",
    "run_mode_sync",
    "run_node_sync",
    "check_gronwall_conditions",
    "fit_decay_rate",
    "default_nudging_gain",
]


@dataclass(frozen=True)
class SyncConfig:
    """
    Shared setup of a twin experiment: two initial states, one forcing per
    solution (the same object is allowed), duration and output stride.
    """

    params: Params
    reference: State
    perturbed: State
    forcing1: Forcing
    forcing2: Forcing
    t_end: float
    dt: float
    stride: int = 10

    def __post_init__(self) -> None:
        if self.reference.grid != self.perturbed.grid:
            raise ValueError("twin states must share one grid")
        if self.t_end <= 0 or self.dt <= 0:
            raise ValueError("t_end and dt must be positive")


@dataclass
class SyncReport:
    """Decay histories of a twin experiment plus the convergence verdict."""

    kind: str
    times: np.ndarray
    series: dict[str, np.ndarray]
    converged: bool
    threshold_time: float | None
    rate: float | None
    rate_r2: float | None
    initial: float
    final: float
    diverged: bool = False
    meta: dict = field(default_factory=dict)

    def min_relative(self) -> float:
        key = "delta_Q" if self.kind == "modes" else "h1_diff"
        if self.initial == 0:
            return 0.0
        return float(np.min(self.series[key]) / self.initial)


def _convergence(times: np.ndarray, values: np.ndarray, initial: float,
                 rtol: float) -> tuple[bool, float | None]:
    """Converged when the last tenth of the run stays below rtol * initial."""
    if initial <= 0:
        return True, float(times[0]) if len(times) else None
    below = values <= rtol * initial
    tail = max(2, int(0.1 * len(values)))
    if not np.all(below[-tail:]):
        return False, None
    idx = len(below) - 1
    while idx > 0 and below[idx - 1]:
        idx -= 1
    return True, float(times[idx])


def _fit_window(times: np.ndarray, values: np.ndarray, initial: float) -> tuple[float, float] | None:
    """Decay rate over the clean part of the history: below half the
    initial value, above the roundoff floor."""
    if initial <= 0:
        return None
    usable = (values > 1e-24 * initial) & (values < 0.5 * initial)
    if np.count_nonzero(usable) < 10:
        return None
    return fit_decay_rate(times[usable], values[usable], transient_fraction=0.0)


def _sync_report(kind: str, times: list[float], series: dict[str, np.ndarray], key: str,
                 rtol: float, diverged: bool, meta: dict) -> SyncReport:
    """
    Verdict on the decay of ``series[key]`` from its first sample: converged
    below ``rtol`` times it, and the fitted rate.  A diverged run gets
    neither.
    """
    times_arr = np.asarray(times)
    values = series[key]
    if diverged:
        converged, threshold_time, fit = False, None, None
    else:
        converged, threshold_time = _convergence(times_arr, values, values[0], rtol)
        fit = _fit_window(times_arr, values, values[0])
    return SyncReport(
        kind=kind, times=times_arr, series=series,
        converged=converged, threshold_time=threshold_time,
        rate=None if fit is None else fit[0],
        rate_r2=None if fit is None else fit[1],
        initial=float(values[0]), final=float(values[-1]),
        diverged=diverged, meta=meta,
    )


def run_mode_sync(config: SyncConfig, m: int) -> SyncReport:
    """
    Twin run with the first m enumerated modes of the second solution
    overwritten by the reference after every step (conjugate-closed so the
    fields stay real; the effective slaved count is reported).  Records the
    projected energy differences delta_P (identically zero by construction)
    and delta_Q at the configured stride.
    """
    grid = config.reference.grid
    mask_P = mode_mask(grid, m)
    mask_Q = ~mask_P
    effective_m = int(np.count_nonzero(mask_P))

    s1 = _Stepper(grid, config.params, config.forcing1, config.dt)
    s2 = _Stepper(grid, config.params, config.forcing2, config.dt)
    U1, W1 = _to_half(config.reference)
    U2, W2 = _to_half(config.perturbed)

    def slave() -> None:
        # the mask is conjugate-closed, so its columns k2 >= 0 carry it; after
        # the first step both states are band planes, zero beyond the band
        P = mask_P[:, : U2.shape[-1]]
        U2[:, P] = U1[:, P]
        W2[P] = W1[P]

    slave()
    nsteps = _whole_steps(config.t_end, config.dt)
    t0 = config.reference.t
    times = [t0]
    deltas = [_product_energies(grid, U1 - U2, W1 - W2, mask_P, mask_Q)]
    for i in range(nsteps):
        t = t0 + i * config.dt
        U1, W1 = s1.advance(U1, W1, t)
        U2, W2 = s2.advance(U2, W2, t)
        slave()
        if (i + 1) % config.stride == 0 or i + 1 == nsteps:
            times.append(t0 + (i + 1) * config.dt)
            deltas.append(_product_energies(grid, U1 - U2, W1 - W2, mask_P, mask_Q))

    delta_P, delta_Q = np.asarray(deltas).T
    return _sync_report("modes", times, {"delta_P": delta_P, "delta_Q": delta_Q},
                        "delta_Q", 1e-16, False, {"m": m, "effective_m": effective_m})


def default_nudging_gain(constants: Constants, node_count: int) -> float:
    """Dimensional default mu = k1 lambda1 N / (2 c)."""
    return constants.k1 * constants.lambda1 * node_count / (2.0 * constants.c)


class _Nudging:
    """
    The nudging term of a node twin, -mu I_h of the gap between the
    nudged planes and ``reference`` (the reference's current planes, which
    the loop keeps up to date), as the stepper's ``extra``.  It works in
    buffers of the run: the differences, the physical planes (samples,
    then interpolants), the node values, and the interpolants' band
    spectra, which the kernel reads; each call overwrites the last one's.
    """

    def __init__(self, nodes: NodeSet, mu: float, reference: tuple[np.ndarray, np.ndarray]):
        grid = nodes.grid
        n = grid.n
        self.nodes, self.mu, self.reference = nodes, mu, reference
        self.diff = np.empty((3, n, 0), dtype=np.complex128)  # sized by the planes given
        self.phys = np.empty((3, n, n))
        self.values = np.empty((3, nodes.count))
        self.gap = np.empty((3, n, grid.kcut + 1), dtype=np.complex128)
        self.scratch = np.empty((3, n, n // 2 + 1), dtype=np.complex128)

    def node_values(self, U: np.ndarray, W: np.ndarray) -> np.ndarray:
        """Values of (u1, u2, w) of (U, W) minus the reference at the nodes."""
        U1, W1 = self.reference
        if self.diff.shape[-1] != U.shape[-1]:
            self.diff = np.empty((3,) + U.shape[-2:], dtype=np.complex128)
        np.subtract(U, U1, out=self.diff[:2])
        np.subtract(W, W1, out=self.diff[2])
        return spectral._sample_scalar(self.diff, self.nodes, out=self.values, phys=self.phys)

    def __call__(self, t: float, U: np.ndarray, W: np.ndarray):
        # -mu I_h of the gap, one piecewise-constant interpolant per field,
        # in the band columns that the kernel reads
        gap = spectral._interpolant_scalar(self.node_values(U, W), self.nodes,
                                           self.gap.shape[-1], out=self.gap,
                                           phys=self.phys, scratch=self.scratch)
        np.multiply(-self.mu, gap, out=gap)
        return gap[:2], gap[2]


def run_node_sync(config: SyncConfig, nodes: NodeSet, mu: float) -> SyncReport:
    """
    Twin run where the second solution is relaxed toward the reference's
    nodal interpolant: its right-hand sides gain -mu (I_h(u2) - I_h(u1)) and
    -mu (I_h(w2) - I_h(w1)), treated with the explicit part of the scheme.
    Records the node-value gaps eta and the H1 energy of the full
    difference; an energy blowup is reported as a diverged experiment with
    diagnostics rather than raised.
    """
    if mu <= 0:
        raise ValueError(f"nudging gain must be positive, got mu={mu}")
    grid = config.reference.grid
    if nodes.grid != grid:
        raise ValueError("node set belongs to a different grid")

    U1, W1 = _to_half(config.reference)
    U2, W2 = _to_half(config.perturbed)
    nudge = _Nudging(nodes, mu, (U1, W1))

    def eta() -> tuple[float, float]:
        vals = nudge.node_values(U2, W2)
        return float(np.max(np.hypot(vals[0], vals[1]))), float(np.max(np.abs(vals[2])))

    s1 = _Stepper(grid, config.params, config.forcing1, config.dt)
    s2 = _Stepper(grid, config.params, config.forcing2, config.dt, extra=nudge)

    nsteps = _whole_steps(config.t_end, config.dt)
    t0 = config.reference.t
    times = [t0]
    etas = [eta()]
    h1 = _product_energies(grid, U2 - U1, W2 - W1, grid.lam)
    diverged = False
    diagnostics: dict = {}
    for i in range(nsteps):
        t = t0 + i * config.dt
        try:
            # advance the nudged solution first so it observes the
            # reference at the same time level
            U2, W2 = s2.advance(U2, W2, t)
        except (NumericsError, CflViolationError) as err:
            diverged = True
            diagnostics = {"blowup_time": t, "error": str(err), "mu": mu}
            break
        # reference failures are configuration errors and propagate
        U1, W1 = s1.advance(U1, W1, t)
        nudge.reference = (U1, W1)
        if (i + 1) % config.stride == 0 or i + 1 == nsteps:
            times.append(t0 + (i + 1) * config.dt)
            etas.append(eta())
            h1 += _product_energies(grid, U2 - U1, W2 - W1, grid.lam)

    eta_u, eta_om = np.asarray(etas).T
    return _sync_report("nodes", times,
                        {"eta_u": eta_u, "eta_omega": eta_om, "h1_diff": np.asarray(h1)},
                        "h1_diff", 1e-10, diverged,
                        {"mu": mu, "num_nodes": nodes.count, **diagnostics})


@dataclass
class GronwallReport:
    """Windowed averages of the decay coefficient gamma along a trajectory."""

    window: float
    window_averages: np.ndarray
    window_starts: np.ndarray
    liminf_proxy: float
    gamma_minus_limsup_proxy: float
    l1_holds: bool
    l2_holds: bool


def check_gronwall_conditions(traj, constants: Constants, m: int, grid: Grid,
                              window: float | None = None) -> GronwallReport:
    """
    Hypothesis audit for the generalized Gronwall lemma at mode count m:
    sliding-window averages of

        gamma(t) = k1 lambda_{m+1} - (4 c1^2 / k3) (||u1||^2 + ||w1||^2)
                   - 16 nu_r^2 / alpha

    must stay positive (liminf condition), and averages of the negative part
    of gamma must stay bounded.  The window defaults to the constants'
    uniform-Gronwall length r.
    """
    if not 0 <= m < grid.num_modes:
        raise ValueError(f"mode count m={m} outside the enumerated table")
    if "u_h1_sq" not in traj.series or "omega_h1_sq" not in traj.series:
        raise ValueError("trajectory record lacks H1 norm series")
    t = traj.times
    h1 = traj.series["u_h1_sq"] + traj.series["omega_h1_sq"]
    cst = constants
    lam_next = float(grid.eigenvalues[m])
    gamma = cst.k1 * lam_next - (4.0 * cst.c1**2 / cst.k3_modes) * h1 \
        - 16.0 * cst.nu_r**2 / cst.alpha

    w = cst.r if window is None else window
    if len(t) < 2:
        raise ValueError("trajectory too short")
    dt_sample = float(t[1] - t[0])
    span = int(round(w / dt_sample))
    if span < 2:
        raise ValueError(f"window {w} covers fewer than two samples (spacing {dt_sample})")
    if span > len(t):
        raise ValueError(f"window {w} longer than the trajectory span")
    starts = np.arange(0, len(t) - span + 1)
    averages = np.array([float(np.mean(gamma[s: s + span])) for s in starts])
    neg_averages = np.array([float(np.mean(np.maximum(-gamma[s: s + span], 0.0)))
                             for s in starts])
    return GronwallReport(
        window=w,
        window_averages=averages,
        window_starts=t[starts],
        liminf_proxy=float(np.min(averages)),
        gamma_minus_limsup_proxy=float(np.max(neg_averages)),
        l1_holds=bool(np.all(averages > 0)),
        l2_holds=bool(np.isfinite(np.max(neg_averages))),
    )


def fit_decay_rate(times: Sequence[float], values: Sequence[float],
                   transient_fraction: float = 0.2) -> tuple[float, float]:
    """
    Least-squares slope of log(values) against time over the post-transient
    segment; returns (rate, R^2).  Requires at least 10 samples and strictly
    positive values in the fitted segment.
    """
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if len(t) != len(v):
        raise ValueError("times and values must have equal length")
    if len(v) < 10:
        raise ValueError(f"need at least 10 samples to fit a decay rate, got {len(v)}")
    start = int(transient_fraction * len(v))
    t, v = t[start:], v[start:]
    if np.any(v <= 0):
        raise ValueError("nonpositive entries in the fitted segment")
    logv = np.log(v)
    A = np.vstack([t, np.ones_like(t)]).T
    coef, residual, _, _ = np.linalg.lstsq(A, logv, rcond=None)
    rate = float(coef[0])
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    if ss_tot == 0:
        r2 = 1.0
    else:
        ss_res = float(residual[0]) if len(residual) else float(np.sum((logv - A @ coef) ** 2))
        r2 = 1.0 - ss_res / ss_tot
    return rate, r2
