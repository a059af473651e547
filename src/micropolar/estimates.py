"""
Derived constants, closed-form bounds on determining modes / nodes and
attractor dimension, and audits of the a-priori energy inequalities along
simulated trajectories.

The shape constants c1 (advective-form constant), C (coupling constant of
the H1 differential inequality), C0 (Sobolev-Lieb-Thirring) and c (nodal
interpolation) are not pinned by the theory; they are configurable inputs
with documented defaults, and every bound is reported as a function of
them.  Exponential bounds are evaluated in log space so that loose
right-hand sides never overflow an audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from micropolar.dynamics import Forcing, SimulationResult, _profile_weights
from micropolar.spectral import Grid

__all__ = [
    "LADYZHENSKAYA_C1",
    "Constants",
    "ForceStrength",
    "compute_constants",
    "empirical_eigenvalue_growth",
    "force_strength",
    "modes_bound",
    "profile_modes_bound",
    "profile_dual_strength",
    "nodes_bound",
    "nodes_bound_log10",
    "attractor_bound",
    "CheckReport",
    "BallReport",
    "detect_transient",
    "verify_energy_inequality",
    "verify_absorbing_ball",
    "verify_time_averages",
    "verify_h1_bound",
]

#: Constant of the L4 interpolation inequality used in the advective-form
#: estimates, (6/pi)^(1/4).
LADYZHENSKAYA_C1 = (6.0 / math.pi) ** 0.25


@dataclass(frozen=True)
class Constants:
    """
    Viscosities plus the configurable shape constants, with every derived
    quantity (k1, k2, the two k3 variants, the Gronwall-window constants
    chat1..chat3) recomputed on access so nothing goes stale.
    """

    nu: float
    nu_r: float
    alpha: float
    lambda1: float
    c1: float = LADYZHENSKAYA_C1
    C: float = 1.0
    C0: float = 1.0
    c: float = 1.0
    d: float = 1.0
    r: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.nu < math.inf and 0 < self.alpha < math.inf
                and 0 <= self.nu_r < math.inf):
            raise ValueError("need finite nu > 0, alpha > 0, nu_r >= 0")
        for name in ("lambda1", "c1", "C", "C0", "c", "d", "r"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"constant {name} must be positive and finite, "
                                 f"got {getattr(self, name)}")

    @property
    def k1(self) -> float:
        return min(self.nu, self.alpha)

    @property
    def k2(self) -> float:
        return self.k1 * self.lambda1

    @property
    def k3_modes(self) -> float:
        """min(nu + nu_r, alpha): the variant entering the modes bound."""
        return min(self.nu + self.nu_r, self.alpha)

    @property
    def k3_nodes(self) -> float:
        """min(nu_r, alpha): the variant entering the nodes argument."""
        return min(self.nu_r, self.alpha)

    @property
    def chat1(self) -> float:
        return (2.0 + 3.0 * self.k2 * self.r) / (self.k1 * self.k2)

    @property
    def chat2(self) -> float:
        return 8.0 * self.nu_r**2 * self.r / self.alpha

    @property
    def chat3(self) -> float:
        return 8.0 * self.C * self.r / (self.alpha**2 * self.nu * self.k1 * self.k2**3)


def empirical_eigenvalue_growth(grid: Grid) -> float:
    """min over the enumerated table of lambda_{m+1} / (lambda_1 (m+1))."""
    lam = grid.eigenvalues
    m1 = np.arange(1, len(lam) + 1, dtype=np.float64)
    return float(np.min(lam / (lam[0] * m1)))


def compute_constants(params, grid: Grid, *, c1: float | None = None, C: float = 1.0,
                      C0: float = 1.0, c: float = 1.0, d: float | None = None,
                      r: float = 1.0) -> Constants:
    """
    Assemble the constants for a parameter set on a grid.

    Defaults: c1 is the L4-inequality constant, C = C0 = c = r = 1 as
    documented placeholders, and d the empirical eigenvalue-growth minimum
    of the grid's table.  Overrides must be positive.
    """
    return Constants(
        nu=params.nu, nu_r=params.nu_r, alpha=params.alpha, lambda1=grid.lambda1,
        c1=LADYZHENSKAYA_C1 if c1 is None else c1,
        C=C, C0=C0, c=c,
        d=empirical_eigenvalue_growth(grid) if d is None else d,
        r=r,
    )


@dataclass(frozen=True)
class ForceStrength:
    """Asymptotic forcing strengths in L2 and the dual norm."""

    F_tilde: float
    F_tilde_minus1: float

    def __post_init__(self) -> None:
        if self.F_tilde < 0 or self.F_tilde_minus1 < 0:
            raise ValueError("force strengths must be nonnegative")


def force_strength(forcing: Forcing, grid: Grid,
                   window: Sequence[float] | None = None) -> ForceStrength:
    """
    limsup proxies of (|f|^2+|g|^2)^(1/2) and its dual-norm analogue:
    exact for steady forcing, the max over window samples otherwise.
    """
    if forcing.steady:
        times = [0.0]
    else:
        if window is None or len(window) == 0:
            raise ValueError("time-dependent forcing needs a nonempty sampling window")
        times = list(window)
    best_l2 = 0.0
    best_hm1 = 0.0
    for t in times:
        best_l2 = max(best_l2, forcing.norm("f", "L2", t) ** 2 + forcing.norm("g", "L2", t) ** 2)
        best_hm1 = max(best_hm1, forcing.norm("f", "Hminus1", t) ** 2
                       + forcing.norm("g", "Hminus1", t) ** 2)
    return ForceStrength(math.sqrt(best_l2), math.sqrt(best_hm1))


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------

def modes_bound(constants: Constants, F_tilde_minus1: float,
                method: str = "exact_eigenvalues", grid: Grid | None = None) -> int:
    """
    Number of determining modes.

    ``closed_form`` evaluates the sufficiency threshold divided by the
    eigenvalue-growth constant d; ``exact_eigenvalues`` returns the least m
    whose (m+1)-th enumerated eigenvalue clears the sign condition on the
    Gronwall coefficient, sidestepping d entirely.
    """
    cst = constants
    threshold = 16.0 * cst.nu_r**2 / cst.alpha \
        + 8.0 * cst.c1**2 * F_tilde_minus1**2 / (cst.k1**2 * cst.k3_modes)
    if method == "closed_form":
        value = threshold / (cst.d * cst.lambda1 * cst.k1)
        return max(0, math.ceil(value))
    if method == "exact_eigenvalues":
        if grid is None:
            raise ValueError("exact_eigenvalues needs the grid's eigenvalue table")
        lam = grid.eigenvalues
        passing = np.nonzero(cst.k1 * lam > threshold)[0]
        if len(passing) == 0:
            raise ValueError(
                f"no enumerated eigenvalue clears the threshold {threshold / cst.k1:.6g}; "
                f"table max is {lam[-1]:.6g}"
            )
        return int(passing[0])
    raise ValueError(f"unknown method {method!r}; expected 'closed_form' or 'exact_eigenvalues'")


def profile_dual_strength(profile: str, F_tilde: float, grid: Grid,
                          mode_lo: int = 1, mode_hi: int = 1):
    """
    Squared dual strength F~_{-1}^2 implied by a forcing profile of total
    squared magnitude F~^2: sum_j m_j / lambda_j over the per-mode weights
    m_j that :func:`micropolar.dynamics.make_forcing` lays out, exact for
    two_scale / uniform_N / the linear profiles; a (low, high) bracket for
    a band with unknown distribution.
    """
    lam = grid.eigenvalues
    if not 1 <= mode_lo <= mode_hi <= len(lam):
        raise ValueError(f"need 1 <= mode_lo <= mode_hi <= {len(lam)}")
    F2 = F_tilde**2
    if profile == "band":
        return (F2 / lam[mode_hi - 1], F2 / lam[mode_lo - 1])
    if profile not in ("two_scale", "uniform_N", "linear_increasing", "linear_decreasing"):
        raise ValueError(f"profile {profile!r} has no closed-form dual strength")
    return float(np.sum(_profile_weights(profile, F2, len(lam), mode_lo, mode_hi, None) / lam))


def profile_modes_bound(profile: str, constants: Constants, F_tilde: float, grid: Grid,
                        mode_lo: int = 1, mode_hi: int = 1):
    """
    Determining-modes bound (exact eigenvalues) specialised to a forcing
    spatial distribution.

    Returns an integer m, except for the band profile where an inclusive
    (m_low, m_high) interval is returned.
    """
    strength = profile_dual_strength(profile, F_tilde, grid, mode_lo, mode_hi)
    if isinstance(strength, tuple):
        lo, hi = strength
        return (modes_bound(constants, math.sqrt(lo), "exact_eigenvalues", grid),
                modes_bound(constants, math.sqrt(hi), "exact_eigenvalues", grid))
    return modes_bound(constants, math.sqrt(strength), "exact_eigenvalues", grid)


def _nodes_terms(cst: Constants, F_tilde: float) -> tuple[float, ...]:
    """
    The one statement of the nodes bound's sufficiency threshold
        scale * (t1 + pre * (lin + exp1 * g) + exp2 * g),  g = exp(e),
    as (scale, t1, pre, lin, exp1, exp2, e).  t1 < 0 for nu_r < alpha / 4.
    """
    F = float(F_tilde)
    return (cst.c / (cst.lambda1 * cst.k1),
            8.0 * cst.nu_r**2 / cst.alpha - 2.0 * cst.nu_r,
            cst.c1**2 * math.sqrt(cst.c) / (cst.lambda1 * cst.nu) + cst.c1 / cst.alpha,
            (5.0 * cst.alpha * cst.k2 + 32.0 * cst.nu_r**2) / (cst.alpha * cst.k1**2 * cst.k2) * F**2,
            16.0 * cst.C * cst.chat1 / (cst.alpha * cst.nu * cst.k1**2 * cst.k2**3) * F**6,
            16.0 * cst.c1**4 * cst.chat1 / (cst.lambda1 * cst.alpha * cst.nu * cst.k1 * cst.k2) * F**4,
            cst.chat2 + cst.chat3 * F**4)


def nodes_bound(constants: Constants, F_tilde: float) -> int:
    """
    Number of determining nodes: ceiling of the closed-form sufficiency
    threshold, floored at one node and rounded up to the next perfect
    square so an s x s covering exists.  The threshold is the float sum
    of its terms (:func:`_nodes_terms`) where that is finite, and else
    10 ** :func:`nodes_bound_log10`; beyond float range it raises
    ``OverflowError``.
    """
    scale, t1, pre, lin, exp1, exp2, e = _nodes_terms(constants, F_tilde)
    try:
        grow = math.exp(e)
        value = scale * (t1 + pre * (lin + exp1 * grow) + exp2 * grow)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        log10 = nodes_bound_log10(constants, F_tilde)
        try:
            value = 10.0 ** log10
        except OverflowError:
            raise OverflowError(f"nodes bound overflows float range; "
                                f"log10 of the bound is ~{log10:.3g}") from None
    n_min = max(1, math.ceil(value))
    side = math.isqrt(n_min - 1) + 1
    return side * side


def _log_sum_exp(log_terms: list[float]) -> float:
    """log(sum(exp(v))) of the terms without overflow; -inf for no terms."""
    if not log_terms:
        return -math.inf
    peak = max(log_terms)
    return peak + math.log(sum(math.exp(v - peak) for v in log_terms))


def nodes_bound_log10(constants: Constants, F_tilde: float) -> float:
    """
    log10 of the nodes bound's threshold, the terms of
    :func:`_nodes_terms` summed in log space: finite even when the bound
    itself overflows; 0 (the one-node floor) when the threshold is <= 0.
    """
    scale, t1, pre, lin, exp1, exp2, e = _nodes_terms(constants, F_tilde)
    log_terms = [math.log(x) for x in (t1, pre * lin) if x > 0]
    log_terms += [math.log(x) + e for x in (pre * exp1, exp2) if x > 0]
    if not log_terms:
        return 0.0
    log_sum = _log_sum_exp(log_terms)
    if t1 < 0:
        # nu_r < alpha / 4: the first term is negative and may outweigh the rest
        if log_sum <= math.log(-t1):
            return 0.0
        log_sum += math.log1p(t1 * math.exp(-log_sum))
    return (log_sum + math.log(scale)) / math.log(10.0)


def attractor_bound(constants: Constants, f_l2: float, g_l2: float) -> int:
    """
    Attractor-dimension integer N from the sandwich
    N - 1 < 2 C0 (k1^3 k2)^(-1/2) (|f|^2+|g|^2)^(1/2) <= N;
    the Hausdorff bound is N and the fractal bound 2N.
    """
    cst = constants
    x = 2.0 * cst.C0 * (cst.k1**3 * cst.k2) ** (-0.5) * math.hypot(f_l2, g_l2)
    return max(0, math.ceil(x))


# ---------------------------------------------------------------------------
# Trajectory audits
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    """One audited inequality: left/right sides, margin and a verdict."""

    check_name: str
    left: float
    right: float
    margin: float
    violated: bool
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {"check_name": self.check_name, "left": self.left, "right": self.right,
               "margin": self.margin, "violated": self.violated}
        rec.update({k: v for k, v in self.details.items()})
        return rec


@dataclass
class BallReport:
    """Absorbing-ball audit: entry time and persistence inside the ball."""

    radius_sq: float
    entered_at: float | None
    remained: bool
    final_inside: bool
    max_after_entry: float
    violated: bool


def detect_transient(times: np.ndarray, energy: np.ndarray) -> int | None:
    """
    First sample index after which the energy stays within 2 % of its
    window mean over a horizon of a fifth of the samples.  Returns None
    when no settled window exists.
    """
    n = len(energy)
    h = max(2, int(0.2 * n))
    scale = float(np.max(energy)) if n else 0.0
    for i in range(0, n - h + 1):
        win = energy[i: i + h]
        mean = float(np.mean(win))
        if mean <= 1e-12 * max(scale, 1e-300):
            return i
        if np.max(np.abs(win - mean)) <= 0.02 * mean:
            return i
    return None


def _required(traj: SimulationResult, names: Sequence[str]) -> None:
    missing = [n for n in names if n not in traj.series]
    if missing:
        raise ValueError(f"trajectory record lacks required series {missing}")


def verify_energy_inequality(traj: SimulationResult, constants: Constants,
                             slack: float = 0.05, max_pairs: int = 200) -> CheckReport:
    """
    Audit of the integrated L2 energy inequality over all ordered sample
    pairs (t0, t):

        E(t) <= exp(-k2 (t-t0)) E(t0)
                + k2^-2 (1 - exp(-k2 (t-t0))) sup(|f|^2+|g|^2)

    with multiplicative ``slack`` plus a dt-proportional additive
    allowance.  Reports the worst ratio of left to allowed right side.
    """
    _required(traj, ["u_l2_sq", "omega_l2_sq", "f_l2_sq", "g_l2_sq"])
    t = traj.times
    E = traj.series["u_l2_sq"] + traj.series["omega_l2_sq"]
    F2 = traj.series["f_l2_sq"] + traj.series["g_l2_sq"]
    k2 = constants.k2
    idx = np.linspace(0, len(t) - 1, min(len(t), max_pairs)).astype(int)
    additive = traj.dt * max(float(np.max(E)), 1e-300)

    worst = 0.0
    worst_pair = (0.0, 0.0)
    # running sup of the forcing from each start index forward
    for a_pos, a in enumerate(idx):
        sup_f = 0.0
        prev = a
        for b in idx[a_pos + 1:]:
            sup_f = max(sup_f, float(np.max(F2[prev: b + 1])))
            prev = b
            decay = math.exp(-k2 * (t[b] - t[a]))
            bound = decay * E[a] + (1.0 - decay) * sup_f / k2**2
            ratio = E[b] / (bound * (1.0 + slack) + additive)
            if ratio > worst:
                worst = ratio
                worst_pair = (float(t[a]), float(t[b]))
    return CheckReport(
        check_name="energy_inequality",
        left=worst, right=1.0, margin=1.0 - worst, violated=worst > 1.0,
        details={"worst_pair": worst_pair, "slack": slack, "additive": additive},
    )


def verify_absorbing_ball(traj: SimulationResult, constants: Constants,
                          strength: ForceStrength, slack: float = 0.05) -> BallReport:
    """
    Check that |u|^2 + |omega|^2 enters the ball of squared radius
    2 F~^2 / k2^2 (inflated by ``slack`` plus a dt allowance) and stays.
    """
    _required(traj, ["u_l2_sq", "omega_l2_sq"])
    E = traj.series["u_l2_sq"] + traj.series["omega_l2_sq"]
    t = traj.times
    radius_sq = 2.0 * strength.F_tilde**2 / constants.k2**2
    allowed = radius_sq * (1.0 + slack) + traj.dt * max(float(np.max(E)), 1e-300)
    inside = E <= allowed
    if not np.any(inside):
        # still in transit toward the ball: reported, not a violation
        return BallReport(radius_sq, None, False, False, float(np.max(E)), violated=False)
    first = int(np.argmax(inside))
    remained = bool(np.all(inside[first:]))
    return BallReport(
        radius_sq=radius_sq,
        entered_at=float(t[first]),
        remained=remained,
        final_inside=bool(inside[-1]),
        max_after_entry=float(np.max(E[first:])),
        violated=not remained,
    )


def _post_transient_slice(traj: SimulationResult) -> tuple[slice, bool]:
    E = traj.series["u_l2_sq"] + traj.series["omega_l2_sq"]
    start = detect_transient(traj.times, E)
    if start is None:
        return slice(len(E) // 2, None), False
    return slice(start, None), True


def verify_time_averages(traj: SimulationResult, constants: Constants,
                         strength: ForceStrength, slack: float = 0.05) -> list[CheckReport]:
    """
    Post-transient window averages against the three closed-form bounds:
    the H1 average 2 F~^2 / (k1 k2), its dual-norm variant 2 F~_{-1}^2 / k1^2,
    and the D(A) average with the chat constants plugged in (compared in log
    space because its right side is exponentially loose).
    """
    _required(traj, ["u_h1_sq", "omega_h1_sq", "u_da_sq", "omega_da_sq"])
    cst = constants
    window, settled = _post_transient_slice(traj)
    if len(traj.times[window]) < 4:
        raise ValueError(
            f"averaging window holds {len(traj.times[window])} samples, need at least 4"
        )
    h1 = float(np.mean(traj.series["u_h1_sq"][window] + traj.series["omega_h1_sq"][window]))
    da = float(np.mean(traj.series["u_da_sq"][window] + traj.series["omega_da_sq"][window]))
    F = strength.F_tilde
    Fm1 = strength.F_tilde_minus1

    reports = []
    right = 2.0 * F**2 / (cst.k1 * cst.k2) * (1 + slack)
    reports.append(CheckReport("h1_time_average", h1, right, right - h1,
                               violated=h1 > right, details={"settled": settled}))
    right = 2.0 * Fm1**2 / cst.k1**2 * (1 + slack)
    reports.append(CheckReport("h1_time_average_dual", h1, right, right - h1,
                               violated=h1 > right, details={"settled": settled}))

    log_terms = []
    base = (5.0 / cst.k1**2 + 32.0 * cst.nu_r**2 / (cst.alpha * cst.k1**2 * cst.k2)) * F**2
    if base > 0:
        log_terms.append(math.log(base))
    if F > 0:
        coef = 16.0 * cst.C * cst.chat1 / (cst.alpha**2 * cst.nu * cst.k1**2 * cst.k2**3) * F**6
        log_terms.append(math.log(coef) + cst.chat2 + cst.chat3 * F**4)
    log_right = _log_sum_exp(log_terms) + math.log1p(slack)
    log_left = math.log(da) if da > 0 else -math.inf
    right_val = math.exp(log_right) if log_right < 700 else math.inf
    reports.append(CheckReport("da_time_average", da, right_val, log_right - log_left,
                               violated=log_left > log_right,
                               details={"settled": settled, "log10_right": log_right / math.log(10)
                                        if math.isfinite(log_right) else None}))
    return reports


def verify_h1_bound(traj: SimulationResult, constants: Constants,
                    strength: ForceStrength, slack: float = 0.05) -> CheckReport:
    """
    Pointwise post-transient H1 bound chat1 F~^2 exp(chat2 + chat3 F~^4),
    compared in log space; for zero forcing both sides vanish up to the dt
    allowance.
    """
    _required(traj, ["u_h1_sq", "omega_h1_sq"])
    cst = constants
    window, settled = _post_transient_slice(traj)
    full_h1 = traj.series["u_h1_sq"] + traj.series["omega_h1_sq"]
    h1 = full_h1[window]
    left = float(np.max(h1)) if len(h1) else 0.0
    F = strength.F_tilde
    additive = traj.dt * max(float(np.max(full_h1)), 1e-300)
    if F == 0:
        violated = left > additive
        return CheckReport("h1_pointwise_bound", left, additive, additive - left, violated,
                           details={"settled": settled, "zero_forcing": True})
    log_right = math.log(cst.chat1 * F**2 * (1 + slack)) + cst.chat2 + cst.chat3 * F**4
    log_left = math.log(left) if left > 0 else -math.inf
    right_val = math.exp(log_right) if log_right < 700 else math.inf
    return CheckReport("h1_pointwise_bound", left, right_val, log_right - log_left,
                       violated=log_left > log_right,
                       details={"settled": settled,
                                "log10_right": log_right / math.log(10)})
