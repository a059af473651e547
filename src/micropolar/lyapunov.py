"""
Tangent-linear dynamics, Lyapunov spectra and attractor-dimension
diagnostics.

Perturbation pairs (V, Z) evolve under the dynamics linearized about a
co-integrated base trajectory, re-orthonormalized periodically by modified
Gram-Schmidt in the product L2 inner product (Benettin's method).  The
trace of the linearized generator restricted to the evolving span is
sampled at each re-orthonormalization and feeds the volume-element bound
q_N <= -kappa1 N^2 + kappa2; the pointwise Sobolev-Lieb-Thirring ratio
|rho|^2 / sum ||phi_j||_H1^2 is measured with exact zero-padded quadrature
to fit an empirical shape constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from micropolar import spectral
from micropolar.dynamics import (Forcing, NumericsError, Params, State, _explicit_terms,
                                 _random_scalars, _Stepper, _to_half, _whole_steps,
                                 _Workspace)
from micropolar.estimates import Constants
from micropolar.spectral import (
    FieldError,
    Grid,
    ScalarField,
    VectorField,
    _full_from_half,
    _half_to_phys,
    _leray_arrays,
    _product_energy,
)

__all__ = [
    "LyapunovReport",
    "TraceSeries",
    "tangent_rhs",
    "lyapunov_spectrum",
    "trace_PN",
    "lieb_thirring_check",
    "kaplan_yorke_dimension",
    "random_tangent_pairs",
]


@dataclass
class TraceSeries:
    """Sampled trace of the linearized generator on the evolving span."""

    times: np.ndarray
    trace: np.ndarray
    running_average: np.ndarray
    sum_h1_sq: np.ndarray
    rho_l2: np.ndarray
    base_h1: np.ndarray


@dataclass
class LyapunovReport:
    """Benettin-run output with the dimension bound comparison."""

    exponents: np.ndarray
    partial_sums: np.ndarray
    kaplan_yorke: float | None
    ky_undetermined: bool
    trace: TraceSeries
    exponent_history_times: np.ndarray
    exponent_history: np.ndarray
    converged: bool
    kappa1: float | None = None
    kappa2: float | None = None
    bound_N: int | None = None
    bound_2N: int | None = None
    C0_used: float | None = None
    C0_fitted: float | None = None
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Tangent right-hand side
# ---------------------------------------------------------------------------

def tangent_rhs(base: State, perturbation: tuple[VectorField, ScalarField],
                params: Params) -> tuple[VectorField, ScalarField]:
    """
    Linearization of the autonomous right-hand side about ``base`` applied
    to one perturbation pair; matches the directional finite difference of
    :func:`micropolar.dynamics.rhs` to first order.
    """
    V, Z = perturbation
    grid = base.grid
    if V.grid != grid or Z.grid != grid:
        raise FieldError("perturbation lives on a different grid than the base")
    Vb = V.stacked()[None]
    Zb = Z.coeffs[None]
    W = base.omega.coeffs
    zero = np.zeros_like(W)
    *_, EV, EZ = _explicit_terms(grid, params, base.u.stacked(), W, zero, zero, V=Vb, Z=Zb)
    visc = (params.nu + params.nu_r) * grid.lam
    dV = _full_from_half(grid, EV[0]) - visc * Vb[0]
    dZ = _full_from_half(grid, EZ[0]) - (params.alpha * grid.lam + 4.0 * params.nu_r) * Zb[0]
    return VectorField.from_coeffs(grid, dV[0], dV[1]), ScalarField(grid, dZ)


# ---------------------------------------------------------------------------
# Orthonormalization and quadrature helpers
# ---------------------------------------------------------------------------

def _pair_inner(grid: Grid, V1, Z1, V2, Z2) -> float:
    s = np.sum(V1[0] * np.conj(V2[0]) + V1[1] * np.conj(V2[1]) + Z1 * np.conj(Z2))
    return float(grid.area * s.real)


def _mgs(grid: Grid, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """In-place modified Gram-Schmidt in the product inner product;
    returns the growth factors (diagonal of R)."""
    if not (np.isfinite(V.view(np.float64)).all() and np.isfinite(Z.view(np.float64)).all()):
        raise NumericsError("non-finite tangent pairs at re-orthonormalization")
    N = V.shape[0]
    norms = np.empty(N)
    for j in range(N):
        before = math.sqrt(_pair_inner(grid, V[j], Z[j], V[j], Z[j]))
        for i in range(j):
            proj = _pair_inner(grid, V[j], Z[j], V[i], Z[i])
            V[j] -= proj * V[i]
            Z[j] -= proj * Z[i]
        nrm = math.sqrt(_pair_inner(grid, V[j], Z[j], V[j], Z[j]))
        if nrm <= 1e-14 * before or nrm == 0.0:
            raise RuntimeError(
                f"rank loss during re-orthonormalization (vector {j}: "
                f"residual {nrm:.3e} of {before:.3e})"
            )
        V[j] /= nrm
        Z[j] /= nrm
        norms[j] = nrm
    return norms


def _padded_phys(coeffs: np.ndarray, n: int, pad: int) -> np.ndarray:
    """Samples on a (pad*n)^2 lattice of Hermitian spectra, zero padded into a
    real half plane whose nonzero columns k2 = 0..n/2 are all that is passed."""
    m, h = pad * n, n // 2
    rows = np.fft.fftfreq(n, 1.0 / n).astype(int) % m
    fine = np.zeros(coeffs.shape[:-2] + (m, h + 1), dtype=np.complex128)
    fine[..., rows, :h] = coeffs[..., :h]
    # the Nyquist lines k1, k2 = -n/2 are self-conjugate on the coarse grid only:
    # the real field keeps half of each at -n/2 and the conjugate half at +n/2
    fine[..., h, :h] = fine[..., m - h, :h] = 0.5 * coeffs[..., h, :h]
    fine[..., -rows % m, h] = 0.5 * np.conj(coeffs[..., h])
    return _half_to_phys(fine)


def _rho_and_h1(grid: Grid, V: np.ndarray, Z: np.ndarray) -> tuple[float, float, np.ndarray, float]:
    """
    |rho|_{L2} for rho(x) = sum_j (|v_j|^2 + |z_j|^2), evaluated with exact
    zero-padded quadrature, plus sum_j ||phi_j||_H1^2, per-pair H1 norms
    and the integral of rho.
    """
    v_fine = _padded_phys(V, grid.n, 2)
    rho = np.sum(v_fine[:, 0] ** 2 + v_fine[:, 1] ** 2, axis=0) \
        + np.sum(_padded_phys(Z, grid.n, 2) ** 2, axis=0)
    rho_l2 = math.sqrt(grid.area * float(np.mean(rho**2)))
    h1_each = grid.area * np.sum(
        grid.lam * (np.abs(V[:, 0]) ** 2 + np.abs(V[:, 1]) ** 2 + np.abs(Z) ** 2), axis=(1, 2)
    ).real
    return rho_l2, float(np.sum(h1_each)), h1_each, grid.area * float(np.mean(rho))


def _trace_sample(grid: Grid, params: Params, U: np.ndarray, W: np.ndarray,
                  V: np.ndarray, Z: np.ndarray, work: _Workspace | None = None) -> dict:
    """
    Trace of the linearized generator on the orthonormal span,
    -sum_j [a(phi_j, phi_j) + B(phi_j, ubar, phi_j) + R(phi_j, phi_j)],
    taken as sum_j Re <E(phi_j), phi_j> from the explicit tangent terms E of
    :func:`micropolar.dynamics._explicit_terms` minus the diagonal part
    sum_j [(nu + nu_r) ||v_j||^2 + alpha ||z_j||^2 + 4 nu_r |z_j|^2].
    The two agree because b(u, v_j, v_j) = 0 and the Leray gradient is
    orthogonal to the divergence-free, dealiased span.  The base may be half or band planes.
    The kernel runs in ``work``, a workspace for 1 + N members that holds
    nothing live at the call (the run's stepper between steps), or a fresh one.
    """
    zero = np.zeros_like(W)
    *_, EV, EZ = _explicit_terms(grid, params, U, W, zero, zero, V=V, Z=Z, work=work)
    explicit = np.sum(_full_from_half(grid, EV) * np.conj(V)).real \
        + np.sum(_full_from_half(grid, EZ) * np.conj(Z)).real
    lam = grid.lam
    h1_v = np.sum(lam * (np.abs(V[:, 0]) ** 2 + np.abs(V[:, 1]) ** 2))
    diagonal = (params.nu + params.nu_r) * h1_v \
        + np.sum((params.alpha * lam + 4.0 * params.nu_r) * np.abs(Z) ** 2)
    trace = grid.area * float(explicit - diagonal)
    rho_l2, sum_h1, h1_each, _ = _rho_and_h1(grid, V, Z)
    m = grid.n // 2 + 1
    base_h1 = math.sqrt(_product_energy(grid, U[..., :m], W[..., :m], lam))
    return {"trace": trace, "sum_h1_sq": sum_h1, "rho_l2": rho_l2, "base_h1": base_h1,
            "h1_each": h1_each}


# ---------------------------------------------------------------------------
# Benettin co-integration
# ---------------------------------------------------------------------------

def random_tangent_pairs(grid: Grid, count: int, seed: int, kmax: int = 4,
                         velocity_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Seeded band-limited tangent pairs as raw arrays (not yet orthonormal)."""
    per = 2 if velocity_only else 3
    s = _random_scalars(grid, np.random.default_rng(seed), kmax, count * per)
    s = s.reshape(count, per, grid.n, grid.n)
    V = np.stack(_leray_arrays(grid, s[:, 0], s[:, 1]), axis=1)
    Z = np.zeros_like(s[:, 0]) if velocity_only else s[:, 2].copy()
    return V, Z


class _TangentRun:
    """Co-integrates a base trajectory (half, then band planes) and N tangent pairs."""

    def __init__(self, initial: State, params: Params, forcing: Forcing, count: int,
                 dt: float, reorth_interval: int = 10, seed: int = 0,
                 velocity_only: bool = False):
        if count < 1:
            raise ValueError("need at least one tangent pair")
        if reorth_interval < 1:
            raise ValueError("re-orthonormalization interval must be >= 1 steps")
        if velocity_only and params.nu_r != 0.0:
            raise ValueError("velocity-only tangents are exact only for nu_r = 0")
        grid = initial.grid
        # the pairs live in the dealiased band, (2 kcut + 1)^2 - 1 real
        # dimensions per field, with Z = 0 for velocity-only pairs
        dim = ((2 * grid.kcut + 1) ** 2 - 1) * (1 if velocity_only else 2)
        if count > dim:
            raise ValueError(f"tangent count {count} exceeds the mode budget of the "
                             f"dealiased band, {dim} real dimensions at n={grid.n}")
        self.grid, self.dt = grid, dt
        self.velocity_only = velocity_only
        self.reorth_interval = reorth_interval

        self.base = _Stepper(grid, params, forcing, dt)
        self.U, self.W = _to_half(initial)
        self.t0 = initial.t
        self.t = initial.t

        self.V, self.Z = random_tangent_pairs(grid, count, seed, velocity_only=velocity_only)
        _mgs(grid, self.V, self.Z)
        self.log_sums = np.zeros(count)

    def _advance_block(self) -> None:
        """One reorth block: reorth_interval coupled steps of the base and
        its pairs on band planes, then MGS."""
        V, Z = self.V, self.Z
        for _ in range(self.reorth_interval):
            self.U, self.W, V, Z = self.base.advance(self.U, self.W, self.t, V, Z)
            if self.velocity_only:
                # exact: with nu_r = 0 no velocity term reads Z
                Z[...] = 0.0
            self.t += self.dt
        self.V = _full_from_half(self.grid, V)
        self.Z = _full_from_half(self.grid, Z)
        growth = _mgs(self.grid, self.V, self.Z)
        self.log_sums += np.log(growth)


def _assemble_trace(times: list[float], samples: list[dict]) -> TraceSeries:
    t = np.asarray(times)
    tr = np.asarray([s["trace"] for s in samples])
    if len(t) > 1:
        integral = np.concatenate([[0.0], np.cumsum(0.5 * (tr[1:] + tr[:-1]) * np.diff(t))])
        with np.errstate(invalid="ignore", divide="ignore"):
            running = np.where(t > t[0], integral / np.maximum(t - t[0], 1e-300), tr)
        running[0] = tr[0]
    else:
        running = tr.copy()
    return TraceSeries(
        times=t, trace=tr, running_average=running,
        sum_h1_sq=np.asarray([s["sum_h1_sq"] for s in samples]),
        rho_l2=np.asarray([s["rho_l2"] for s in samples]),
        base_h1=np.asarray([s["base_h1"] for s in samples]),
    )


def kaplan_yorke_dimension(exponents: np.ndarray) -> tuple[float | None, bool]:
    """
    Kaplan-Yorke dimension j + (mu_1+...+mu_j)/|mu_{j+1}| at the crossover.
    Returns (None, True) when every partial sum stays nonnegative within the
    computed exponents (crossover not bracketed).
    """
    mu = np.sort(np.asarray(exponents))[::-1]
    sums = np.cumsum(mu)
    if mu[0] < 0:
        return 0.0, False
    nonneg = np.nonzero(sums >= 0)[0]
    if len(nonneg) == len(mu):
        return None, True
    j = int(nonneg[-1]) + 1 if len(nonneg) else 0
    return float(j + sums[j - 1] / abs(mu[j])) if j > 0 else 0.0, False


def lyapunov_spectrum(initial: State, params: Params, forcing: Forcing, count: int,
                      t_span: float, dt: float, reorth_interval: int = 10, seed: int = 0,
                      constants: Constants | None = None,
                      velocity_only: bool = False) -> LyapunovReport:
    """
    Benettin estimate of the leading ``count`` Lyapunov exponents along one
    trajectory (an ergodic proxy for the attractor-uniform exponents; the
    gap is recorded in the report metadata).  Also samples the restricted
    trace at every re-orthonormalization and, when ``constants`` are given,
    compares the Kaplan-Yorke dimension against the volume-element bound.
    """
    run = _TangentRun(initial, params, forcing, count, dt, reorth_interval, seed,
                      velocity_only)

    def sample() -> dict:
        return _trace_sample(run.grid, params, run.U, run.W, run.V, run.Z, run.base.work)

    nblocks = max(1, _whole_steps(t_span, dt * reorth_interval))
    times = [run.t]
    samples = [sample()]
    hist_t: list[float] = []
    hist: list[np.ndarray] = []
    for _ in range(nblocks):
        run._advance_block()
        times.append(run.t)
        samples.append(sample())
        hist_t.append(run.t - run.t0)
        hist.append(run.log_sums / (run.t - run.t0))

    exponents = np.sort(hist[-1])[::-1]
    history = np.asarray(hist)
    hist_t_arr = np.asarray(hist_t)
    # settled when the sorted estimates move less than 1 % of the largest
    # exponent magnitude over the trailing half of the run
    half = len(history) // 2
    scale = max(float(np.max(np.abs(exponents))), 1e-12)
    drift = float(np.max(np.abs(np.sort(history[half:], axis=1) - np.sort(history[-1])))) \
        if half >= 1 else math.inf
    converged = drift <= 0.01 * scale

    trace = _assemble_trace(times, samples)
    ky, undetermined = kaplan_yorke_dimension(exponents)

    report = LyapunovReport(
        exponents=exponents,
        partial_sums=np.cumsum(exponents),
        kaplan_yorke=ky,
        ky_undetermined=undetermined,
        trace=trace,
        exponent_history_times=hist_t_arr,
        exponent_history=history,
        converged=converged,
        meta={"count": count, "dt": dt, "reorth_interval": reorth_interval,
              "seed": seed, "velocity_only": velocity_only, "t_span": t_span,
              "exponent_estimator": "single-trajectory ergodic proxy"},
    )
    if constants is not None:
        from micropolar.estimates import attractor_bound

        c0_fit = float(np.max(trace.rho_l2**2 / np.maximum(trace.sum_h1_sq, 1e-300)))
        f_l2 = spectral.norm(forcing.f_at(initial.t))
        g_l2 = spectral.norm(forcing.g_at(initial.t))
        G2 = f_l2**2 + g_l2**2
        report.kappa1 = constants.k1 / (2.0 * c0_fit * initial.grid.area)
        report.kappa2 = c0_fit * G2 / (constants.k1**2 * constants.k2)
        report.bound_N = attractor_bound(constants, f_l2, g_l2)
        report.bound_2N = 2 * report.bound_N
        report.C0_used = constants.C0
        report.C0_fitted = c0_fit
    return report


def trace_PN(initial: State, params: Params, forcing: Forcing, count: int,
             t_span: float, dt: float, reorth_interval: int = 10,
             seed: int = 0) -> TraceSeries:
    """
    Trace of the linearized generator composed with the projector onto the
    leading ``count``-dimensional evolving subspace, sampled along the run,
    with its running time average.
    """
    report = lyapunov_spectrum(initial, params, forcing, count, t_span, dt,
                               reorth_interval, seed)
    return report.trace


def lieb_thirring_check(pairs, grid: Grid | None = None) -> dict:
    """
    For an orthonormal family of pairs, the ratio |rho|^2 / sum ||phi_j||^2
    with rho(x) = sum_j (|v_j(x)|^2 + |z_j(x)|^2), plus the Schwartz lower
    pieces (integral of rho equals the family size N, and N^2 <= |Q| |rho|^2).
    Rejects families whose Gram matrix deviates from identity by more than
    1e-8.
    """
    plist = list(pairs)
    if grid is None:
        grid = plist[0][0].grid
    N = len(plist)
    V = np.stack([np.stack([v.u1.coeffs, v.u2.coeffs]) for v, _ in plist])
    Z = np.stack([z.coeffs for _, z in plist])

    gram = np.empty((N, N))
    for i in range(N):
        for j in range(N):
            gram[i, j] = _pair_inner(grid, V[i], Z[i], V[j], Z[j])
    dev = float(np.max(np.abs(gram - np.eye(N))))
    if dev > 1e-8:
        raise ValueError(f"family is not orthonormal (Gram deviation {dev:.3e})")

    rho_l2, sum_h1, h1_each, rho_integral = _rho_and_h1(grid, V, Z)
    return {
        "ratio": rho_l2**2 / sum_h1,
        "rho_l2": rho_l2,
        "sum_h1_sq": sum_h1,
        "h1_each": h1_each,
        "rho_integral": rho_integral,
        "schwartz_lhs": N**2,
        "schwartz_rhs": grid.area * rho_l2**2,
        "gram_deviation": dev,
    }
