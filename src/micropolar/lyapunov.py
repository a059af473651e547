"""
Tangent-linear dynamics, Lyapunov spectra and attractor-dimension
diagnostics.

Perturbation pairs (V, Z) evolve under the dynamics linearized about a
co-integrated base trajectory, as dealiased blocks, re-orthonormalized
periodically by one QR in the product L2 inner product (Benettin's
method).  The trace of the linearized generator restricted to the evolving
span is sampled at each re-orthonormalization and feeds the volume-element bound
q_N <= -kappa1 N^2 + kappa2; the pointwise Sobolev-Lieb-Thirring ratio
|rho|^2 / sum ||phi_j||_H1^2 is measured with exact zero-padded quadrature
to fit an empirical shape constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from micropolar.dynamics import (Forcing, NumericsError, Params, State, _explicit_terms,
                                 _projected_terms, _random_scalars, _Stepper, _to_half,
                                 _whole_steps, _Workspace)
from micropolar.estimates import Constants
from micropolar.spectral import (FieldError, Grid, ScalarField, VectorField, _block,
                                 _column_weights, _half_to_phys, _leray_arrays, _power,
                                 _product_energies, _real_weights, _slots, _unblock)

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

# (f_hat, g_hat) of no forcing, zeros that broadcast over any plane: the
# tangent terms take none
_UNFORCED = (np.zeros((2, 1, 1)), np.zeros((1, 1)))

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
    *_, EV, EZ = _explicit_terms(grid, params, base.u.stacked(), W, *_UNFORCED, V=Vb, Z=Zb)
    terms = _projected_terms(grid, EV[0], EZ[0])
    visc = (params.nu + params.nu_r) * grid.lam
    dV = terms[:2] - visc * Vb[0]
    dZ = terms[2] - (params.alpha * grid.lam + 4.0 * params.nu_r) * Zb[0]
    return VectorField.from_coeffs(grid, dV[0], dV[1]), ScalarField(grid, dZ)


# ---------------------------------------------------------------------------
# Orthonormalization and quadrature helpers
# ---------------------------------------------------------------------------

def _mgs(grid: Grid, pairs: np.ndarray) -> np.ndarray:
    """
    Re-orthonormalizes, in place, the dealiased blocks of tangent pairs
    ``pairs[N, 3, 2 kcut + 1, kcut + 1]`` (v1, v2, z) in the product L2
    inner product, by one Householder QR of their weighted real views
    (Benettin's method needs some QR), and returns the growth factors
    |R_jj|.  A residual of at most
    1e-14 of its vector's norm is rank loss.  (The name is that of the
    Gram-Schmidt loop this replaced, under which perfbench times it.)
    """
    real = pairs.view(np.float64)
    if not np.isfinite(real).all():
        raise NumericsError("non-finite tangent pairs at re-orthonormalization")
    weights = _real_weights(grid, pairs.shape[-1])
    frame = (real * weights).reshape(len(pairs), -1)
    q, r = np.linalg.qr(frame.T)
    growth = np.abs(np.diagonal(r))
    before = np.sqrt(np.einsum("is,is->i", frame, frame))
    lost = np.flatnonzero((growth <= 1e-14 * before) | (growth == 0.0))
    if len(lost):
        j = lost[0]
        raise RuntimeError(f"rank loss during re-orthonormalization (vector {j}: "
                           f"residual {growth[j]:.3e} of {before[j]:.3e})")
    np.divide((q * np.sign(np.diagonal(r))).T.reshape(real.shape), weights, out=real)
    # the reflections leave roundoff in Q's rows at k = 0, zero in the frame
    pairs[..., 0, 0] = 0.0
    return growth


def _padded_phys(coeffs: np.ndarray, n: int, pad: float,
                 buffers: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Samples on a (pad*n)^2 lattice of the Hermitian spectra whose columns
    k2 = 0..w-1 are ``coeffs[..., n, w]`` (half planes, or full spectra, of
    which k2 <= n/2 is read), or whose band is the dealiased block
    ``coeffs``, zero padded into a half plane.  Given ``buffers`` (the
    padded half planes and the samples, of the shapes that this call would
    allocate), it writes into them."""
    m, h = round(pad * n), n // 2
    w = min(coeffs.shape[-1], h + 1)
    c = min(w, h)
    fine, samples = buffers or (np.empty(coeffs.shape[:-2] + (m, w), dtype=np.complex128),
                                np.empty(coeffs.shape[:-2] + (m, m)))
    if coeffs.shape[-2] != n:
        # a block's rows k1 = 0..kcut and -kcut..-1 sit below the Nyquist lines
        return _half_to_phys(_unblock(coeffs, fine), out=samples)
    rows = np.fft.fftfreq(n, 1.0 / n).astype(int) % m
    fine[...] = 0.0
    fine[..., rows, :c] = coeffs[..., :c]
    # the Nyquist lines k1, k2 = -n/2 are self-conjugate on the coarse grid only:
    # the real field keeps half of each at -n/2 and the conjugate half at +n/2
    fine[..., h, :c] = fine[..., m - h, :c] = 0.5 * coeffs[..., h, :c]
    if w > h:
        fine[..., -rows % m, h] = 0.5 * np.conj(coeffs[..., h])
    # above spectral._DENSE_DFT_MAX_N padded points the axis-0 stage runs in
    # place in fine; on padded lattices of at most that many (n <= 21) the
    # dense product allocates its stage
    return _half_to_phys(fine, out=samples)


def _rho_and_h1(grid: Grid, pairs: np.ndarray,
                padded: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[float, float, np.ndarray, float]:
    """
    |rho|_{L2} for rho(x) = sum_j (|v_j|^2 + |z_j|^2), evaluated with exact
    zero-padded quadrature, plus sum_j ||phi_j||_H1^2, per-pair H1 norms
    and the integral of rho, of pairs ``pairs[N, 3, rows, w]`` given as
    dealiased blocks or half planes.  The quadrature takes one pair at a
    time, in the
    buffers ``padded`` of :func:`_padded_phys` (for one pair) when given;
    rho sums the squares in order, with the bits of one sum over all pairs.
    """
    # rho^2 of blocks reaches |k_i| <= 4 kcut < 3n/2, so a (3n/2)^2
    # lattice is exact for them; half planes reach n/2 and take (2n)^2
    pad = 1.5 if pairs.shape[-2] != grid.n else 2
    rho = np.zeros((round(pad * grid.n),) * 2)
    for pair in pairs:
        samples = _padded_phys(pair, grid.n, pad, padded)
        for plane in np.square(samples, out=samples):
            rho += plane
    rho_l2 = math.sqrt(grid.area * float(np.mean(rho**2)))
    shape = pairs.shape[-2:]
    h1_each = grid.area * np.sum(_column_weights(grid, shape[-1]) * _slots(grid, shape, grid.lam)
                                 * _power(pairs), axis=(1, 2, 3))
    return rho_l2, float(np.sum(h1_each)), h1_each, grid.area * float(np.mean(rho))


def _trace_sample(grid: Grid, params: Params, U: np.ndarray, W: np.ndarray,
                  pairs: np.ndarray, terms: np.ndarray | None = None,
                  work: _Workspace | None = None,
                  padded: tuple[np.ndarray, np.ndarray] | None = None) -> dict:
    """
    Trace of the linearized generator on the orthonormal span of the
    blocks ``pairs[N, 3, 2 kcut + 1, kcut + 1]`` about the base (U, W),
    blocks, half planes or full spectra,
    -sum_j [a(phi_j, phi_j) + B(phi_j, ubar, phi_j) + R(phi_j, phi_j)],
    taken as sum_j Re <E(phi_j), phi_j> minus the diagonal part
    sum_j [(nu + nu_r) ||v_j||^2 + alpha ||z_j||^2 + 4 nu_r |z_j|^2]
    (b(u, v_j, v_j) = 0; the Leray gradient is orthogonal to the span).
    E are the pairs' explicit terms ``terms[3, N, 2 kcut + 1, kcut + 1]``,
    which a
    step's kernel call serves, as forcing does not reach them; or else the
    kernel runs in ``work`` (1 + N members, nothing live) or a fresh one.
    ``padded`` are the quadrature's buffers (see :func:`_padded_phys`).
    """
    if terms is None:
        work = work or _Workspace(grid, 1 + len(pairs))
        _explicit_terms(grid, params, U, W, *_UNFORCED, V=pairs[:, :2], Z=pairs[:, 2], work=work)
        terms = work.E[:, 1:]
    frame, weights = pairs.swapaxes(0, 1), _column_weights(grid, pairs.shape[-1])
    h1, power = weights * _slots(grid, pairs.shape[-2:], grid.lam), _power(frame)
    explicit = np.sum(weights * (terms * np.conj(frame)).real)
    diagonal = np.sum((params.nu + params.nu_r) * h1 * (power[0] + power[1])
                      + (params.alpha * h1 + 4.0 * params.nu_r * weights) * power[2])
    rho_l2, sum_h1, _, _ = _rho_and_h1(grid, pairs, padded)
    w = grid.n // 2 + 1
    base_h1 = math.sqrt(_product_energies(grid, U[..., :w], W[..., :w], grid.lam)[0])
    return {"trace": grid.area * float(explicit - diagonal), "sum_h1_sq": sum_h1,
            "rho_l2": rho_l2, "base_h1": base_h1}


# ---------------------------------------------------------------------------
# Benettin co-integration
# ---------------------------------------------------------------------------

def random_tangent_pairs(grid: Grid, count: int, seed: int, kmax: float | None = None,
                         velocity_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """
    Seeded band-limited tangent pairs as raw arrays V (count, 2, n, n) and
    Z (count, n, n), not yet orthonormal, drawn on 0 < |k| <= kmax and
    built in place in one block, which they view.  The default radius is
    4, or, when the modes of the dealiased band with |k| <= 4 span fewer
    than ``count`` pairs (48 real dimensions per field from n = 14 on), the
    smallest radius whose band modes span them.  The raw draws do not depend on the
    radius, so the pairs within |k| <= 4 keep their bits.
    """
    per = 2 if velocity_only else 3
    if kmax is None:
        kmax = _draw_radius(grid, -(-count // (per - 1)))
    s = _random_scalars(grid, np.random.default_rng(seed), kmax, count * per)
    s = s.reshape(count, per, grid.n, grid.n)
    _leray_arrays(grid, s[:, 0], s[:, 1], out=(s[:, 0], s[:, 1]))
    return s[:, :2], np.zeros_like(s[:, 0]) if velocity_only else s[:, 2]


def _draw_radius(grid: Grid, modes: int) -> float:
    """4, or the smallest radius |k| that holds ``modes`` modes of the
    dealiased band when |k| <= 4 holds fewer (all of them at most)."""
    radii = np.sort(np.sqrt(grid.k1**2 + grid.k2**2)[grid.dealias_mask & (grid.lam > 0)])
    if np.count_nonzero(radii <= 4) >= modes:
        return 4
    return float(radii[min(modes, len(radii)) - 1])


def _block_pairs(grid: Grid, count: int, seed: int, velocity_only: bool = False) -> np.ndarray:
    """:func:`random_tangent_pairs` as dealiased blocks (count, 3, 2 kcut + 1,
    kcut + 1) of (v1, v2, z), not yet orthonormal (kmax = 4 reaches beyond
    kcut below n = 14, and the blocks drop those modes): a frame holds
    nothing a step drops."""
    V, Z = random_tangent_pairs(grid, count, seed, velocity_only=velocity_only)
    return np.concatenate([_block(grid, V), _block(grid, Z)[:, None]], axis=1)


class _TangentRun:
    """Co-integrates a base trajectory and N tangent pairs, as dealiased
    blocks; the pairs are kept as ``pairs[N, 3, 2 kcut + 1, kcut + 1]``
    (v1, v2, z)."""

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

        self.pairs = _block_pairs(grid, count, seed, velocity_only)
        self.V, self.Z = self.pairs[:, :2], self.pairs[:, 2]
        # the trace samples' quadrature buffers: one pair's padded half
        # planes and their samples on the (3n/2)^2 lattice
        fine = round(1.5 * grid.n)
        self.padded = (np.empty((3, fine, grid.kcut + 1), dtype=np.complex128),
                       np.empty((3, fine, fine)))
        _mgs(grid, self.pairs)
        self.log_sums = np.zeros(count)

    def _advance_block(self) -> dict:
        """
        One reorth block: reorth_interval coupled steps of the base and its
        pairs, then one QR.  Returns the trace sample of the frame the block
        starts from, taken with the pairs' terms of its first step.
        """
        stepper = self.base
        U, W, V, Z = self.U, self.W, self.V, self.Z
        start = (U.copy(), W.copy())  # the first step overwrites the stepper's planes
        for i in range(self.reorth_interval):
            U, W, V, Z = stepper.advance(U, W, self.t, V, Z)
            if i == 0:
                # this step's terms: the frame's pairs are copied into the
                # stepper's planes, and left as they were
                sample = _trace_sample(self.grid, stepper.params, *start, self.pairs,
                                       terms=stepper.work.E_prev[:, 1:], padded=self.padded)
            if self.velocity_only:
                # exact: with nu_r = 0 no velocity term reads Z
                Z[...] = 0.0
            self.t += self.dt
        self.U, self.W = U, W
        np.copyto(self.V, V)
        np.copyto(self.Z, Z)
        self.log_sums += np.log(_mgs(self.grid, self.pairs))
        return sample


def _assemble_trace(times: list[float], samples: list[dict]) -> TraceSeries:
    """The samples, at least two, as series, with the trapezoidal running
    average of the trace."""
    t = np.asarray(times)
    series = {key: np.asarray([s[key] for s in samples])
              for key in ("trace", "sum_h1_sq", "rho_l2", "base_h1")}
    tr = series["trace"]
    integral = np.cumsum(0.5 * (tr[1:] + tr[:-1]) * np.diff(t))
    running = np.concatenate([tr[:1], integral / (t[1:] - t[0])])
    return TraceSeries(times=t, running_average=running, **series)


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
    nblocks = max(1, _whole_steps(t_span, dt * reorth_interval))
    times: list[float] = []
    samples: list[dict] = []
    hist: list[np.ndarray] = []
    for _ in range(nblocks):
        times.append(run.t)
        samples.append(run._advance_block())
        hist.append(run.log_sums / (run.t - run.t0))
    # the last frame has no next step: its terms come from the kernel
    times.append(run.t)
    samples.append(_trace_sample(run.grid, params, run.U, run.W, run.pairs, work=run.base.work,
                                 padded=run.padded))

    exponents = np.sort(hist[-1])[::-1]
    history = np.asarray(hist)
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
        exponent_history_times=np.asarray(times[1:]) - run.t0,
        exponent_history=history,
        converged=converged,
        meta={"count": count, "dt": dt, "reorth_interval": reorth_interval,
              "seed": seed, "velocity_only": velocity_only, "t_span": t_span,
              "exponent_estimator": "single-trajectory ergodic proxy"},
    )
    if constants is not None:
        from micropolar.estimates import attractor_bound

        c0_fit = float(np.max(trace.rho_l2**2 / np.maximum(trace.sum_h1_sq, 1e-300)))
        f_l2 = forcing.norm("f", "L2", initial.t)
        g_l2 = forcing.norm("g", "L2", initial.t)
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
    N, w = len(plist), grid.n // 2 + 1
    half = np.stack([np.stack([v.u1.coeffs, v.u2.coeffs, z.coeffs])[..., :w] for v, z in plist])
    frame = (half.view(np.float64) * _real_weights(grid, w)).reshape(N, -1)
    dev = float(np.max(np.abs(frame @ frame.T - np.eye(N))))
    if dev > 1e-8:
        raise ValueError(f"family is not orthonormal (Gram deviation {dev:.3e})")

    rho_l2, sum_h1, h1_each, rho_integral = _rho_and_h1(grid, half)
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
