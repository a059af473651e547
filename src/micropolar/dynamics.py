"""
Governing equations and time integration for the coupled velocity /
microrotation system on the periodic torus:

    du/dt + (nu + nu_r) A u + (u.grad) u + grad p = 2 nu_r rot w + f
    div u = 0
    dw/dt + alpha A1 w + (u.grad) w + 4 nu_r w    = 2 nu_r rot u + g

with zero space averages.  The pressure gradient is eliminated by Leray
projection.  Time stepping is IMEX: Crank-Nicolson on the diagonal linear
terms ((nu+nu_r) A, alpha A1 and the 4 nu_r damping), Adams-Bashforth 2 on
advection, the 2 nu_r rot coupling and the forcing (forward Euler on the
first step).  Also provides the forcing spectral-distribution profiles,
seeded initial data and the binary checkpoint format.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from micropolar import spectral
from micropolar.spectral import (
    FieldError,
    Grid,
    ScalarField,
    VectorField,
    _full_from_half,
    _half_leray,
    _half_to_phys,
    _leray_arrays,
    _phys_to_half,
)

__all__ = [
    "CflViolationError",
    "NumericsError",
    "Params",
    "State",
    "Forcing",
    "make_forcing",
    "forcing_with_decaying_gap",
    "random_state",
    "shear_state",
    "rhs",
    "step",
    "simulate",
    "SimulationResult",
    "standard_observers",
    "write_checkpoint",
    "read_checkpoint",
    "CHECKPOINT_MAGIC",
]

FORCING_PROFILES = (
    "steady",
    "two_scale",
    "band",
    "uniform_N",
    "linear_increasing",
    "linear_decreasing",
)


class CflViolationError(RuntimeError):
    """Time step exceeds the advective CFL guard."""


class NumericsError(RuntimeError):
    """Non-finite values appeared during integration."""


@dataclass(frozen=True)
class Params:
    """Viscosity coefficients; nu_r = 0 recovers Navier-Stokes for the velocity."""

    nu: float
    nu_r: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.nu_r < 0:
            raise ValueError(f"nu_r must be nonnegative, got {self.nu_r}")


@dataclass(frozen=True)
class State:
    """Instantaneous solution (u, omega) at time t."""

    u: VectorField
    omega: ScalarField
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.u.grid != self.omega.grid:
            raise FieldError("velocity and microrotation live on different grids")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    @classmethod
    def zero(cls, grid: Grid, t: float = 0.0) -> "State":
        return cls(VectorField.zero(grid), ScalarField.zero(grid), t)

    def energy(self) -> float:
        """|u|^2 + |omega|^2."""
        return spectral.norm(self.u) ** 2 + spectral.norm(self.omega) ** 2


# ---------------------------------------------------------------------------
# Forcing
# ---------------------------------------------------------------------------

class Forcing:
    """
    External force f (divergence-free vector) and moment g (scalar).

    Steady forcings carry fixed coefficient arrays; time-dependent ones are
    built from callables returning raw coefficient arrays.
    """

    def __init__(self, grid: Grid, f_hat, g_hat, steady: bool = True,
                 profile: str | None = None, meta: dict | None = None):
        self.grid = grid
        if steady:
            f_hat = np.asarray(f_hat, dtype=np.complex128)
            g_hat = np.asarray(g_hat, dtype=np.complex128)
            f_hat.setflags(write=False)
            g_hat.setflags(write=False)
        self._f_hat = f_hat
        self._g_hat = g_hat
        self.steady = steady
        self.profile = profile
        self.meta = dict(meta or {})

    @classmethod
    def zero(cls, grid: Grid) -> "Forcing":
        shape = (grid.n, grid.n)
        return cls(grid, np.zeros((2,) + shape, dtype=np.complex128),
                   np.zeros(shape, dtype=np.complex128), steady=True, profile="zero")

    @classmethod
    def from_fields(cls, f: VectorField, g: ScalarField, profile: str | None = None) -> "Forcing":
        if f.grid != g.grid:
            raise FieldError("force and moment live on different grids")
        return cls(f.grid, f.stacked(), g.coeffs.copy(), steady=True, profile=profile)

    def f_hat(self, t: float) -> np.ndarray:
        return self._f_hat if self.steady else self._f_hat(t)

    def g_hat(self, t: float) -> np.ndarray:
        return self._g_hat if self.steady else self._g_hat(t)

    def f_at(self, t: float) -> VectorField:
        arr = self.f_hat(t)
        return VectorField.from_coeffs(self.grid, arr[0], arr[1])

    def g_at(self, t: float) -> ScalarField:
        return ScalarField(self.grid, self.g_hat(t))

    def magnitude(self, t: float = 0.0) -> float:
        """(|f|^2 + |g|^2)^(1/2) at time t."""
        return float(np.sqrt(spectral.norm(self.f_at(t)) ** 2 + spectral.norm(self.g_at(t)) ** 2))


def _profile_weights(profile: str, total: float, num_modes: int,
                     mode_lo: int, mode_hi: int, rng: np.random.Generator) -> np.ndarray:
    """Per-mode squared magnitudes m_j (1-based table entries) summing to ``total``."""
    w = np.zeros(num_modes)
    if total == 0:
        return w
    if profile == "two_scale":
        w[mode_lo - 1] = total / 2.0
        w[mode_hi - 1] = total / 2.0
    elif profile == "band":
        raw = rng.uniform(0.25, 1.0, size=mode_hi - mode_lo + 1)
        w[mode_lo - 1 : mode_hi] = raw * (total / raw.sum())
    elif profile == "uniform_N":
        w[:mode_hi] = total / mode_hi
    elif profile == "linear_increasing":
        N = mode_hi
        w[:N] = 2.0 * total * np.arange(1, N + 1) / (N * (N + 1))
    elif profile == "linear_decreasing":
        N = mode_hi
        w[:N] = 2.0 * total * (N + 1 - np.arange(1, N + 1)) / (N * (N + 1))
    elif profile == "steady":
        raw = rng.uniform(0.25, 1.0, size=mode_hi)
        w[:mode_hi] = raw * (total / raw.sum())
    else:
        raise ValueError(f"unknown forcing profile {profile!r}; expected one of {FORCING_PROFILES}")
    return w


def _real_mode_arrays(grid: Grid, weights: np.ndarray, signs: np.ndarray,
                      divergence_free: bool) -> np.ndarray:
    """
    Assemble spectra with L2 energy weights[j] in the j-th enumerated mode.

    Each conjugate pair {k, -k} carries two real modes; the earlier table
    entry maps to the cosine mode, the later to the sine mode, both built on
    the canonical representative (k1 > 0, or k1 = 0 and k2 > 0).  For
    divergence-free vector modes the polarization is (-k2, k1)/|k|.
    """
    n = grid.n
    shape = (2, n, n) if divergence_free else (1, n, n)
    out = np.zeros(shape, dtype=np.complex128)
    area = grid.area
    for j, m in enumerate(weights):
        if m == 0:
            continue
        k1, k2 = (int(v) for v in grid.table_wavevectors[j])
        canonical = (k1, k2) if (k1 > 0 or (k1 == 0 and k2 > 0)) else (-k1, -k2)
        is_cos = (k1, k2) != canonical
        amp = signs[j] * np.sqrt(m / (2.0 * area))
        # cosine mode: c(k_c) = amp / sqrt(2)... folded into coefficient below
        coeff = amp if is_cos else -1j * amp
        ip, jp = canonical[0] % n, canonical[1] % n
        im, jm = (-canonical[0]) % n, (-canonical[1]) % n
        if divergence_free:
            kn = np.hypot(k1, k2)
            pol = np.array([-canonical[1], canonical[0]]) / kn
            out[:, ip, jp] += coeff * pol
            out[:, im, jm] += np.conj(coeff) * pol
        else:
            out[0, ip, jp] += coeff
            out[0, im, jm] += np.conj(coeff)
    return out


def make_forcing(grid: Grid, profile: str, magnitude_f2: float, magnitude_g2: float = 0.0,
                 mode_lo: int = 1, mode_hi: int = 1, seed: int = 0) -> Forcing:
    """
    Steady forcing whose per-mode squared L2 magnitudes follow the tagged law.

    ``mode_lo``/``mode_hi`` are 1-based entries of the grid's eigenvalue
    enumeration (the pair (n, N) of the two-scale and band profiles; only
    ``mode_hi`` = N is used by uniform/linear profiles).  Signs of the mode
    amplitudes are drawn from a seeded generator; per-mode magnitudes are
    reproduced exactly.
    """
    if profile == "zero" or (magnitude_f2 == 0 and magnitude_g2 == 0):
        return Forcing.zero(grid)
    if profile not in FORCING_PROFILES:
        raise ValueError(f"unknown forcing profile {profile!r}; expected one of {FORCING_PROFILES}")
    if magnitude_f2 < 0 or magnitude_g2 < 0:
        raise ValueError("forcing magnitudes must be nonnegative")
    if not 1 <= mode_lo <= mode_hi <= grid.num_modes:
        raise ValueError(f"need 1 <= mode_lo <= mode_hi <= {grid.num_modes}, "
                         f"got ({mode_lo}, {mode_hi})")
    kmax = int(np.max(np.abs(grid.table_wavevectors[:mode_hi])))
    if kmax > grid.kcut:
        raise ValueError(f"forcing support reaches |k|={kmax} beyond the dealiased band "
                         f"((n-1)//3={grid.kcut}); refine the grid")

    rng = np.random.default_rng(seed)
    wf = _profile_weights(profile, magnitude_f2, grid.num_modes, mode_lo, mode_hi, rng)
    signs_f = rng.integers(0, 2, size=grid.num_modes) * 2.0 - 1.0
    wg = _profile_weights(profile, magnitude_g2, grid.num_modes, mode_lo, mode_hi, rng)
    signs_g = rng.integers(0, 2, size=grid.num_modes) * 2.0 - 1.0

    f_hat = _real_mode_arrays(grid, wf, signs_f, divergence_free=True)
    g_hat = _real_mode_arrays(grid, wg, signs_g, divergence_free=False)[0]
    meta = {"mode_lo": mode_lo, "mode_hi": mode_hi, "seed": seed,
            "magnitude_f2": magnitude_f2, "magnitude_g2": magnitude_g2}
    return Forcing(grid, f_hat, g_hat, steady=True, profile=profile, meta=meta)


def forcing_with_decaying_gap(base: Forcing, gap_f: VectorField, gap_g: ScalarField,
                              decay_rate: float) -> Forcing:
    """Forcing equal to base plus exp(-decay_rate * t) times a fixed gap."""
    if gap_f.grid != base.grid or gap_g.grid != base.grid:
        raise FieldError("forcing gap lives on a different grid")
    gf = gap_f.stacked()
    gg = gap_g.coeffs.copy()

    def f_hat(t: float) -> np.ndarray:
        return base.f_hat(t) + np.exp(-decay_rate * t) * gf

    def g_hat(t: float) -> np.ndarray:
        return base.g_hat(t) + np.exp(-decay_rate * t) * gg

    return Forcing(base.grid, f_hat, g_hat, steady=False,
                   profile=base.profile, meta={**base.meta, "decaying_gap": decay_rate})


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def _random_scalars(grid: Grid, rng: np.random.Generator, kmax: float,
                    count: int) -> np.ndarray:
    """
    ``count`` Hermitian spectra with standard normal real and imaginary
    parts on 0 < |k| <= kmax, symmetrized; each draws its real then its
    imaginary (n, n) block from ``rng``, in turn.
    """
    n = grid.n
    band = (grid.lam > 0) & (np.sqrt(grid.k1**2 + grid.k2**2) <= kmax)
    raw = np.stack([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(count)]) * band
    flat = raw.reshape(count, n * n)
    return (0.5 * (flat + np.conj(flat[:, grid.conj_flat]))).reshape(count, n, n)


def random_state(grid: Grid, seed: int, energy_u: float = 0.1, energy_omega: float = 0.05,
                 kmax: int = 4, t: float = 0.0) -> State:
    """
    Seeded random divergence-free initial state band-limited to |k| <= kmax,
    scaled so |u|^2 = energy_u and |omega|^2 = energy_omega.
    """
    rng = np.random.default_rng(seed)
    s1, s2, w = _random_scalars(grid, rng, kmax, 3)
    c1, c2 = _leray_arrays(grid, s1, s2)
    u = VectorField.from_coeffs(grid, c1, c2)
    omega = ScalarField(grid, w)
    nu2 = spectral.norm(u) ** 2
    nw2 = spectral.norm(omega) ** 2
    if energy_u > 0 and nu2 > 0:
        u = u * float(np.sqrt(energy_u / nu2))
    elif energy_u == 0:
        u = VectorField.zero(grid)
    if energy_omega > 0 and nw2 > 0:
        omega = omega * float(np.sqrt(energy_omega / nw2))
    elif energy_omega == 0:
        omega = ScalarField.zero(grid)
    return State(u, omega, t)


def shear_state(grid: Grid, amplitude: float = 1.0, t: float = 0.0) -> State:
    """Parallel shear u = (amplitude * sin(2 pi x2 / L), 0), omega = 0."""
    c1 = np.zeros((grid.n, grid.n), dtype=np.complex128)
    c1[0, 1 % grid.n] = amplitude / 2j
    c1[0, (-1) % grid.n] = -amplitude / 2j
    u = VectorField.from_coeffs(grid, c1, np.zeros_like(c1))
    return State(u, ScalarField.zero(grid), t)


# ---------------------------------------------------------------------------
# Right-hand side and IMEX stepping
# ---------------------------------------------------------------------------

def _explicit_terms(grid: Grid, params: Params, U: np.ndarray, W: np.ndarray,
                    f_hat: np.ndarray, g_hat: np.ndarray,
                    extra: Callable | None = None, t: float = 0.0):
    """
    Explicitly treated part of the RHS: advection, 2 nu_r rot coupling and
    forcing.  Returns (EU, EW, max_speed); EU is Leray-projected, both are
    dealiased and zero-mean half planes (last axis n//2 + 1).

    ``U``, ``W``, ``f_hat``, ``g_hat`` and what ``extra(t, U, W)`` returns
    are half planes or full spectra: only the columns k2 = 0..n/2 are read.

    Advection uses the rotational form P[(u.grad)u] = P[omega x u] with
    omega = rot u, exact in the dealiased band because the gradient part
    grad(|u|^2/2) is removed by the projection.  The inputs are truncated
    to the band first, so this also holds for a state that is not
    dealiased.  One step takes 5 inverse (u1, u2, omega, d1 w, d2 w) and 3
    forward (omega u2, -omega u1, -u.grad w) real transforms.
    """
    m = grid.n // 2 + 1
    keep, d1, d2 = grid.half_keep, grid.half_d1, grid.half_d2
    Uh = U[..., :m] * keep
    Wh = W[..., :m] * keep
    rot_uh, d1w, d2w = d1 * Uh[1] - d2 * Uh[0], d1 * Wh, d2 * Wh
    u1, u2, rot_u, w1, w2 = _half_to_phys(np.stack([Uh[0], Uh[1], rot_uh, d1w, d2w]))
    max_speed = math.sqrt(float(np.max(u1 * u1 + u2 * u2)))

    # -(omega x u) = (omega u2, -omega u1) and -(u.grad w)
    adv = _phys_to_half(np.stack([rot_u * u2, -(rot_u * u1), -(u1 * w1 + u2 * w2)]))
    EU, EW = adv[:2], adv[2]
    two_nur = 2.0 * params.nu_r
    if two_nur != 0.0:
        EU[0] += two_nur * d2w
        EU[1] -= two_nur * d1w
        EW += two_nur * rot_uh
    EU += f_hat[..., :m]
    EW += g_hat[..., :m]
    if extra is not None:
        dU, dW = extra(t, U, W)
        EU += dU[..., :m]
        EW += dW[..., :m]
    return _half_leray(grid, EU), EW * keep, max_speed


def rhs(state: State, params: Params, forcing: Forcing) -> tuple[VectorField, ScalarField]:
    """
    Full instantaneous right-hand side (du/dt, dw/dt) at the state's time,
    with the pressure gradient removed by Leray projection.
    """
    if forcing.grid != state.grid:
        raise FieldError("forcing lives on a different grid than the state")
    grid = state.grid
    U = state.u.stacked()
    W = state.omega.coeffs
    EU, EW, _ = _explicit_terms(grid, params, U, W,
                                forcing.f_hat(state.t), forcing.g_hat(state.t), t=state.t)
    visc = (params.nu + params.nu_r) * grid.lam
    du = _full_from_half(grid, EU) - visc * U
    dw = _full_from_half(grid, EW) - (params.alpha * grid.lam + 4.0 * params.nu_r) * W
    return VectorField.from_coeffs(grid, du[0], du[1]), ScalarField(grid, dw)


class _Stepper:
    """IMEX CN/AB2 integrator core on half planes (:func:`_to_half` and :func:`_from_half`
    convert at the ``State`` boundary), with CN factors built once per (grid, params, dt)."""

    def __init__(self, grid: Grid, params: Params, forcing: Forcing, dt: float,
                 cfl_limit: float = 0.5, extra: Callable | None = None):
        if dt <= 0:
            raise ValueError(f"time step must be positive, got dt={dt}")
        if forcing.grid != grid:
            raise FieldError("forcing lives on a different grid")
        self.grid = grid
        self.params = params
        self.forcing = forcing
        self.dt = dt
        self.cfl_limit = cfl_limit
        self.extra = extra

        # u_new = num * u + dt / den * explicit, with den, num = 1 +/- dt/2 * linear;
        # half-plane tables, complex like the spectra so products need no casting
        lam = grid.lam[:, : grid.n // 2 + 1]
        rv = 0.5 * dt * (params.nu + params.nu_r) * lam
        rw = 0.5 * dt * (params.alpha * lam + 4.0 * params.nu_r)
        self.num_u = ((1.0 - rv) / (1.0 + rv)).astype(np.complex128)
        self.dt_den_u = (dt * (1.0 / (1.0 + rv))).astype(np.complex128)
        self.num_w = ((1.0 - rw) / (1.0 + rw)).astype(np.complex128)
        self.dt_den_w = (dt * (1.0 / (1.0 + rw))).astype(np.complex128)

        self.EU_prev: np.ndarray | None = None
        self.EW_prev: np.ndarray | None = None

    def imex_update(self, U: np.ndarray, W: np.ndarray, EU: np.ndarray, EW: np.ndarray,
                    EU_prev: np.ndarray | None, EW_prev: np.ndarray | None):
        """
        One CN/AB2 update of half-plane arrays (forward Euler on the
        explicit part without history); leading batch axes broadcast.
        Returns the new (U, W), projected, dealiased and zero-mean.
        """
        if EU_prev is None:
            ExU, ExW = EU, EW
        else:
            ExU = 1.5 * EU - 0.5 * EU_prev
            ExW = 1.5 * EW - 0.5 * EW_prev
        U_new = _half_leray(self.grid, self.num_u * U + self.dt_den_u * ExU)
        W_new = (self.num_w * W + self.dt_den_w * ExW) * self.grid.half_keep
        return U_new, W_new

    def advance(self, U: np.ndarray, W: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        grid, dt = self.grid, self.dt
        EU, EW, speed = _explicit_terms(grid, self.params, U, W,
                                        self.forcing.f_hat(t), self.forcing.g_hat(t),
                                        extra=self.extra, t=t)
        if speed > 0:
            dt_max = self.cfl_limit * (grid.L / grid.n) / speed
            if dt > dt_max:
                raise CflViolationError(
                    f"dt={dt:.3e} exceeds CFL guard {dt_max:.3e} at t={t:.6g} "
                    f"(max advective speed {speed:.3e})"
                )
        U_new, W_new = self.imex_update(U, W, EU, EW, self.EU_prev, self.EW_prev)
        self.EU_prev, self.EW_prev = EU, EW
        if not (np.isfinite(U_new.view(np.float64)).all() and np.isfinite(W_new.view(np.float64)).all()):
            raise NumericsError(f"non-finite coefficients after step at t={t + dt:.6g}")
        return U_new, W_new


def _to_half(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Half planes (U, W) of a state, the layout of the time loops (copies)."""
    m = state.grid.n // 2 + 1
    return state.u.stacked()[..., :m].copy(), state.omega.coeffs[:, :m].copy()


def _from_half(grid: Grid, U: np.ndarray, W: np.ndarray, t: float) -> State:
    """Validated state whose full spectra are rebuilt from half planes (U, W)."""
    full = _full_from_half(grid, np.concatenate([U, W[None]]))
    return State(VectorField.from_coeffs(grid, full[0], full[1]), ScalarField(grid, full[2]), t)


def _whole_steps(span: float, dt: float) -> int:
    """
    Number of steps of size ``dt`` in ``span``.  A span that is not a whole
    number of steps (to 1e-9 relative) raises ``ValueError`` instead of
    being rounded.
    """
    if not dt > 0:
        raise ValueError(f"step must be positive, got {dt!r}")
    steps = span / dt
    whole = round(steps)
    if abs(steps - whole) > 1e-9 * max(1.0, steps):
        raise ValueError(f"{span!r} is not a whole number of steps of {dt!r}")
    return int(whole)


def step(state: State, params: Params, forcing: Forcing, dt: float,
         cfl_limit: float = 0.5) -> State:
    """
    Advance one IMEX step from a cold start (forward Euler on the explicit
    part).  For long runs prefer :func:`simulate`, which keeps the
    Adams-Bashforth history across steps.
    """
    stepper = _Stepper(state.grid, params, forcing, dt, cfl_limit)
    U, W = stepper.advance(*_to_half(state), state.t)
    return _from_half(state.grid, U, W, state.t + dt)


@dataclass
class SimulationResult:
    """Observer time series plus the final state."""

    times: np.ndarray
    series: dict[str, np.ndarray]
    final_state: State
    dt: float = 0.0


def standard_observers() -> dict[str, Callable[[State, Forcing], float]]:
    """
    Observer set consumed by the a-priori inequality verifiers: squared L2,
    H1 and D(A) norms of u and omega, and the forcing strengths in L2 and
    the dual norm.  The forcing observers of one mapping evaluate a steady
    forcing once; time-dependent forcings are evaluated at every call.
    """
    def sq(kind, which):
        def fn(state: State, forcing: Forcing) -> float:
            target = state.u if which == "u" else state.omega
            return spectral.norm(target, kind) ** 2
        return fn

    def forcing_sq(kind, which):
        # A steady forcing's arrays are read-only, so its norm is taken once
        # and kept, keyed on the forcing's identity.
        last = (None, 0.0)

        def fn(state: State, forcing: Forcing) -> float:
            nonlocal last
            if forcing.steady and last[0] is forcing:
                return last[1]
            target = forcing.f_at(state.t) if which == "f" else forcing.g_at(state.t)
            value = spectral.norm(target, kind) ** 2
            if forcing.steady:
                last = (forcing, value)
            return value
        return fn

    return {
        "u_l2_sq": sq("L2", "u"),
        "omega_l2_sq": sq("L2", "omega"),
        "u_h1_sq": sq("H1", "u"),
        "omega_h1_sq": sq("H1", "omega"),
        "u_da_sq": sq("DA", "u"),
        "omega_da_sq": sq("DA", "omega"),
        "f_l2_sq": forcing_sq("L2", "f"),
        "g_l2_sq": forcing_sq("L2", "g"),
        "f_hm1_sq": forcing_sq("Hminus1", "f"),
        "g_hm1_sq": forcing_sq("Hminus1", "g"),
    }


def simulate(initial: State, params: Params, forcing: Forcing, t_end: float, dt: float,
             observers: Mapping[str, Callable[[State, Forcing], float]] | None = None,
             stride: int = 1, cfl_limit: float = 0.5) -> SimulationResult:
    """
    Fixed-step integration from ``initial.t`` to ``initial.t + t_end``.

    Observers are sampled every ``stride`` steps (and at the initial and
    final instants); the run is deterministic given its configuration.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if observers is None:
        observers = standard_observers()
    grid = initial.grid
    nsteps = _whole_steps(t_end, dt)

    stepper = _Stepper(grid, params, forcing, dt, cfl_limit)
    U, W = _to_half(initial)
    t0 = initial.t

    times: list[float] = []
    records: dict[str, list[float]] = {name: [] for name in observers}

    def record(t: float, U: np.ndarray, W: np.ndarray) -> None:
        state = _from_half(grid, U, W, t)
        times.append(t)
        for name, fn in observers.items():
            records[name].append(float(fn(state, forcing)))

    record(t0, U, W)
    for i in range(nsteps):
        t = t0 + i * dt
        U, W = stepper.advance(U, W, t)
        if (i + 1) % stride == 0 or i + 1 == nsteps:
            record(t0 + (i + 1) * dt, U, W)

    return SimulationResult(np.asarray(times), {k: np.asarray(v) for k, v in records.items()},
                            _from_half(grid, U, W, t0 + nsteps * dt), dt=dt)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"MPF1"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sII6d")  # magic, version, n, (L, nu, nu_r, alpha, t, reserved)


def write_checkpoint(path, state: State, params: Params) -> None:
    """Binary little-endian snapshot; round trips bit-exactly."""
    grid = state.grid
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, grid.n,
                          grid.L, params.nu, params.nu_r, params.alpha, state.t, 0.0)
    blocks = [state.u.u1.coeffs, state.u.u2.coeffs, state.omega.coeffs]
    with open(path, "wb") as fh:
        fh.write(header)
        for block in blocks:
            arr = np.ascontiguousarray(block, dtype=np.complex128)
            fh.write(arr.view(np.float64).astype("<f8", copy=False).tobytes())


def read_checkpoint(path) -> tuple[State, Params]:
    """Read a checkpoint written by :func:`write_checkpoint`."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError("checkpoint file truncated (header)")
        magic, version, n, L, nu, nu_r, alpha, t, _ = _HEADER.unpack(raw)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        payload = 3 * n * n * 16  # checked before allocating: a corrupt n may ask for TiB
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != payload:
            problem = "truncated" if size < payload else "has trailing bytes"
            raise ValueError(f"checkpoint file {problem}: {size} payload bytes, "
                             f"n={n} needs {payload}")
        grid = Grid(n, L)
        data = np.frombuffer(fh.read(payload), dtype="<f8")
    blocks = data.astype(np.float64).view(np.complex128).reshape(3, n, n)
    state = State(VectorField.from_coeffs(grid, blocks[0], blocks[1]),
                  ScalarField(grid, blocks[2]), t)
    return state, Params(nu, nu_r, alpha)
