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
    _hermitianized,
    _leray_arrays,
    _mirror_half,
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
        if not 0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.nu_r < math.inf:
            raise ValueError(f"nu_r must be nonnegative and finite, got {self.nu_r}")


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


def _profile_weights(profile: str, total: float, num_modes: int,
                     mode_lo: int, mode_hi: int, rng: np.random.Generator | None) -> np.ndarray:
    """
    Per-mode squared magnitudes m_j (1-based table entries) summing to
    ``total``: the one statement of each profile's law.  Only the random
    profiles (band, steady) draw from ``rng``; the others accept None.
    """
    w = np.zeros(num_modes)
    if total == 0:
        return w
    if profile == "two_scale":
        # half at each end of the pair; equal ends get the whole magnitude
        w[mode_lo - 1] += total / 2.0
        w[mode_hi - 1] += total / 2.0
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
    reproduced exactly.  Profile ``"zero"``, or two zero magnitudes, gives
    the zero forcing once the arguments have passed the same checks.
    """
    if profile != "zero" and profile not in FORCING_PROFILES:
        raise ValueError(f"unknown forcing profile {profile!r}; "
                         f"expected 'zero' or one of {FORCING_PROFILES}")
    if not (0 <= magnitude_f2 < math.inf and 0 <= magnitude_g2 < math.inf):
        raise ValueError(f"forcing magnitudes must be nonnegative and finite, "
                         f"got ({magnitude_f2}, {magnitude_g2})")
    if not 1 <= mode_lo <= mode_hi <= grid.num_modes:
        raise ValueError(f"need 1 <= mode_lo <= mode_hi <= {grid.num_modes}, "
                         f"got ({mode_lo}, {mode_hi})")
    if profile == "zero" or (magnitude_f2 == 0 and magnitude_g2 == 0):
        return Forcing.zero(grid)
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
    return _hermitianized(grid, raw)


def random_state(grid: Grid, seed: int, energy_u: float = 0.1, energy_omega: float = 0.05,
                 kmax: int = 4, t: float = 0.0) -> State:
    """
    Seeded random divergence-free initial state band-limited to |k| <= kmax,
    scaled so |u|^2 = energy_u and |omega|^2 = energy_omega (zero gives a
    zero field; a negative or non-finite energy is a ValueError).
    """
    if not (0 <= energy_u < math.inf and 0 <= energy_omega < math.inf):
        raise ValueError(f"initial energies must be nonnegative and finite, "
                         f"got ({energy_u}, {energy_omega})")
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

class _Workspace:
    """
    Buffers of the nonlinear kernel and of one IMEX step for ``members``
    members (the state, then its tangent pairs) on one grid, allocated
    once.  Arrays are component-major, (component, member, n, width), so
    one component of all members is one contiguous block, and the band
    tables are stacked to (member, n, kcut + 1): every elementwise
    operation then runs over equal contiguous shapes, for which numpy
    needs no iteration buffers.  A buffer lends its bytes to other
    temporaries while what it holds is spent:

    - ``phys``: the 5 physical planes of each member; the products
      overwrite planes 2..4 as their factors are spent.  Before the
      inverse transform and after the forward one, its bytes hold the
      band-plane temporaries ``tmp`` and the finiteness mask ``finite``.
    - one spectral scratch: the spectral input ``spec_in``, whose inverse
      axis-0 stage runs in place, then the forward transform's last-axis
      stage ``rfft_out``, then the AB2 combination ``ab2``.
    - ``E`` and ``E_prev``: this step's and the last step's explicit
      terms, swapped after each step; ``E_prev`` is scratch once the AB2
      combination has read it.
    - ``out``: the stepper's band planes, which ``U``, ``W``, ``V`` and
      ``Z`` view in the layout of the stepper's inputs.
    - ``factors`` (with pairs): the state's 5 physical planes copied over
      the pairs, (5, pairs, n, n), 5 * pairs * n^2 * 8 bytes (320 KiB for
      8 pairs at n = 32), refreshed per kernel call, so that the pairs'
      products run over equal contiguous shapes.
    """

    def __init__(self, grid: Grid, members: int):
        n, m, h = grid.n, grid.kcut + 1, grid.n // 2 + 1
        self.members = members
        self.phys = np.empty((5, members, n, n))
        spec = np.empty(members * n * max(5 * m, 3 * h), dtype=np.complex128)
        self.spec_in = spec[: 5 * members * n * m].reshape(5, members, n, m)
        self.rfft_out = spec[: 3 * members * n * h].reshape(3, members, n, h)
        self.ab2 = spec[: 3 * members * n * m].reshape(3, members, n, m)
        spent = self.phys.reshape(-1)
        self.tmp = spent.view(np.complex128)[: 4 * members * n * m].reshape(4, members, n, m)
        self.finite = spent.view(np.bool_)[: 6 * members * n * m].reshape(3, members, n, 2 * m)
        self.E, self.E_prev, self.out = (np.empty((3, members, n, m), dtype=np.complex128)
                                         for _ in range(3))
        self.U, self.W = self.out[:2, 0], self.out[2, 0]
        self.V, self.Z = self.out[:2, 1:].swapaxes(0, 1), self.out[2, 1:]
        self.keep, self.d1, self.d2 = (self.stacked(x) for x in
                                       (grid.half_keep, grid.half_d1, grid.half_d2))
        self.leray = tuple(self.stacked(x) for x in grid.half_leray)
        self.factors = np.empty((5, members - 1, n, n)) if members > 1 else None

    def stacked(self, table: np.ndarray) -> np.ndarray:
        """
        A band table (broadcastable to (n, kcut + 1)) as a contiguous plane
        stacked over the members.  numpy buffers a table broadcast over
        the members only when a plane has at most half its ufunc buffer
        of elements (``np.getbufsize()``), so only such small planes are
        copied per member; larger ones are viewed.
        """
        plane = np.ascontiguousarray(np.broadcast_to(table, self.E.shape[-2:]))
        stack = np.broadcast_to(plane, (self.members,) + plane.shape)
        if self.members > 1 and 2 * plane.size <= np.getbufsize():
            return stack.copy()
        return stack


def _explicit_terms(grid: Grid, params: Params, U: np.ndarray, W: np.ndarray,
                    f_hat: np.ndarray, g_hat: np.ndarray,
                    extra: Callable | None = None, t: float = 0.0,
                    V: np.ndarray | None = None, Z: np.ndarray | None = None,
                    work: _Workspace | None = None):
    """
    Explicitly treated part of the RHS: advection, 2 nu_r rot coupling and
    forcing.  Returns (EU, EW, max_speed); EU is Leray-projected, both are
    dealiased and zero-mean band planes (last axis kcut + 1).

    Given tangent pairs ``V`` (N, 2, ...) and ``Z`` (N, ...), it also
    returns their terms (EV, EZ), the same part of the dynamics linearized
    about (u, w):
        E_V = Leray[-(omega_V x u + omega_u x V) + 2 nu_r rot Z]
        E_Z = -(u.grad)Z - (V.grad)w + 2 nu_r rot V
    with omega_X = rot X and omega x X = (-omega X2, omega X1).  Forcing and
    ``extra`` act on the state only.

    ``U``, ``W``, ``V``, ``Z``, ``f_hat``, ``g_hat`` and what
    ``extra(t, U, W)`` returns are band planes, half planes or full
    spectra: only the columns k2 = 0..kcut are read.

    Advection uses the rotational form P[(u.grad)u] = P[omega x u] with
    omega = rot u, exact in the dealiased band because the gradient part
    grad(|u|^2/2) is removed by the projection.  The inputs are truncated
    to the band first, so this also holds for a state that is not
    dealiased.  The state and each pair take 5 inverse (u1, u2, omega,
    d1 w, d2 w) and 3 forward (omega u2, -omega u1, -u.grad w) real
    transforms, all members in one call each way.

    Every temporary lives in the workspace ``work`` (a fresh one when
    omitted), and the terms returned are views of its ``E``.
    """
    if work is None:
        work = _Workspace(grid, 1 if V is None else 1 + len(V))
    m = grid.kcut + 1
    keep, d1, d2 = work.keep, work.d1, work.d2
    spec, phys, tmp, E = work.spec_in, work.phys, work.tmp, work.E
    pair_u = (None, None) if V is None else (V[:, 0], V[:, 1])

    def truncate(x, y, out):
        # band columns of the state's plane x and the pairs' planes y,
        # masked; member 0 is the state, member 1 + j is pair j
        np.multiply(x[..., :m], keep[0], out=out[0])
        if y is not None:
            np.multiply(y[..., :m], keep[1:], out=out[1:])

    # spectral input (c1, c2, rot u, d1 w, d2 w) of every member
    truncate(U[0], pair_u[0], spec[0])
    truncate(U[1], pair_u[1], spec[1])
    truncate(W, Z, spec[3])
    np.multiply(d2, spec[3], out=spec[4])
    np.multiply(d1, spec[3], out=spec[3])
    np.multiply(d1, spec[1], out=spec[2])
    np.multiply(d2, spec[0], out=tmp[0])
    np.subtract(spec[2], tmp[0], out=spec[2])
    _half_to_phys(spec, out=phys)

    # products into planes 2..4 of each member, each written over factors
    # it has spent; the pairs' go first, all pairs in one pass, as they
    # read the state's factors
    if work.members > 1:
        np.copyto(work.factors, phys[:, :1])
        u1, u2, rot_u, w1, w2 = work.factors
        v1, v2, rot_v, z1, z2 = phys[:, 1:]
        # -(u.grad Z + V.grad w)
        np.multiply(u1, z1, out=z1)
        np.multiply(u2, z2, out=z2)
        np.add(z1, z2, out=z2)
        np.multiply(v1, w1, out=z1)
        np.add(z2, z1, out=z2)
        np.multiply(v2, w2, out=z1)
        np.add(z2, z1, out=z2)
        np.negative(z2, out=z2)
        # -(omega_V x u + omega_u x V)
        np.multiply(rot_v, u1, out=z1)
        np.multiply(rot_u, v1, out=v1)
        np.add(z1, v1, out=z1)
        np.negative(z1, out=z1)
        np.multiply(rot_v, u2, out=rot_v)
        np.multiply(rot_u, v2, out=v2)
        np.add(rot_v, v2, out=rot_v)
    u1, u2, rot_u, w1, w2 = phys[:, 0]
    # -(u.grad w), then -(omega x u) = (omega u2, -omega u1)
    np.multiply(u1, w1, out=w1)
    np.multiply(u2, w2, out=w2)
    np.add(w1, w2, out=w2)
    np.negative(w2, out=w2)
    np.multiply(rot_u, u1, out=w1)
    np.negative(w1, out=w1)
    np.multiply(rot_u, u2, out=rot_u)
    # the speeds, in the spent velocity planes
    np.multiply(u1, u1, out=u1)
    np.multiply(u2, u2, out=u2)
    np.add(u1, u2, out=u1)
    max_speed = math.sqrt(float(u1.max()))
    _phys_to_half(phys[2:], m, out=E, scratch=work.rfft_out)

    two_nur = 2.0 * params.nu_r
    if two_nur != 0.0:
        # the coupling's factors again, from the inputs: the inverse
        # transform has overwritten the spectral input
        wh, t1, c1, c2 = tmp
        truncate(W, Z, wh)
        np.multiply(d2, wh, out=t1)
        np.multiply(two_nur, t1, out=t1)
        np.add(E[0], t1, out=E[0])
        np.multiply(d1, wh, out=t1)
        np.multiply(two_nur, t1, out=t1)
        np.subtract(E[1], t1, out=E[1])
        truncate(U[0], pair_u[0], c1)
        truncate(U[1], pair_u[1], c2)
        np.multiply(d1, c2, out=wh)
        np.multiply(d2, c1, out=t1)
        np.subtract(wh, t1, out=wh)
        np.multiply(two_nur, wh, out=wh)
        np.add(E[2], wh, out=E[2])
    own = E[:, 0]
    for k, f in enumerate((f_hat[0], f_hat[1], g_hat)):
        np.add(own[k], f[..., :m], out=own[k])
    if extra is not None:
        dU, dW = extra(t, U, W)
        for k, d in enumerate((dU[0], dU[1], dW)):
            np.add(own[k], d[..., :m], out=own[k])
    _half_leray(work.leray, E[0], E[1], E[0], E[1], tmp)
    np.multiply(E[2], keep, out=E[2])
    if V is None:
        return E[:2, 0], E[2, 0], max_speed
    return E[:2, 0], E[2, 0], max_speed, E[:2, 1:].swapaxes(0, 1), E[2, 1:]


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
    """IMEX CN/AB2 integrator core on band planes (columns k2 = 0..kcut of the
    half plane; :func:`_to_half` and :func:`_from_half` convert at the ``State``
    boundary), with CN factors built once per (grid, params, dt) and one
    :class:`_Workspace` per member count, so that a step allocates no arrays."""

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
        # band-plane tables, complex like the spectra so products need no casting
        m = grid.kcut + 1
        lam = grid.lam[:, :m]
        rv = 0.5 * dt * (params.nu + params.nu_r) * lam
        rw = 0.5 * dt * (params.alpha * lam + 4.0 * params.nu_r)
        self.num_u = ((1.0 - rv) / (1.0 + rv)).astype(np.complex128)
        self.dt_den_u = (dt * (1.0 / (1.0 + rv))).astype(np.complex128)
        self.num_w = ((1.0 - rw) / (1.0 + rw)).astype(np.complex128)
        self.dt_den_w = (dt * (1.0 / (1.0 + rw))).astype(np.complex128)
        # a steady forcing's band columns, copied once so that the kernel
        # adds contiguous planes; a time-dependent one is evaluated per step
        self.band_forcing = None
        if forcing.steady:
            self.band_forcing = (np.ascontiguousarray(forcing.f_hat(0.0)[..., :m]),
                                 np.ascontiguousarray(forcing.g_hat(0.0)[..., :m]))

        self.work: _Workspace | None = None
        self.cn: tuple[np.ndarray, ...] = ()  # the CN tables stacked over the members
        self.history = False  # whether work.E_prev holds the last step's terms

    def _imex(self) -> None:
        """CN/AB2 update (forward Euler without history) of every member, in
        place in ``work.out``, from the terms in ``work.E``: projected,
        dealiased and zero-mean."""
        work = self.work
        E, prev, A, out = work.E, work.E_prev, work.ab2, work.out
        num_u, dt_den_u, num_w, dt_den_w = self.cn
        terms = E
        if self.history:
            np.multiply(1.5, E, out=A)
            np.multiply(0.5, prev, out=prev)
            np.subtract(A, prev, out=A)
            terms = A
        for k in (0, 1):
            np.multiply(num_u, out[k], out=out[k])
            np.multiply(dt_den_u, terms[k], out=A[k])
            np.add(out[k], A[k], out=out[k])
        _half_leray(work.leray, out[0], out[1], out[0], out[1], prev)
        np.multiply(num_w, out[2], out=out[2])
        np.multiply(dt_den_w, terms[2], out=A[2])
        np.add(out[2], A[2], out=out[2])
        np.multiply(out[2], work.keep, out=out[2])

    def advance(self, U: np.ndarray, W: np.ndarray, t: float,
                V: np.ndarray | None = None, Z: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """
        One step from band or half planes (U, W) at time t; returns band
        planes.  Tangent pairs (V, Z) ride along under the dynamics
        linearized about (U, W), with the same AB2 history; then
        (U, W, V, Z) is returned.  A change of the number of pairs
        restarts that history with forward Euler.

        The returned planes are the stepper's own buffers, and the next
        call overwrites them: pass them back in (they may also be changed
        in place in between) and copy whatever must outlive the next step.
        """
        grid, dt, m = self.grid, self.dt, self.grid.kcut + 1
        members = 1 if V is None else 1 + len(V)
        if self.work is None or self.work.members != members:
            self.work = _Workspace(grid, members)
            self.cn = tuple(self.work.stacked(x) for x in
                            (self.num_u, self.dt_den_u, self.num_w, self.dt_den_w))
            self.history = False
        work = self.work
        f_hat, g_hat = self.band_forcing or (self.forcing.f_hat(t), self.forcing.g_hat(t))
        speed = _explicit_terms(grid, self.params, U, W, f_hat, g_hat,
                                extra=self.extra, t=t, V=V, Z=Z, work=work)[2]
        if speed > 0:
            dt_max = self.cfl_limit * (grid.L / grid.n) / speed
            if dt > dt_max:
                raise CflViolationError(
                    f"dt={dt:.3e} exceeds CFL guard {dt_max:.3e} at t={t:.6g} "
                    f"(max advective speed {speed:.3e})"
                )
        # the update runs in place on the stepper's planes; inputs that are
        # not those planes are copied in first
        for given, own in ((U, work.U), (W, work.W), (V, work.V), (Z, work.Z)):
            if given is not None and given is not own:
                np.copyto(own, given[..., :m])
        self._imex()
        work.E, work.E_prev = work.E_prev, work.E
        self.history = True
        if not np.isfinite(work.out.view(np.float64), out=work.finite).all():
            raise NumericsError(f"non-finite coefficients after step at t={t + dt:.6g}")
        if V is None:
            return work.U, work.W
        return work.U, work.W, work.V, work.Z


def _to_half(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Whole half planes (U, W) of a state (copies); the time loops narrow
    them to band planes at their first step."""
    m = state.grid.n // 2 + 1
    return state.u.stacked()[..., :m].copy(), state.omega.coeffs[:, :m].copy()


def _full_spectra(grid: Grid, U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """
    Full spectra (K, 3, n, n) of (u1, u2, omega), rebuilt from K records of
    half or band planes U (K, 2, n, w) and W (K, n, w) of finite states (an
    initial state, or results that ``advance`` has checked), in one pass
    over one array: filled, mirrored, made exactly Hermitian and the mean
    zeroed.  Each record's coefficients equal those of the validating
    ``ScalarField`` bit for bit, and are copies: they outlive the
    stepper's next write to its planes.
    """
    n, m = grid.n, U.shape[-1]
    full = np.zeros((len(U), 3, n, n), dtype=np.complex128)
    full[:, :2, :, :m] = U
    full[:, 2, :, :m] = W
    _mirror_half(grid, full, m)
    # The Hermitian part (c_k + conj(c_-k)) * 0.5 of _hermitianized, with its
    # bits (signed zeros included) but no gathered copy of the spectra: a
    # mirrored column holds c_-k = conj(c_k) exactly, so there the sum is
    # c_k + c_k.  Only the columns that are their own mirror image, k2 = 0
    # (and n/2 when a whole half plane is given), gather c_-k.
    own = [0] if m <= n // 2 else [0, n // 2]
    edge = full[..., own]
    edge_sym = np.conj(edge[..., grid.half_conj_rows, :])
    edge_sym += edge
    edge_sym *= 0.5
    np.add(full, full, out=full)
    np.multiply(full, 0.5, out=full)
    full[..., own] = edge_sym
    full[..., 0, 0] = 0.0
    return full


def _from_half(grid: Grid, U: np.ndarray, W: np.ndarray, t: float) -> State:
    """State of the half or band planes (U, W): :func:`_full_spectra` of
    one record, wrapped without the constructors' second validation."""
    u1, u2, w = (ScalarField._trusted(grid, c) for c in _full_spectra(grid, U[None], W[None])[0])
    return State(VectorField(u1, u2), w, t)


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


def step(state: State, params: Params, forcing: Forcing, dt: float) -> State:
    """
    Advance one IMEX step from a cold start (forward Euler on the explicit
    part).  For long runs prefer :func:`simulate`, which keeps the
    Adams-Bashforth history across steps.
    """
    stepper = _Stepper(state.grid, params, forcing, dt)
    U, W = stepper.advance(*_to_half(state), state.t)
    return _from_half(state.grid, U, W, state.t + dt)


@dataclass
class SimulationResult:
    """Observer time series plus the final state."""

    times: np.ndarray
    series: dict[str, np.ndarray]
    final_state: State
    dt: float = 0.0


# The standard observer set, in its order: name -> (norm kind, field), the
# field being u, omega, the force f or the moment g.
_STANDARD_SET = {
    "u_l2_sq": ("L2", "u"),
    "omega_l2_sq": ("L2", "omega"),
    "u_h1_sq": ("H1", "u"),
    "omega_h1_sq": ("H1", "omega"),
    "u_da_sq": ("DA", "u"),
    "omega_da_sq": ("DA", "omega"),
    "f_l2_sq": ("L2", "f"),
    "g_l2_sq": ("L2", "g"),
    "f_hm1_sq": ("Hminus1", "f"),
    "g_hm1_sq": ("Hminus1", "g"),
}

# Byte budget on the full spectra (3 n^2 complex per record) of one batch of
# standard records: 21 records at n = 16, 5 at n = 32, one from n = 64 on.
_RECORD_BATCH_BYTES = 256 * 1024


def _forcing_sq(kind: str, which: str) -> Callable[[float, Forcing], float]:
    """
    Squared ``kind`` norm of the force (``which`` "f") or the moment ("g")
    at time t.  A steady forcing's arrays are read-only, so its norm is
    taken once and kept, keyed on the forcing's identity; a time-dependent
    one is evaluated at every call.
    """
    last = (None, 0.0)

    def at(t: float, forcing: Forcing) -> float:
        nonlocal last
        if forcing.steady and last[0] is forcing:
            return last[1]
        target = forcing.f_at(t) if which == "f" else forcing.g_at(t)
        value = spectral.norm(target, kind) ** 2
        if forcing.steady:
            last = (forcing, value)
        return value
    return at


class _StandardRecords:
    """
    The standard observer series of one run.  The forcing norms are taken
    at each record's time, in order.  The state norms are taken in batches:
    a record's band planes are copied into a run-owned buffer of ``size``
    records, and when it fills (and at :meth:`flush`) all its records are
    evaluated at once.  With one record per batch (n >= 64), or for the
    initial state's half planes, a record is evaluated from the planes
    given, without a copy.
    """

    def __init__(self, grid: Grid, forcing: Forcing):
        n = grid.n
        self.grid, self.forcing = grid, forcing
        self.size = max(1, _RECORD_BATCH_BYTES // (3 * n * n * 16))
        self.planes = None
        if self.size > 1:
            self.planes = np.empty((self.size, 3, n, grid.kcut + 1), dtype=np.complex128)
        self.pending = 0
        self.series: dict[str, list[float]] = {name: [] for name in _STANDARD_SET}
        self.forcing_sq = {name: _forcing_sq(kind, which)
                           for name, (kind, which) in _STANDARD_SET.items() if which in "fg"}

    def add(self, t: float, U: np.ndarray, W: np.ndarray) -> None:
        for name, at in self.forcing_sq.items():
            self.series[name].append(at(t, self.forcing))
        if self.planes is None or U.shape[-1] != self.planes.shape[-1]:
            self.flush()
            self._evaluate(U[None], W[None])
            return
        self.planes[self.pending, :2] = U
        self.planes[self.pending, 2] = W
        self.pending += 1
        if self.pending == self.size:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            batch = self.planes[: self.pending]
            self._evaluate(batch[:, :2], batch[:, 2])
            self.pending = 0

    def _evaluate(self, U: np.ndarray, W: np.ndarray) -> None:
        """The u and omega norms of K records of planes U (K, 2, n, w) and W
        (K, n, w): |c|^2 is taken once per field over the K full spectra,
        and each norm is one weighted sum per record, with the bits of
        ``spectral.norm(field, kind) ** 2``."""
        full = _full_spectra(self.grid, U, W)
        # one component at a time: at most two planes per record beside the spectra
        u = spectral._power(full[:, 0])
        u += spectral._power(full[:, 1])
        fields = {"u": u, "omega": spectral._power(full[:, 2])}
        del full
        for name, (kind, which) in _STANDARD_SET.items():
            if which in fields:
                roots = spectral._norms(self.grid, fields[which], kind).tolist()
                self.series[name].extend(root ** 2 for root in roots)


def standard_observers() -> dict[str, Callable[[State, Forcing], float]]:
    """
    Observer set consumed by the a-priori inequality verifiers: squared L2,
    H1 and D(A) norms of u and omega, and the forcing strengths in L2 and
    the dual norm.  The forcing observers of one mapping evaluate a steady
    forcing once; time-dependent forcings are evaluated at every call.
    ``simulate`` without observers records this set in batches, with the
    same bits (``spectral.norm`` and the batches share its arithmetic).
    """
    def state_sq(kind, which):
        def fn(state: State, forcing: Forcing) -> float:
            target = state.u if which == "u" else state.omega
            return spectral.norm(target, kind) ** 2
        return fn

    def forcing_sq(kind, which):
        at = _forcing_sq(kind, which)
        return lambda state, forcing: at(state.t, forcing)

    return {name: (forcing_sq if which in "fg" else state_sq)(kind, which)
            for name, (kind, which) in _STANDARD_SET.items()}


def simulate(initial: State, params: Params, forcing: Forcing, t_end: float, dt: float,
             observers: Mapping[str, Callable[[State, Forcing], float]] | None = None,
             stride: int = 1, cfl_limit: float = 0.5) -> SimulationResult:
    """
    Fixed-step integration from ``initial.t`` to ``initial.t + t_end``.

    Observers are sampled every ``stride`` steps (and at the initial and
    final instants); the run is deterministic given its configuration.
    Each observer of a mapping is called at its record's time, in time
    order, with one validated, read-only ``State``.  Without observers the
    :func:`standard_observers` set is recorded, equal bit for bit, but
    evaluated in batches of records (see ``_StandardRecords``) without
    building a ``State`` per record.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    grid = initial.grid
    nsteps = _whole_steps(t_end, dt)

    stepper = _Stepper(grid, params, forcing, dt, cfl_limit)
    U, W = _to_half(initial)
    t0 = initial.t

    times: list[float] = []
    if observers is None:
        standard = _StandardRecords(grid, forcing)
        series, record_planes = standard.series, standard.add
    else:
        series = {name: [] for name in observers}

        def record_planes(t: float, U: np.ndarray, W: np.ndarray) -> None:
            state = _from_half(grid, U, W, t)
            for name, fn in observers.items():
                series[name].append(float(fn(state, forcing)))

    def record(t: float, U: np.ndarray, W: np.ndarray) -> None:
        times.append(t)
        record_planes(t, U, W)

    record(t0, U, W)
    for i in range(nsteps):
        t = t0 + i * dt
        U, W = stepper.advance(U, W, t)
        if (i + 1) % stride == 0 or i + 1 == nsteps:
            record(t0 + (i + 1) * dt, U, W)
    if observers is None:
        standard.flush()

    return SimulationResult(np.asarray(times), {k: np.asarray(v) for k, v in series.items()},
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
