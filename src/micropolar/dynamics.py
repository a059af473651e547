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
    _check_hermitian,
    _full_from_half,
    _full_spectra,
    _half_to_phys,
    _hermitianize,
    _leray_arrays,
    _phys_to_half,
    make_grid,
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
        """|u|^2 + |omega|^2, as the standard records take them."""
        return sum(_state_sums(self.grid, _half_planes(self))[:2])


# ---------------------------------------------------------------------------
# Forcing
# ---------------------------------------------------------------------------

class Forcing:
    """
    External force f (divergence-free vector) and moment g (scalar).

    A steady forcing holds only the half planes ``half`` (3, n, n//2 + 1)
    of its (f1, f2, g) spectra, read-only: the time loops read them, and
    ``f_hat`` and ``g_hat`` mirror them into new full spectra at each call.
    Given as coefficient arrays (2, n, n) and (n, n), the spectra must be
    finite and Hermitian under the ``ScalarField`` rule; the half columns of
    their exact Hermitian part, the mean zeroed, are kept.  Time-dependent
    forcings are built from callables returning raw coefficient arrays.
    """

    def __init__(self, grid: Grid, f_hat, g_hat, steady: bool = True,
                 profile: str | None = None, meta: dict | None = None):
        self.grid = grid
        self.steady = steady
        self.profile = profile
        self.meta = dict(meta or {})
        self._norms: dict[tuple[str, str], float] = {}
        self._fields: dict[str, tuple[float, VectorField | ScalarField]] = {}
        if steady:
            n = grid.n
            f, g = np.asarray(f_hat), np.asarray(g_hat)
            if f.shape != (2, n, n) or g.shape != (n, n):
                raise FieldError(f"forcing spectra must have shapes (2, {n}, {n}) and "
                                 f"({n}, {n}), got {f.shape} and {g.shape}")
            spectra = np.concatenate([f, g[None]], dtype=np.complex128)
            for c in spectra:
                _check_hermitian(grid, c)
            self.half = spectra[..., :n // 2 + 1].copy()
            self.half.setflags(write=False)
        else:
            self._f_hat = f_hat
            self._g_hat = g_hat

    @classmethod
    def _of_half(cls, grid: Grid, half: np.ndarray, profile: str | None = None,
                 meta: dict | None = None) -> "Forcing":
        """Steady forcing that holds ``half``, the half planes of exactly
        Hermitian, zero-mean spectra, as they are: not copied, made read-only."""
        forcing = cls(grid, None, None, steady=False, profile=profile, meta=meta)
        forcing.steady, forcing.half = True, half
        half.setflags(write=False)
        return forcing

    @classmethod
    def zero(cls, grid: Grid) -> "Forcing":
        return cls._of_half(grid, np.zeros((3, grid.n, grid.n // 2 + 1), dtype=np.complex128),
                            profile="zero")

    @classmethod
    def from_fields(cls, f: VectorField, g: ScalarField, profile: str | None = None) -> "Forcing":
        if f.grid != g.grid:
            raise FieldError("force and moment live on different grids")
        h = f.grid.n // 2 + 1
        return cls._of_half(f.grid, np.stack([c.coeffs[:, :h] for c in (f.u1, f.u2, g)]),
                            profile=profile)

    def f_hat(self, t: float) -> np.ndarray:
        return _full_from_half(self.grid, self.half[:2]) if self.steady else self._f_hat(t)

    def g_hat(self, t: float) -> np.ndarray:
        return _full_from_half(self.grid, self.half[2]) if self.steady else self._g_hat(t)

    def f_at(self, t: float) -> VectorField:
        arr = self.f_hat(t)
        return VectorField.from_coeffs(self.grid, arr[0], arr[1])

    def g_at(self, t: float) -> ScalarField:
        return ScalarField(self.grid, self.g_hat(t))

    def norm(self, which: str, kind: str = "L2", t: float = 0.0) -> float:
        """
        ``spectral.norm(self.f_at(t), kind)`` for ``which`` "f", of
        ``self.g_at(t)`` for "g", with its bits.  A steady forcing takes each
        norm once, from its mirrored half planes (exactly Hermitian and
        zero-mean, so the fields' validation would not change them), and
        keeps it; a time-dependent one goes through the fields, and keeps
        the last time's f and g, so that a record's norms build each once.
        """
        value = self._norms.get((which, kind))
        if value is None:
            if which not in ("f", "g"):
                raise ValueError(f"which must be 'f' or 'g', got {which!r}")
            if not self.steady:
                if self._fields.get(which, (None,))[0] != t:
                    self._fields[which] = (t, self.f_at(t) if which == "f" else self.g_at(t))
                return spectral.norm(self._fields[which][1], kind)
            spectra = self.f_hat(t) if which == "f" else self.g_hat(t)[None]
            value = self._norms[which, kind] = spectral._spectra_norm(self.grid, spectra, kind)
        return value


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
                      out: np.ndarray) -> np.ndarray:
    """
    Write into the zeroed half planes ``out`` (C, n, width) the columns
    k2 < width of spectra with L2 energy weights[j] in the j-th enumerated
    mode: of a divergence-free vector for C = 2, of a scalar for C = 1.
    A pair {k, -k} in column k2 = 0 gets both slots, so that column is
    exactly Hermitian, as :meth:`Forcing.norm` requires.

    Each conjugate pair {k, -k} carries two real modes; the earlier table
    entry maps to the cosine mode, the later to the sine mode, both built on
    the canonical representative (k1 > 0, or k1 = 0 and k2 > 0).  For
    divergence-free vector modes the polarization is (-k2, k1)/|k|.
    """
    n, width = grid.n, out.shape[-1]
    divergence_free = len(out) == 2
    area = grid.area
    for j, (m, k) in enumerate(zip(weights, grid.table_rows(len(weights)))):
        if m == 0:
            continue
        k1, k2 = (int(v) for v in k)
        canonical = (k1, k2) if (k1 > 0 or (k1 == 0 and k2 > 0)) else (-k1, -k2)
        is_cos = (k1, k2) != canonical
        amp = signs[j] * np.sqrt(m / (2.0 * area))
        # cosine mode: c(k_c) = amp / sqrt(2)... folded into coefficient below
        coeff = amp if is_cos else -1j * amp
        slots = (((canonical[0] % n, canonical[1] % n), coeff),
                 (((-canonical[0]) % n, (-canonical[1]) % n), np.conj(coeff)))
        if divergence_free:
            kn = np.hypot(k1, k2)
            pol = np.array([-canonical[1], canonical[0]]) / kn
        for (i, jj), value in slots:
            if jj < width:
                out[:, i, jj] += value * pol if divergence_free else value
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
    the zero forcing once the arguments have passed the same checks.  The
    half planes of its spectra are written once and handed to the forcing.
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
    kmax = int(np.max(np.abs(grid.table_rows(mode_hi))))
    if kmax > grid.kcut:
        raise ValueError(f"forcing support reaches |k|={kmax} beyond the dealiased band "
                         f"((n-1)//3={grid.kcut}); refine the grid")

    # every law lives on the first mode_hi modes: their weights and signs
    # are all that is kept of the draws, which span the whole table
    rng = np.random.default_rng(seed)
    wf = _profile_weights(profile, magnitude_f2, mode_hi, mode_lo, mode_hi, rng)
    signs_f = rng.integers(0, 2, size=grid.num_modes)[:mode_hi] * 2.0 - 1.0
    wg = _profile_weights(profile, magnitude_g2, mode_hi, mode_lo, mode_hi, rng)
    signs_g = rng.integers(0, 2, size=grid.num_modes)[:mode_hi] * 2.0 - 1.0

    half = np.zeros((3, grid.n, grid.n // 2 + 1), dtype=np.complex128)
    _real_mode_arrays(grid, wf, signs_f, half[:2])
    _real_mode_arrays(grid, wg, signs_g, half[2:])
    meta = {"mode_lo": mode_lo, "mode_hi": mode_hi, "seed": seed,
            "magnitude_f2": magnitude_f2, "magnitude_g2": magnitude_g2}
    return Forcing._of_half(grid, half, profile=profile, meta=meta)


def forcing_with_decaying_gap(base: Forcing, gap_f: VectorField, gap_g: ScalarField,
                              decay_rate: float) -> Forcing:
    """Forcing equal to base plus exp(-decay_rate * t) times a fixed gap."""
    if gap_f.grid != base.grid or gap_g.grid != base.grid:
        raise FieldError("forcing gap lives on a different grid")
    gf = gap_f.stacked()
    gg = gap_g.coeffs.copy()
    base_f, base_g = base.f_hat, base.g_hat
    if base.steady:
        # the base's full spectra, mirrored once rather than at every step
        f0, g0 = base.f_hat(0.0), base.g_hat(0.0)
        base_f, base_g = (lambda t: f0), (lambda t: g0)

    def f_hat(t: float) -> np.ndarray:
        return base_f(t) + np.exp(-decay_rate * t) * gf

    def g_hat(t: float) -> np.ndarray:
        return base_g(t) + np.exp(-decay_rate * t) * gg

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
    imaginary (n, n) block from ``rng``, in turn.  The spectra are built in
    place in the array returned, which is C-contiguous.
    """
    n = grid.n
    band = (grid.lam > 0) & (np.sqrt(grid.k1**2 + grid.k2**2) <= kmax)
    spectra = np.empty((count, n, n), dtype=np.complex128)
    for plane in spectra:
        real = rng.standard_normal((n, n))
        np.add(real, np.multiply(1j, rng.standard_normal((n, n)), out=plane), out=plane)
    np.multiply(spectra, band, out=spectra)
    _hermitianize(grid, spectra)
    return spectra


def random_state(grid: Grid, seed: int, energy_u: float = 0.1, energy_omega: float = 0.05,
                 kmax: int = 4, t: float = 0.0) -> State:
    """
    Seeded random divergence-free initial state band-limited to |k| <= kmax,
    scaled so |u|^2 = energy_u and |omega|^2 = energy_omega (zero gives a
    zero field; a negative or non-finite energy is a ValueError).

    The spectra (u1, u2, omega) are built once, in place: projected, made
    exactly Hermitian with the mean zeroed (as the field constructors
    would), scaled, then wrapped without a second validation.
    """
    if not (0 <= energy_u < math.inf and 0 <= energy_omega < math.inf):
        raise ValueError(f"initial energies must be nonnegative and finite, "
                         f"got ({energy_u}, {energy_omega})")
    spectra = _random_scalars(grid, np.random.default_rng(seed), kmax, 3)
    velocity, omega = spectra[:2], spectra[2:]
    _leray_arrays(grid, velocity[0], velocity[1], out=velocity)
    _hermitianize(grid, spectra)
    spectra[:, 0, 0] = 0.0
    for field, energy in ((velocity, energy_u), (omega, energy_omega)):
        # |field|^2 as spectral.norm(field) ** 2 takes it
        sq = spectral._spectra_norm(grid, field, "L2") ** 2
        if energy > 0 and sq > 0:
            np.multiply(field, float(np.sqrt(energy / sq)), out=field)
        elif energy == 0:
            field[...] = 0.0
    u1, u2, w = (ScalarField._trusted(grid, c) for c in spectra)
    return State(VectorField(u1, u2), w, t)


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
    once.  Spectral arrays are dealiased blocks (2 kcut + 1, kcut + 1),
    rows k1 = 0..kcut then -kcut..-1 and columns k2 = 0..kcut, the modes
    that the 2/3 rule keeps; only the transforms' axis-0 stages have n
    rows.  Arrays are component-major, (component, member, rows, width),
    so one component of all members is one contiguous block, and so are
    the components that a stage treats alike: the (c1, c2, w) planes, the
    velocity pair, the products of the physical planes.  Each elementwise
    stage of a step is then one numpy call over its whole block.  The
    block tables are stacked the same way, over the components of the
    stage that reads them and over the members (:meth:`stacked`):

    - ``deriv``: (d2, d1), the derivative factors that rot takes of
      (c1, c2); ``d2`` and ``d1`` are its components.
    - ``leray``: (P11, P12, P22), of which ``_half_leray`` takes the
      (P11, P12) and (P12, P22) blocks.

    (The stepper stacks its CN tables alike.)  A buffer lends its bytes to
    other temporaries while what it holds is spent:

    - ``phys``: the 5 physical planes of each member; the products
      overwrite planes 2..4 as their factors are spent.  Before the
      inverse transform its bytes hold the block temporaries ``tmp`` and,
      after them, the spectral input ``spec_in`` (whose mean slots of
      (c1, c2, w) ``means`` views); after the forward
      transform's last-axis stage, ``tmp`` and, after it, that transform's
      axis-0 stage ``fwd_stage`` (..., n, kcut + 1), which it reads on
      lattices that take pocketfft stages; after the step, the finiteness
      mask ``finite``.  (``tmp`` and ``spec_in`` take 16 (2 kcut + 1)
      (kcut + 1) floats a member, ``tmp`` and ``fwd_stage`` 6 (2 kcut + 1
      + n) (kcut + 1), both within the 5 n^2 of ``phys``.)
    - one spectral scratch: the inverse transform's axis-0 stage
      ``stage`` (5, members, n, kcut + 1), into which a block is scattered
      for pocketfft or which the dense DFT product writes
      (``spectral._dense_dft``), then, with pairs, the products' factors
      ``factors``, then the forward transform's last-axis stage
      ``rfft_out``, then the AB2 combination ``ab2``.
    - ``E`` and ``E_prev``: this step's and the last step's raw explicit
      terms, swapped after each step.  ``E`` holds the 2 nu_r coupling
      while the transforms run (their forward stage then writes into
      ``tmp``); ``E_prev`` is scratch once the AB2 combination has read it.
    - ``out``: the stepper's blocks, which ``U``, ``W``, ``V`` and ``Z``
      view in the layout of the stepper's inputs.  The kernel copies
      inputs that are not these planes into them, reads its factors from
      them, and the update overwrites them.
    - ``factors``: with pairs, the state's 5 physical planes copied over
      all members, (5, members, n, n), refreshed per kernel call in the
      spectral scratch (which then holds at least 5 n / 2 complex columns
      per member row), so that the products of the state and of the pairs
      run in one pass over equal contiguous shapes; without pairs,
      ``phys`` itself.
    """

    def __init__(self, grid: Grid, members: int):
        n, m, h = grid.n, grid.kcut + 1, grid.n // 2 + 1
        r = 2 * grid.kcut + 1
        self.members = members
        self.phys = np.empty((5, members, n, n))
        width = max(5 * m, 3 * h, 5 * n // 2 if members > 1 else 0)
        spec = np.empty(members * n * width, dtype=np.complex128)
        self.stage = spec[: 5 * members * n * m].reshape(5, members, n, m)
        self.rfft_out = spec[: 3 * members * n * h].reshape(3, members, n, h)
        self.ab2 = spec[: 3 * members * r * m].reshape(3, members, r, m)
        spent, block = self.phys.reshape(-1), members * r * m
        self.tmp = spent.view(np.complex128)[: 3 * block].reshape(3, members, r, m)
        self.spec_in = spent.view(np.complex128)[3 * block: 8 * block].reshape(5, members, r, m)
        self.means = self.spec_in[:3, :, 0, 0]
        self.fwd_stage = spent.view(np.complex128)[3 * block: 3 * block + 3 * members * n * m] \
            .reshape(3, members, n, m)
        self.finite = spent.view(np.bool_)[: 6 * block].reshape(3, members, r, 2 * m)
        self.E, self.E_prev, self.out = (np.empty((3, members, r, m), dtype=np.complex128)
                                         for _ in range(3))
        self.U, self.W = self.out[:2, 0], self.out[2, 0]
        self.V, self.Z = self.out[:2, 1:].swapaxes(0, 1), self.out[2, 1:]
        self.factors = self.phys
        if members > 1:
            self.factors = spec.view(np.float64)[: 5 * members * n * n].reshape(5, members, n, n)
        self.deriv = self.stacked(np.stack(np.broadcast_arrays(grid.block_d2, grid.block_d1)))
        self.d2, self.d1 = self.deriv
        self.leray = self.stacked(grid.block_leray)

    def stacked(self, tables: np.ndarray) -> np.ndarray:
        """
        Block tables (C, 2 kcut + 1, kcut + 1), one per component of a
        stage, each plane contiguous, stacked over the members to (C,
        members, 2 kcut + 1, kcut + 1).  numpy buffers an operand that it
        cannot step through like the others (one broadcast over an outer
        axis, or one in reverse order) when the contiguous block inside has
        at most half its ufunc buffer of elements (``np.getbufsize()``), so
        a stack of such small planes that is not contiguous already is
        copied; larger ones are viewed.
        """
        stack = np.broadcast_to(tables[:, None], (len(tables), self.members) + tables.shape[1:])
        if _buffered(tables[0]) and not stack.flags.c_contiguous:
            return stack.copy()
        return stack


def _buffered(plane: np.ndarray) -> bool:
    """Whether numpy buffers a strided operand of ``plane``'s size (see _Workspace.stacked)."""
    return 2 * plane.size <= np.getbufsize()


def _explicit_terms(grid: Grid, params: Params, U: np.ndarray, W: np.ndarray,
                    f_hat: np.ndarray, g_hat: np.ndarray,
                    extra: Callable | None = None, t: float = 0.0,
                    V: np.ndarray | None = None, Z: np.ndarray | None = None,
                    work: _Workspace | None = None):
    """
    Explicitly treated part of the RHS: advection, 2 nu_r rot coupling and
    forcing.  Returns (EU, EW, max_speed), dealiased blocks (last two axes
    (2 kcut + 1, kcut + 1)) of the raw terms, neither projected nor
    zero-mean: :meth:`_Stepper._imex` projects the step's update.

    Given tangent pairs ``V`` (N, 2, ...) and ``Z`` (N, ...), it also
    returns their terms (EV, EZ), the same part of the dynamics linearized
    about (u, w):
        E_V = -(omega_V x u + omega_u x V) + 2 nu_r rot Z
        E_Z = -(u.grad)Z - (V.grad)w + 2 nu_r rot V
    with omega_X = rot X and omega x X = (-omega X2, omega X1).  Forcing and
    ``extra`` act on the state only.

    ``U``, ``W``, ``V``, ``Z``, ``f_hat``, ``g_hat`` and what
    ``extra(t, U, W)`` returns are dealiased blocks, half planes or full
    spectra: only their blocks are read.

    Advection uses the rotational form P[(u.grad)u] = P[omega x u] with
    omega = rot u, exact in the dealiased band because the gradient part
    grad(|u|^2/2) is removed by the projection.  Only the blocks of the
    inputs are read, with the mean zeroed, so this also holds for a state
    that is not dealiased.  The state and each pair take 5 inverse (u1,
    u2, omega, d1 w, d2 w) and 3 forward (omega u2, omega u1, u.grad w) real
    transforms, all members in one call each way, the last two negated
    in the spectral combination.

    Every temporary lives in the workspace ``work`` (a fresh one when
    omitted): the inputs are copied into its planes ``out`` unless they
    are those planes, each elementwise stage is one call over all members
    (and over the components it treats alike), and the terms returned are
    views of its ``E``.
    """
    if work is None:
        work = _Workspace(grid, 1 if V is None else 1 + len(V))
    spec, phys, tmp, E, out = work.spec_in, work.phys, work.tmp, work.E, work.out
    d1, d2, deriv = work.d1, work.d2, work.deriv
    for given, own in ((U, work.U), (W, work.W), (V, work.V), (Z, work.Z)):
        if given is not None and given is not own:
            spectral._block(grid, given, out=own)

    # spectral input (c1, c2, rot u, d1 w, d2 w) of every member, from
    # (c1, c2, w) with the mean zeroed
    spec[:3] = out
    work.means.fill(0.0)
    np.multiply(d2, spec[2], out=spec[4])
    np.multiply(d1, spec[2], out=spec[3])
    np.multiply(deriv, spec[:2], out=tmp[:2])
    np.subtract(tmp[1], tmp[0], out=spec[2])
    two_nur = 2.0 * params.nu_r
    if two_nur != 0.0:
        # the coupling 2 nu_r (d2 w, -d1 w, rot u) into E, before the
        # inverse transform's pocketfft stages overwrite the spectral input
        np.multiply(two_nur, spec[4:1:-2], out=E[::2])
        np.multiply(-two_nur, spec[3], out=E[1])
    _half_to_phys(spec, out=phys, stage=work.stage, n=grid.n)

    # products into planes 2..4 of each member, each written over factors
    # it has spent.  A member's planes are (X1, X2, rot X, x1, x2), with
    # (X, x) = (u, w) for the state and (V, Z) for a pair; every member
    # takes the state's factors F = (u1, u2, rot u, w1, w2) in the same
    # calls, and the pairs then add their V.grad w and omega_u x V
    F = work.factors
    if F is not phys:
        np.copyto(F, phys[:, :1])
    pairs = phys[:, 1:]
    # u.grad x [+ V.grad w] into plane 4
    np.multiply(F[:2], phys[3:], out=phys[3:])
    np.add(phys[3], phys[4], out=phys[4])
    if work.members > 1:
        np.multiply(pairs[:2], F[3:, 1:], out=F[3:, 1:])
        np.add(pairs[4], F[3, 1:], out=pairs[4])
        np.add(pairs[4], F[4, 1:], out=pairs[4])
    # omega_X u2 [+ omega_u V2] into plane 2, omega_X u1 [+ omega_u V1]
    # into plane 3: -(omega_X x u [+ omega_u x V]) is (plane 2, -plane 3)
    np.multiply(phys[2], F[0], out=phys[3])
    np.multiply(phys[2], F[1], out=phys[2])
    if work.members > 1:
        np.multiply(F[2, 1:], pairs[0], out=pairs[0])
        np.multiply(F[2, 1:], pairs[1], out=pairs[1])
        np.add(pairs[3:1:-1], pairs[:2], out=pairs[3:1:-1])
    # the speeds, in the state's spent velocity planes
    speed = phys[:2, 0]
    np.multiply(speed, speed, out=speed)
    np.add(speed[0], speed[1], out=speed[0])
    max_speed = math.sqrt(float(speed[0].max()))
    # with the coupling in E, the transform goes to the spent planes and
    # E0 += F(plane 2), E1 -= F(plane 3), E2 -= F(plane 4); without, it
    # goes to E and the last two are negated
    fwd = E if two_nur == 0.0 else tmp[:3]
    _phys_to_half(phys[2:], out=fwd, scratch=work.rfft_out, stage=work.fwd_stage)
    if two_nur == 0.0:
        np.negative(E[1:], out=E[1:])
    else:
        np.add(fwd[0], E[0], out=E[0])
        np.subtract(E[1:], fwd[1:], out=E[1:])
    # the state's own terms, one plane at a time: with pairs they are
    # strided within the component block, and numpy would buffer an add of
    # a contiguous stack into them at small planes
    own = E[:, 0]
    for k, f in enumerate((f_hat[0], f_hat[1], g_hat)):
        np.add(own[k], spectral._block(grid, f), out=own[k])
    if extra is not None:
        dU, dW = extra(t, U, W)
        for k, d in enumerate((dU[0], dU[1], dW)):
            np.add(own[k], spectral._block(grid, d), out=own[k])
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
    terms = _projected_terms(grid, EU, EW)
    visc = (params.nu + params.nu_r) * grid.lam
    du = terms[:2] - visc * U
    dw = terms[2] - (params.alpha * grid.lam + 4.0 * params.nu_r) * W
    return VectorField.from_coeffs(grid, du[0], du[1]), ScalarField(grid, dw)


def _projected_terms(grid: Grid, EU: np.ndarray, EW: np.ndarray) -> np.ndarray:
    """Full spectra (3, n, n) of the raw block terms (EU, EW) of
    :func:`_explicit_terms`, with the mean zeroed and EU Leray-projected:
    what a step's one projection makes of them, for the public right-hand
    sides."""
    terms = np.stack([EU[0], EU[1], EW])
    terms[:, 0, 0] = 0.0
    terms = _full_from_half(grid, terms)
    _leray_arrays(grid, terms[0], terms[1], out=terms[:2])
    return terms


class _Stepper:
    """IMEX CN/AB2 integrator core on dealiased blocks (the modes |k1|, |k2|
    <= kcut of the half plane; :func:`_to_half` and :func:`_from_half`
    convert at the ``State`` boundary), with one :class:`_Workspace` and
    its CN tables per member count, so that a step allocates no arrays."""

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

        # a steady forcing's block, taken once; a time-dependent one is
        # evaluated per step
        self.forcing_block = None
        if forcing.steady:
            block = spectral._block(grid, forcing.half)
            self.forcing_block = (block[:2], block[2])

        self.work: _Workspace | None = None
        self.cn: tuple[np.ndarray, ...] = ()  # (num, dt_den) stacked over the members
        self.history = False  # whether work.E_prev holds the last step's terms

    def _cn_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(num, dt_den) of u_new = num * u + dt / den * explicit, with den,
        num = 1 +/- dt/2 * linear: block tables, complex like the
        spectra so products need no casting, one per component of (u1, u2,
        w), each written in place into its complex stack.  Built with each
        workspace, whose stacks then hold the only copy."""
        lam = spectral._block(self.grid, self.grid.lam)
        params, dt = self.params, self.dt
        rv = 0.5 * dt * (params.nu + params.nu_r) * lam
        rw = 0.5 * dt * (params.alpha * lam + 4.0 * params.nu_r)
        num, dt_den = (np.empty((3,) + lam.shape, dtype=np.complex128) for _ in range(2))
        for k, r in enumerate((rv, rv, rw)):
            num[k] = (1.0 - r) / (1.0 + r)
            dt_den[k] = dt * (1.0 / (1.0 + r))
        return num, dt_den

    def _imex(self) -> None:
        """CN/AB2 update (forward Euler without history) of every member, in
        place in ``work.out``, from the raw terms in ``work.E``, then the
        step's one projection (the CN tables of u1 and u2 are equal, so the
        projected update is the update from projected terms): the blocks
        leave zero-mean and exactly Hermitian in column k2 = 0."""
        work = self.work
        E, prev, A, out = work.E, work.E_prev, work.ab2, work.out
        num, dt_den = self.cn
        terms = E
        if self.history:
            np.multiply(1.5, E, out=A)
            np.multiply(0.5, prev, out=prev)
            np.subtract(A, prev, out=A)
            terms = A
        np.multiply(num, out, out=out)
        np.multiply(dt_den, terms, out=A)
        np.add(out, A, out=out)
        spectral._half_leray(work.leray, out[:2], out[:2], prev[:2])
        spectral._mirror_own_column(out, A.reshape(-1))

    def advance(self, U: np.ndarray, W: np.ndarray, t: float,
                V: np.ndarray | None = None, Z: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """
        One step from dealiased blocks, half planes or full spectra (U, W)
        at time t; returns blocks (..., 2 kcut + 1, kcut + 1).  Tangent
        pairs (V, Z) ride along under the dynamics
        linearized about (U, W), with the same AB2 history; then
        (U, W, V, Z) is returned.  A change of the number of pairs
        restarts that history with forward Euler.  The planes returned are
        exactly Hermitian in column k2 = 0, which no record has to repair.

        The returned planes are the stepper's own buffers, and the next
        call overwrites them: pass them back in (they may also be changed
        in place in between) and copy whatever must outlive the next step.
        """
        grid, dt = self.grid, self.dt
        members = 1 if V is None else 1 + len(V)
        if self.work is None or self.work.members != members:
            self.work = _Workspace(grid, members)
            self.cn = tuple(self.work.stacked(x) for x in self._cn_tables())
            self.history = False
        work = self.work
        f_hat, g_hat = self.forcing_block or (self.forcing.f_hat(t), self.forcing.g_hat(t))
        # the kernel copies inputs that are not the stepper's planes into
        # them; the update then runs in place there
        speed = _explicit_terms(grid, self.params, U, W, f_hat, g_hat,
                                extra=self.extra, t=t, V=V, Z=Z, work=work)[2]
        if speed > 0:
            dt_max = self.cfl_limit * (grid.L / grid.n) / speed
            if dt > dt_max:
                raise CflViolationError(
                    f"dt={dt:.3e} exceeds CFL guard {dt_max:.3e} at t={t:.6g} "
                    f"(max advective speed {speed:.3e})"
                )
        self._imex()
        work.E, work.E_prev = work.E_prev, work.E
        self.history = True
        if not np.isfinite(work.out.view(np.float64), out=work.finite).all():
            raise NumericsError(f"non-finite coefficients after step at t={t + dt:.6g}")
        if V is None:
            return work.U, work.W
        return work.U, work.W, work.V, work.Z


def _half_planes(state: State) -> np.ndarray:
    """Whole half planes (3, n, n//2 + 1) of a state's (u1, u2, omega): a
    copy."""
    h = state.grid.n // 2 + 1
    return np.stack([c.coeffs[:, :h] for c in (state.u.u1, state.u.u2, state.omega)])


def _to_half(state: State) -> tuple[np.ndarray, np.ndarray]:
    """The dealiased blocks (U, W) of a state, the planes a time loop
    carries: views of one new (3, 2 kcut + 1, kcut + 1) array."""
    grid = state.grid
    planes = np.empty((3, 2 * grid.kcut + 1, grid.kcut + 1), dtype=np.complex128)
    for plane, field in zip(planes, (state.u.u1, state.u.u2, state.omega)):
        spectral._block(grid, field.coeffs, out=plane)
    return planes[:2], planes[2]


def _from_half(grid: Grid, U: np.ndarray, W: np.ndarray, t: float) -> State:
    """State of the blocks (U, W) of a time loop, or the half planes of a
    ``State``: their :func:`_full_spectra`, wrapped without a second
    validation."""
    u1, u2, w = (ScalarField._trusted(grid, c) for c in _full_spectra(grid, U, W))
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
# The state norms of the set, (L2, H1, DA) x (u, omega), as _state_sums orders them.
_STATE_NORMS = [name for name, (_, which) in _STANDARD_SET.items() if which in ("u", "omega")]


def _state_sums(grid: Grid, planes: np.ndarray, weights: np.ndarray | None = None) -> list[float]:
    """
    The one computation of the standard set's state norms, in its order,
    of the (u1, u2, omega) dealiased blocks or half planes ``planes`` (3,
    rows, w) of a zero-mean state: |c|^2 of u and omega under the L2, H1
    and D(A) :func:`spectral._half_weights` (``weights``, a run's, when
    their shape fits), one BLAS product of the weights (3, rows w) with
    the power planes of (u1, u2, omega), whose sums for u1 and u2 are then
    added.  Planes of a time loop or a ``State``, exactly Hermitian in
    column k2 = 0 (and n/2), hold the power of its full spectra; whole
    half planes zero beyond the band are taken as their blocks, for the
    same bits.
    """
    n, kcut = grid.n, grid.kcut
    if planes.shape[-2] == n and not (planes[..., kcut + 1:].any()
                                      or planes[..., kcut + 1:n - kcut, :].any()):
        planes = spectral._block(grid, planes)
    power = np.abs(planes)
    np.square(power, out=power)
    if weights is None or weights.shape[-2:] != planes.shape[-2:]:
        weights = spectral._half_weights(grid, planes.shape[-2:], None, grid.lam, grid.lam_sq)
    sums = weights.reshape(3, -1) @ power.reshape(3, -1).T
    np.add(sums[:, 0], sums[:, 1], out=sums[:, 1])
    return sums[:, 1:].ravel().tolist()


def standard_observers() -> dict[str, Callable[[State, Forcing], float]]:
    """
    Observer set consumed by the a-priori inequality verifiers: squared L2,
    H1 and D(A) norms of u and omega, and the forcing strengths in L2 and
    the dual norm.  The forcing observers read :meth:`Forcing.norm`, which
    evaluates a steady forcing once and a time-dependent one at every call.
    ``simulate`` without observers records this set from its planes, with
    the same bits (both go through ``_state_sums``).
    """
    def state_sq(index):
        return lambda state, forcing: _state_sums(state.grid, _half_planes(state))[index]

    def forcing_sq(kind, which):
        return lambda state, forcing: forcing.norm(which, kind, state.t) ** 2

    return {name: state_sq(_STATE_NORMS.index(name)) if name in _STATE_NORMS
            else forcing_sq(kind, which) for name, (kind, which) in _STANDARD_SET.items()}


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
    taken from the stepper's planes (see ``_state_sums``) without building
    a ``State`` per record.  The loop is :func:`_simulate`.
    """
    return _simulate(lambda: initial, params, forcing, t_end, dt, observers, stride, cfl_limit)


def _simulate(initial: Callable[[], State], params: Params, forcing: Forcing, t_end: float,
              dt: float, observers: Mapping[str, Callable[[State, Forcing], float]] | None = None,
              stride: int = 1, cfl_limit: float = 0.5) -> SimulationResult:
    """
    The time loop of :func:`simulate`, from the state that ``initial()``
    builds.  A run's peak memory is its workspace plus blocks: full
    spectra exist before the first step and after the last, never beside
    the workspace.  So the loop keeps only the half planes of the initial
    ``State`` (which is freed here when only ``initial`` made it: a
    caller's frame holds what it passes for the whole call), narrows them
    to their dealiased blocks after the first record, drops those after
    the first step, and releases the stepper (its workspace, CN tables and
    forcing block) before it builds the final ``State`` from a copy of the
    last blocks.  Observers of a mapping get a ``State`` per record.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride!r}")
    nsteps = _whole_steps(t_end, dt)
    state = initial()
    grid, t0, planes = state.grid, state.t, _half_planes(state)
    del state
    stepper = _Stepper(grid, params, forcing, dt, cfl_limit)

    times: list[float] = []
    if observers is None:
        # the forcing norms at each record's time, the state norms from its planes
        series = {name: [] for name in _STANDARD_SET}
        forcing_norms = {name: (which, kind)
                         for name, (kind, which) in _STANDARD_SET.items() if which in "fg"}
        weights = spectral._half_weights(grid, (2 * grid.kcut + 1, grid.kcut + 1),
                                         None, grid.lam, grid.lam_sq)

        def record_planes(t: float, planes: np.ndarray) -> None:
            for name, (which, kind) in forcing_norms.items():
                series[name].append(forcing.norm(which, kind, t) ** 2)
            for name, value in zip(_STATE_NORMS, _state_sums(grid, planes, weights)):
                series[name].append(value)
    else:
        series = {name: [] for name in observers}

        def record_planes(t: float, planes: np.ndarray) -> None:
            state = _from_half(grid, planes[:2], planes[2], t)
            for name, fn in observers.items():
                series[name].append(float(fn(state, forcing)))

    def record(t: float, planes: np.ndarray) -> None:
        times.append(t)
        record_planes(t, planes)

    record(t0, planes)
    if nsteps:
        # the first step reads only the block of the initial planes
        planes = spectral._block(grid, planes)
    U, W = planes[:2], planes[2]
    for i in range(nsteps):
        t = t0 + i * dt
        U, W = stepper.advance(U, W, t)
        # the stepper's blocks (3, 2 kcut + 1, kcut + 1), of which U and W are views
        planes = stepper.work.out[:, 0]
        if (i + 1) % stride == 0 or i + 1 == nsteps:
            record(t0 + (i + 1) * dt, planes)

    final = planes.copy()
    del stepper, planes, U, W
    return SimulationResult(np.asarray(times), {k: np.asarray(v) for k, v in series.items()},
                            _from_half(grid, final[:2], final[2], t0 + nsteps * dt), dt=dt)


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


def read_checkpoint(path, resumable: bool = False) -> tuple[State, Params]:
    """
    Read a checkpoint written by :func:`write_checkpoint`.  With
    ``resumable``, a state that a time loop would change at its first step
    without a trace raises ValueError: a nonzero mean (which the fields
    zero), a mode outside the dealiased band (which the loop's blocks
    drop), or a velocity that is not divergence-free to 1e-10 (which the
    step projects).
    """
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
        grid = make_grid(n, L)
        # read straight into the spectra, which are then validated and
        # symmetrized in place, one field at a time
        spectra = np.empty((3, n, n), dtype="<c16")
        if fh.readinto(spectra) != payload:
            raise ValueError("checkpoint file truncated")
    means = spectra[:, 0, 0].copy()
    outside = resumable and bool(spectra[:, ~grid.dealias_mask].any())
    for c in spectra:
        _check_hermitian(grid, c)
    u1, u2, w = (ScalarField._trusted(grid, c) for c in spectra)
    state = State(VectorField(u1, u2), w, t)
    if resumable:
        if means.any():
            raise ValueError(f"nonzero mean mode {means.tolist()} in (u1, u2, omega)")
        if outside:
            raise ValueError(f"modes outside the dealiased band |k1|, |k2| <= {grid.kcut}")
        if not state.u.is_divergence_free(1e-10):
            raise ValueError(f"velocity is not divergence-free (relative divergence "
                             f"{state.u.max_divergence():.3e} > 1e-10)")
    return state, Params(nu, nu_r, alpha)
