"""
Spectral infrastructure on the periodic square torus.

Provides the grid with its enumerated Laplacian eigenvalues, zero-mean
Hermitian-symmetric scalar and vector fields, forward/inverse transforms,
differential operators (Laplacian, rot, Leray projection), Galerkin
projectors onto low/high eigenvalue modes, the advective trilinear forms,
spectral norms, and nodal sampling/interpolation for point observations.

Coefficient convention: a real field is represented by the full complex
spectrum ``c[k1, k2]`` (numpy FFT layout) of

    f(x) = sum_k c_k exp(2*pi*i k.x / L),

so Parseval reads ``int_Q f^2 dx = L^2 * sum_k |c_k|^2``.  The mean mode
``c_0`` is identically zero and ``c_{-k} = conj(c_k)`` always holds.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldError",
    "Grid",
    "ScalarField",
    "VectorField",
    "make_grid",
    "transform_to_physical",
    "transform_to_spectral",
    "leray_project",
    "apply_A",
    "apply_A_inverse",
    "apply_A1",
    "apply_A1_inverse",
    "rot_vec",
    "rot_scalar",
    "galerkin_P",
    "galerkin_Q",
    "mode_mask",
    "trilinear_b",
    "trilinear_b1",
    "norm",
    "inner",
    "NodeSet",
    "make_node_set",
    "nodal_sample",
    "nodal_values_max",
    "nodal_interpolant",
]

HERMITIAN_RTOL = 1e-8


class FieldError(ValueError):
    """Raised when a field violates its structural invariants."""


def _computed(build):
    """A full-lattice :class:`Grid` table, computed when read: a new read-only array each time."""
    def read(self):
        return _read_only(build(self))[0]
    return property(read, doc=build.__doc__)


@dataclass(frozen=True)
class Grid:
    """
    Periodic square grid with precomputed spectral bookkeeping.

    Parameters
    ----------
    n : int
        Points per side; must be even and at least 8.
    L : float
        Period length of the square domain Q = (0, L)^2.

    Notes
    -----
    The Laplacian eigenvalues lambda(k) = (2*pi/L)^2 |k|^2 over all
    nonzero integer wavevectors representable on the grid are enumerated
    in ``eigenvalues`` sorted ascending, ties broken by lexicographic
    (k1, k2) order, with their wavevectors in ``table_wavevectors``.
    ``mode_rank[i, j]`` gives the position of grid slot (i, j) in that
    enumeration (the zero mode gets a sentinel rank equal to the table
    length).  ``lam``, ``inv_lam`` and ``lam_sq`` are the H1, H^-1 and
    D(A) norm weights per grid slot.

    ``dealias_mask`` keeps |k1|, |k2| <= ``kcut`` = (n - 1) // 3, the
    largest cutoff for which quadratic products alias only outside the
    band.  The ``half_*`` tables serve the band plane (n, kcut + 1), the
    columns k2 = 0..kcut of the real-transform half plane (n, n//2 + 1)
    that the time stepper carries: derivative factors (shaped (n, 1) and
    (1, kcut + 1) to broadcast), the Leray entries (P11, P12, P22) with the
    dealias mask folded in, the mask itself without the mean mode, and the
    row map k1 -> -k1 that rebuilds the full Hermitian spectrum.

    A grid stores its 1-D wavenumber axes, the ``half_*`` tables and
    ``mode_order``, the flat slot i n + j of each enumerated mode (int32).
    The wavenumber tables ``k1``, ``k2`` (integer) and ``k1_deriv``,
    ``k2_deriv`` (float, Nyquist lines zeroed) are read-only (n, n) views
    of their axes.  The other full-lattice tables are computed when read,
    as new read-only arrays; no step of a time loop reads them.  Build
    grids with :func:`make_grid`, which keeps one per lattice.
    """

    n: int
    L: float

    def __post_init__(self) -> None:
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got n={self.n}")
        if not 0 < self.L < np.inf:
            raise ValueError(f"period length must be positive and finite, got L={self.L}")

        n = self.n
        kax = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        K1, K2 = (np.broadcast_to(k, (n, n)) for k in (kax[:, None], kax))
        ksq = K1 * K1 + K2 * K2
        # 2/3 rule: products of two fields with |k_i| <= kcut alias onto
        # wavenumbers k -/+ n, which stay outside the band iff 3 kcut < n.
        kcut = (n - 1) // 3
        dealias = (np.abs(K1) <= kcut) & (np.abs(K2) <= kcut)

        # Enumerate all nonzero modes sorted by (|k|^2, k1, k2); slot
        # (i, j) has the flat index i n + j.
        nonzero = np.flatnonzero(ksq)
        order = np.lexsort((kax[nonzero % n], kax[nonzero // n], ksq.ravel()[nonzero]))

        # Nyquist lines carry self-conjugate modes for which odd derivatives
        # of real fields are not representable; zero them in the derivative
        # wavenumbers (they are already outside the dealiased band).
        kd = kax.astype(np.float64)
        kd[n // 2] = 0.0
        K1d, K2d = (np.broadcast_to(k, (n, n)) for k in (kd[:, None], kd))

        # Band-plane tables (columns k2 = 0..kcut of the real-transform half
        # plane), stored complex so products with spectra need no casting.
        # The dealias mask, with the mean mode dropped, is folded into the
        # Leray entries, so one projection also truncates and zeroes the mean.
        m = kcut + 1
        keep = (dealias & (ksq > 0))[:, :m]
        k1h, k2h = K1d[:, :m], K2d[:, :m]
        ksq_h = k1h * k1h + k2h * k2h
        inv_ksq_h = np.divide(1.0, ksq_h, out=np.zeros_like(ksq_h), where=ksq_h > 0)
        leray_h = np.stack([1.0 - k1h * k1h * inv_ksq_h,
                            -k1h * k2h * inv_ksq_h,
                            1.0 - k2h * k2h * inv_ksq_h]) * keep
        deriv = 1j * (2.0 * np.pi / self.L)

        for name, value in (
            ("k1", K1),
            ("k2", K2),
            ("k1_deriv", K1d),
            ("k2_deriv", K2d),
            ("mode_order", nonzero[order].astype(np.int32)),
            ("half_keep", keep.astype(np.complex128)),
            ("half_d1", deriv * kd[:, None]),
            ("half_d2", deriv * kd[None, :m]),
            ("half_leray", leray_h.astype(np.complex128)),
            ("half_conj_rows", (-np.arange(n)) % n),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "kcut", kcut)

    @_computed
    def lam(self) -> np.ndarray:
        """Laplacian eigenvalue lambda(k) per grid slot (the H1 weight)."""
        k1, k2 = self.k1[:, :1], self.k2[:1]
        return self.lambda1 * (k1 * k1 + k2 * k2).astype(np.float64)

    @_computed
    def inv_lam(self) -> np.ndarray:
        """1 / lambda(k) per grid slot, 0 at k = 0 (the H^-1 weight)."""
        lam = self.lam
        return np.divide(1.0, lam, out=np.zeros_like(lam), where=(self.k1 != 0) | (self.k2 != 0))

    @_computed
    def lam_sq(self) -> np.ndarray:
        """lambda(k)^2 per grid slot (the D(A) weight)."""
        return np.square(self.lam)

    @_computed
    def dealias_mask(self) -> np.ndarray:
        """|k1|, |k2| <= kcut per grid slot."""
        band = np.abs(self.k1[:, 0]) <= self.kcut
        return band[:, None] & band

    @_computed
    def conj_flat(self) -> np.ndarray:
        """Flat index of the conjugate slot -k of each slot k, shape (n^2,)."""
        return (self.half_conj_rows[:, None] * self.n + self.half_conj_rows).ravel()

    def table_rows(self, stop: int | None = None) -> np.ndarray:
        """(k1, k2) of the enumerated modes 0..stop-1 (all n^2 - 1 of them by
        default), shape (stop, 2): the head of the enumeration alone builds
        no whole-lattice table."""
        flat, kax = self.mode_order[:stop], self.k1[:, 0]
        return np.stack([kax[flat // self.n], kax[flat % self.n]], axis=1)

    table_wavevectors = _computed(table_rows)

    @_computed
    def eigenvalues(self) -> np.ndarray:
        """lambda(k) of each enumerated mode, ascending, shape (n^2 - 1,)."""
        return self.lam.ravel()[self.mode_order]

    @_computed
    def mode_rank(self) -> np.ndarray:
        """Rank of each grid slot in the eigenvalue enumeration, shape (n, n)."""
        rank = np.full(self.n * self.n, self.num_modes, dtype=np.int64)
        rank[self.mode_order] = np.arange(self.num_modes)
        return rank.reshape(self.n, self.n)

    @property
    def lambda1(self) -> float:
        """Smallest Laplacian eigenvalue (2*pi/L)^2."""
        return (2.0 * np.pi / self.L) ** 2

    @property
    def area(self) -> float:
        """Domain measure |Q| = L^2."""
        return self.L * self.L

    @property
    def num_modes(self) -> int:
        """Number of enumerated nonzero modes (n^2 - 1)."""
        return len(self.mode_order)

    def deriv_factor(self, axis: int) -> np.ndarray:
        """Spectral derivative multiplier i*(2*pi/L)*k_axis (Nyquist lines zeroed)."""
        k = self.k1_deriv if axis == 0 else self.k2_deriv
        return 1j * (2.0 * np.pi / self.L) * k


# The grids alive in this process, one per lattice (n, L); a grid that
# nothing else holds is dropped from the map and freed.
_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def make_grid(n: int, L: float) -> Grid:
    """
    The grid of the lattice (n, L), rejecting odd or undersized n and
    nonpositive or infinite L.  Every call for a lattice returns the same
    grid while any of its callers holds it, so its tables exist once.
    """
    key = (int(n), float(L))
    grid = _GRIDS.get(key)
    if grid is None:
        grid = _GRIDS[key] = Grid(*key)
    return grid


def _hermitianized(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Exact Hermitian part (c_k + conj(c_-k)) / 2 of spectra ``coeffs[..., n, n]``."""
    # c_-k in one new C-ordered array, worked on in place: on each axis slot 0
    # stays and the others reverse, four slice copies with no n^2 index
    sym = np.empty_like(coeffs, order="C")
    sym[..., :1, :1] = coeffs[..., :1, :1]
    sym[..., :1, 1:] = coeffs[..., :1, :0:-1]
    sym[..., 1:, :1] = coeffs[..., :0:-1, :1]
    sym[..., 1:, 1:] = coeffs[..., :0:-1, :0:-1]
    np.conj(sym, out=sym)
    sym += coeffs
    sym *= 0.5
    return sym


def _hermitianize(grid: Grid, planes: np.ndarray) -> None:
    """Replace each spectrum of the C-contiguous stack ``planes[..., n, n]``,
    in place, by its :func:`_hermitianized` part, with its bits; one plane
    at a time, so that one plane is the only temporary."""
    for plane in planes.reshape((-1,) + planes.shape[-2:]):
        np.copyto(plane, _hermitianized(grid, plane))


def _check_hermitian(grid: Grid, coeffs: np.ndarray) -> None:
    """
    Validate finiteness and Hermitian symmetry of the spectrum ``coeffs``
    (n, n), then replace it, in place, by its exact Hermitian part with the
    mean mode zeroed.  Temporaries: one complex and one real plane.
    """
    magnitude = np.abs(coeffs)
    scale = np.max(magnitude)
    if not np.isfinite(scale):
        raise FieldError("coefficients are not finite")
    sym = _hermitianized(grid, coeffs)
    dev = np.max(np.abs(np.subtract(coeffs, sym, out=coeffs), out=magnitude))
    if dev > HERMITIAN_RTOL * scale:
        raise FieldError(
            f"coefficients are not Hermitian-symmetric (deviation {dev:.3e}, scale {scale:.3e})"
        )
    np.copyto(coeffs, sym)
    coeffs[0, 0] = 0.0


@dataclass(frozen=True)
class ScalarField:
    """
    Zero-mean real scalar field stored as its full complex spectrum.

    Construction validates Hermitian symmetry (relative deviation above
    1e-8 is rejected), then symmetrizes exactly and hard-zeroes the mean
    mode.  The coefficient array is frozen afterwards.
    """

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (n, n):
            raise FieldError(f"coefficient array must have shape ({n}, {n}), got {c.shape}")
        _check_hermitian(self.grid, c)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n), dtype=np.complex128))

    @classmethod
    def _trusted(cls, grid: Grid, coeffs: np.ndarray) -> "ScalarField":
        """
        Field that takes ``coeffs`` as they are, frozen and not copied,
        without the validation of the constructor: for (n, n) spectra the
        caller has already made finite, exactly Hermitian and zero-mean.
        """
        field = object.__new__(cls)
        coeffs.setflags(write=False)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "coeffs", coeffs)
        return field

    @classmethod
    def from_mode(cls, grid: Grid, k: tuple[int, int], coeff: complex) -> "ScalarField":
        """Single-mode field c_k = coeff, c_{-k} = conj(coeff)."""
        c = np.zeros((grid.n, grid.n), dtype=np.complex128)
        i, j = k[0] % grid.n, k[1] % grid.n
        c[i, j] = coeff
        c[(-k[0]) % grid.n, (-k[1]) % grid.n] = np.conj(coeff)
        return cls(grid, c)

    def dealiased(self) -> "ScalarField":
        return ScalarField(self.grid, self.coeffs * self.grid.dealias_mask)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _same_grid(self, other)
        return ScalarField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _same_grid(self, other)
        return ScalarField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, factor: float) -> "ScalarField":
        return ScalarField(self.grid, self.coeffs * float(factor))

    __rmul__ = __mul__


@dataclass(frozen=True)
class VectorField:
    """Two-component field (u1, u2) on a shared grid."""

    u1: ScalarField
    u2: ScalarField

    def __post_init__(self) -> None:
        if self.u1.grid is not self.u2.grid and self.u1.grid != self.u2.grid:
            raise FieldError("vector components must live on the same grid")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(ScalarField.zero(grid), ScalarField.zero(grid))

    @classmethod
    def from_coeffs(cls, grid: Grid, c1: np.ndarray, c2: np.ndarray) -> "VectorField":
        return cls(ScalarField(grid, c1), ScalarField(grid, c2))

    def stacked(self) -> np.ndarray:
        """Coefficients as a (2, n, n) array (copy)."""
        return np.stack([self.u1.coeffs, self.u2.coeffs])

    def max_divergence(self) -> float:
        """Largest |k . c(k)| relative to the largest |k| |c(k)|."""
        g = self.grid
        div = np.abs(g.k1_deriv * self.u1.coeffs + g.k2_deriv * self.u2.coeffs)
        scale = np.max(np.hypot(g.k1_deriv, g.k2_deriv)
                       * np.hypot(np.abs(self.u1.coeffs), np.abs(self.u2.coeffs)))
        if scale == 0:
            return 0.0
        return float(np.max(div) / scale)

    def is_divergence_free(self, tol: float = 1e-12) -> bool:
        return self.max_divergence() <= tol

    def dealiased(self) -> "VectorField":
        return VectorField(self.u1.dealiased(), self.u2.dealiased())

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, factor: float) -> "VectorField":
        return VectorField(self.u1 * factor, self.u2 * factor)

    __rmul__ = __mul__


def _same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid is not grid and f.grid != grid:
            raise FieldError("grid mismatch between operands")
    return grid


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

# Lattices of at most this many points per side take their transforms as
# dense DFT products.  A pocketfft call costs 10-15 us whatever its size,
# which dominates at small n, while the products' work grows as n^3.  On a
# shared 2-core host the kernel's transform pair took 0.54x (n = 16) and
# 0.56x (n = 32) pocketfft's time (BENCH_dense-dft.json, rfft_pair), and
# 0.7-1.05x at n = 64, a gain too small to give up pocketfft's bits there.
_DENSE_DFT_MAX_N = 32


def _dense_dft(n: int) -> bool:
    """Whether the transform helpers take an n x n lattice as dense DFT
    products (else as pocketfft stages)."""
    return n <= _DENSE_DFT_MAX_N


def _unit_roots(n: int) -> np.ndarray:
    """exp(2 pi i j / n), j = 0..n-1: exact at the quarter angles, and the
    entries j and n - j exact conjugates."""
    roots = np.exp(2j * np.pi / n * np.arange(n))
    roots[0] = 1.0
    if n % 2 == 0:
        roots[n // 2] = -1.0
    if n % 4 == 0:
        roots[n // 4], roots[3 * n // 4] = 1j, -1j
    roots[n // 2 + 1:] = np.conj(roots[1:(n + 1) // 2][::-1])
    return roots


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.cache
def _dft_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Axis-0 tables (n, n), read-only: the inverse exp(2 pi i a k / n) and
    the forward exp(-2 pi i k a / n) / n, as ``norm="forward"`` scales."""
    inverse = _unit_roots(n)[np.outer(np.arange(n), np.arange(n)) % n]
    return _read_only(inverse, np.conj(inverse) / n)


@functools.cache
def _dft_columns(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """
    Last-axis tables of the columns k2 = 0..width-1 against the interleaved
    (re, im) view of complex planes, read-only: the inverse (2 width, n)
    holds Re and -Im of irfft's terms c exp(2 pi i k2 b / n), weighted 1 at
    k2 = 0 and (for even n) n/2, whose imaginary parts it ignores as irfft
    does, and 2 elsewhere; the forward (n, 2 width) holds rfft's
    (cos, -sin) / n.
    """
    phase = _unit_roots(n)[np.outer(np.arange(width), np.arange(n)) % n]
    # the columns that are their own mirror image: k2 = 0, and n/2 for even n
    own = [0, n // 2] if n % 2 == 0 and width > n // 2 else [0]
    weights = np.full((width, 1), 2.0)
    weights[own] = 1.0
    inverse = np.stack([weights * phase.real, -weights * phase.imag], axis=1)
    inverse[own, 1] = 0.0
    forward = np.stack([phase.real.T, -phase.imag.T], axis=-1) / n
    return _read_only(inverse.reshape(2 * width, n), forward.reshape(n, 2 * width))


def _half_to_phys(half: np.ndarray, out: np.ndarray | None = None,
                  stage: np.ndarray | None = None) -> np.ndarray:
    """
    Real samples on an n x n lattice from the leading columns k2 = 0..w-1
    of half-plane spectra (last two axes (n, w), w <= n//2 + 1); the
    missing columns are zero.  Given ``out``, the samples are written there.

    Up to n = ``_DENSE_DFT_MAX_N``, two dense products with the tables of
    :func:`_dft_rows` and :func:`_dft_columns`, one plane at a time: the
    complex axis-0 product into ``stage`` (of the shape of ``half``; a new
    array when omitted), then the real product of its (re, im) view.  The
    results are within roundoff of ``irfft2(half, s=(n, n))``, and the
    bits do not depend on how many planes one call takes.

    Above, the stages of ``irfft2(half, s=(n, n))``, with its bits: the
    axis-0 ``ifft`` on the w given columns only, then the last-axis
    ``irfft``, which zero-pads the rest.  Given ``out``, the axis-0 stage
    runs in place in ``half``, which it overwrites.
    """
    n, width = half.shape[-2:]
    if _dense_dft(n):
        stage = np.matmul(_dft_rows(n)[0], half, out=stage)
        return np.matmul(stage.view(np.float64), _dft_columns(n, width)[0], out=out)
    stage = np.fft.ifft(half, axis=-2, norm="forward", out=None if out is None else half)
    return np.fft.irfft(stage, n=n, axis=-1, norm="forward", out=out)


def _phys_to_half(samples: np.ndarray, width: int, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """
    Columns k2 = 0..width-1 of the half-plane spectra of real samples
    (last two axes (n, n)), written to ``out`` when given.  The last-axis
    stage goes to the leading columns of ``scratch`` (..., n, n//2 + 1)
    when given; its columns k2 = 0 and n/2 are exactly real, as rfft's are.

    Up to n = ``_DENSE_DFT_MAX_N``, two dense products, one plane at a
    time: the real product with the forward table of :func:`_dft_columns`
    into the (re, im) view of the stage's columns, then the complex axis-0
    product; within roundoff of ``rfft2(samples)[..., :width]``.  Above,
    the bits of ``rfft2(samples)[..., :width]``, with the axis-0 stage run
    on those columns only (the last-axis ``rfft`` writes the whole half
    plane into ``scratch``).
    """
    n = samples.shape[-1]
    if _dense_dft(n):
        half = (np.empty(samples.shape[:-1] + (width,), dtype=np.complex128) if scratch is None
                else scratch[..., :width])
        np.matmul(samples, _dft_columns(n, width)[1], out=half.view(np.float64))
        return np.matmul(_dft_rows(n)[1], half, out=out)
    half = np.fft.rfft(samples, axis=-1, norm="forward", out=scratch)
    return np.fft.fft(half[..., :width], axis=-2, norm="forward", out=out)


def _full_from_half(grid: Grid, half: np.ndarray, out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Full Hermitian spectrum whose columns k2 = 0..w-1 are ``half``, for any
    width w = 1..n/2 + 1 (a band plane included); columns k2 = w..n/2 are zero.
    Given ``out`` (..., n, n) and the scratch of :func:`_mirror_half`, it is
    written there and nothing is allocated."""
    w = half.shape[-1]
    full = np.empty(half.shape[:-1] + (grid.n,), dtype=np.complex128) if out is None else out
    full[..., :w] = half
    full[..., w:] = 0.0
    return _mirror_half(grid, full, w, half, scratch)


def _mirror_half(grid: Grid, full: np.ndarray, m: int, half: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Fill, in place, the columns k2 = n-m+1..n-1 of spectra ``full[..., n, n]``
    from their columns k2 = 1..m-1 (m <= n/2 + 1) by Hermitian symmetry.
    Given their C-contiguous source ``half`` (..., n, m) and a flat complex
    ``scratch`` of at least 2 * (j - 1) elements per row, j = min(m, n/2),
    it allocates nothing."""
    n = grid.n
    # column n - j holds conj(c[-k1, j]) for j = m - 1 .. 1, below n/2
    j = min(m, n // 2)
    mirrored = full[..., n - j + 1:]
    if scratch is None:
        np.conj(full[..., grid.half_conj_rows, j - 1:0:-1], out=mirrored)
        return full
    # the same values without a temporary: the columns are gathered in
    # reverse order, then the rows, conjugated and written into place.
    # take() reads a C-contiguous source as it is and writes out= directly
    # (mode="clip"), where an elementwise operation on these short strided
    # rows would make numpy buffer them.
    shape = half.shape[:-1] + (j - 1,)
    size = math.prod(shape)
    cols, rows = scratch[:size].reshape(shape), scratch[size:2 * size].reshape(shape)
    np.take(half, np.arange(j - 1, 0, -1), axis=-1, out=cols, mode="clip")
    np.take(cols, grid.half_conj_rows, axis=-2, out=rows, mode="clip")
    np.conj(rows, out=rows)
    mirrored[...] = rows
    return full


@functools.cache
def _own_rows(n: int, width: int) -> np.ndarray:
    """Flat indices of the rows n/2-1..1 of column k2 = 0 in a plane (n, width);
    writeable, as np.take copies a read-only index array at every call."""
    return np.arange(n // 2 - 1, 0, -1) * width


def _mirror_own_column(planes: np.ndarray, scratch: np.ndarray) -> None:
    """Make column k2 = 0 of C-contiguous planes ``planes[..., n, w]`` exactly
    Hermitian, in place: rows n/2+1..n-1 := conj(rows n/2-1..1), rows 0 and
    n/2 := +0, with no array allocated: as in :func:`_mirror_half`, the rows
    are conjugated in a flat complex ``scratch``, n/2 - 1 elements a plane."""
    n, w = planes.shape[-2:]
    flat = planes.reshape(-1, n * w)
    rows = scratch[:len(flat) * (n // 2 - 1)].reshape(len(flat), -1)
    np.take(flat, _own_rows(n, w), axis=1, out=rows, mode="clip")
    np.conj(rows, out=rows)
    planes[..., n // 2 + 1:, 0] = rows.reshape(planes.shape[:-2] + (-1,))
    planes[..., 0:n:n // 2, 0] = 0.0


def _full_spectra(grid: Grid, U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """
    Full spectra (3, n, n) of (u1, u2, omega), rebuilt from half or band
    planes U (2, n, w) and W (n, w) of a finite state in one array: filled,
    mirrored and the mean zeroed.  From planes exactly Hermitian in column
    k2 = 0 (and n/2), as a time loop's and a ``State``'s are, they equal
    the validating ``ScalarField``'s bit for bit, and are copies.
    """
    n, m = grid.n, U.shape[-1]
    full = np.zeros((3, n, n), dtype=np.complex128)
    full[:2, :, :m] = U
    full[2, :, :m] = W
    _mirror_half(grid, full, m)
    # _hermitianized's (c_k + conj(c_-k)) * 0.5, with its bits (signed zeros
    # included), as c_k + c_k: every conj(c_-k) is c_k exactly
    np.add(full, full, out=full)
    np.multiply(full, 0.5, out=full)
    full[..., 0, 0] = 0.0
    return full


def transform_to_physical(field: ScalarField) -> np.ndarray:
    """Evaluate the field on the n x n collocation lattice x_ab = (a, b) L / n."""
    return _half_to_phys(field.coeffs[:, : field.grid.n // 2 + 1])


def transform_to_spectral(samples: np.ndarray, grid: Grid) -> ScalarField:
    """Inverse of :func:`transform_to_physical` for real sample arrays."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.shape != (grid.n, grid.n):
        raise FieldError(f"sample array must have shape ({grid.n}, {grid.n}), got {arr.shape}")
    return ScalarField(grid, _full_from_half(grid, _phys_to_half(arr, grid.n // 2 + 1)))


# ---------------------------------------------------------------------------
# Differential operators and projections
# ---------------------------------------------------------------------------

def _leray_arrays(grid: Grid, c1: np.ndarray, c2: np.ndarray,
                  out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """
    Leray projection (c1 - k1 dot, c2 - k2 dot), dot = (k1 c1 + k2 c2) / |k|^2
    (0 at k = 0), of vector spectra (c1, c2) (..., n, n).  Given ``out``
    (which may be (c1, c2)), the projection is written there; the
    temporaries are two arrays of the shape of c1.
    """
    k1 = grid.k1_deriv
    k2 = grid.k2_deriv
    # |k|^2, with 1 at k = 0
    den = k1 * k1
    den += k2 * k2
    origin = den == 0
    den[origin] = 1.0
    dot = k1 * c1
    tmp = np.multiply(k2, c2)
    np.add(dot, tmp, out=dot)
    np.divide(dot, den, out=dot)
    np.copyto(dot, 0.0, where=origin)
    p1, p2 = (None, None) if out is None else out
    p1 = np.subtract(c1, np.multiply(k1, dot, out=tmp), out=p1)
    p2 = np.subtract(c2, np.multiply(k2, dot, out=tmp), out=p2)
    return p1, p2


def _half_leray(leray: np.ndarray, c: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """
    Leray projection ``out`` of band-plane vector spectra ``c`` = (c1, c2),
    truncated to the dealiased band with the mean mode zeroed: two
    products over the component block and one add per component.
    ``leray`` holds the entries (P11, P12, P22) of ``Grid.half_leray``
    (stacked like c, along a first axis of 3) and ``tmp`` two scratch
    planes of the shape of c, so that every operation is elementwise over
    equal shapes.  out may be c.
    """
    # (P12, P22) c and (P11, P12) c, the second in place (each product
    # reads its own component of c); out = (P11 c1 + P12 c2, P22 c2 + P12 c1)
    np.multiply(leray[1:], c, out=tmp)
    np.multiply(leray[:2], c, out=out)
    np.add(out[0], out[1], out=out[0])
    np.add(tmp[1], tmp[0], out=out[1])


def leray_project(u: VectorField) -> VectorField:
    """Orthogonal projection onto divergence-free fields (pressure removal)."""
    p1, p2 = _leray_arrays(u.grid, u.u1.coeffs, u.u2.coeffs)
    return VectorField.from_coeffs(u.grid, p1, p2)


def apply_A(u: VectorField) -> VectorField:
    """Stokes operator: coefficientwise multiplication by lambda(k)."""
    return VectorField.from_coeffs(u.grid, u.grid.lam * u.u1.coeffs, u.grid.lam * u.u2.coeffs)


def apply_A1(omega: ScalarField) -> ScalarField:
    """Scalar -Laplacian: coefficientwise multiplication by lambda(k)."""
    return ScalarField(omega.grid, omega.grid.lam * omega.coeffs)


def apply_A_inverse(u: VectorField) -> VectorField:
    """Inverse of the Stokes operator on zero-mean fields."""
    g = u.grid
    return VectorField.from_coeffs(g, g.inv_lam * u.u1.coeffs, g.inv_lam * u.u2.coeffs)


def apply_A1_inverse(omega: ScalarField) -> ScalarField:
    """Inverse of the scalar -Laplacian on zero-mean fields."""
    return ScalarField(omega.grid, omega.grid.inv_lam * omega.coeffs)


def rot_vec(u: VectorField) -> ScalarField:
    """Scalar curl: rot u = d(u2)/dx1 - d(u1)/dx2."""
    g = u.grid
    c = g.deriv_factor(0) * u.u2.coeffs - g.deriv_factor(1) * u.u1.coeffs
    return ScalarField(g, c)


def rot_scalar(omega: ScalarField) -> VectorField:
    """Vector curl of a scalar: rot w = (dw/dx2, -dw/dx1)."""
    g = omega.grid
    return VectorField.from_coeffs(
        g, g.deriv_factor(1) * omega.coeffs, -g.deriv_factor(0) * omega.coeffs
    )


def mode_mask(grid: Grid, m: int) -> np.ndarray:
    """
    Boolean mask over grid slots selecting the first ``m`` enumerated modes.

    The selection is closed under k -> -k, so that the projection of a real
    field stays real; the kept set may exceed ``m`` by the partners of
    modes cut mid-pair.
    """
    if not 0 <= m <= grid.num_modes:
        raise ValueError(f"mode count m={m} outside [0, {grid.num_modes}]")
    mask = (grid.mode_rank < m).ravel()
    return (mask | mask[grid.conj_flat]).reshape(grid.n, grid.n)


def galerkin_P(field, m: int):
    """Projection onto the first m modes of the eigenvalue enumeration."""
    return _apply_mask(field, mode_mask(field.grid, m))


def galerkin_Q(field, m: int):
    """Complementary projection onto modes above the first m."""
    return _apply_mask(field, ~mode_mask(field.grid, m))


def _apply_mask(field, mask: np.ndarray):
    if isinstance(field, VectorField):
        return VectorField.from_coeffs(field.grid, field.u1.coeffs * mask, field.u2.coeffs * mask)
    return ScalarField(field.grid, field.coeffs * mask)


# ---------------------------------------------------------------------------
# Norms and inner products
# ---------------------------------------------------------------------------

# Grid table weighting |c_k|^2 in each norm; the L2 norm is unweighted.
_NORM_WEIGHTS = {"L2": None, "H1": "lam", "Hminus1": "inv_lam", "DA": "lam_sq"}


def _power(spectra: np.ndarray) -> np.ndarray:
    """|c|^2 of spectra, as a new float array.  A vector's power is its
    components' summed, the first plus the second."""
    power = np.abs(spectra)
    return np.square(power, out=power)


def _spectra_norm(grid: Grid, spectra, kind: str) -> float:
    """Norm sqrt(|Q| sum_k w_k |c_k|^2), the arithmetic of :func:`norm`, of
    the field whose components have the full spectra ``spectra`` (n, n):
    their |c|^2 summed in order, weighted, then summed over the plane."""
    if kind not in _NORM_WEIGHTS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {sorted(_NORM_WEIGHTS)}")
    power = _power(spectra[0])
    for c in spectra[1:]:
        power += _power(c)
    if _NORM_WEIGHTS[kind] is not None:
        power *= getattr(grid, _NORM_WEIGHTS[kind])
    return float(np.sqrt(grid.area * np.add.reduce(power.reshape(-1))))


def _column_weights(grid: Grid, width: int) -> np.ndarray:
    """How often each column k2 = 0..width-1 of a half plane appears in the
    full Hermitian spectrum: once for k2 = 0 and n/2, their own mirror
    images, twice for the others.  Weighted sums over half or band planes
    are the full spectra's sums."""
    weights = np.full(width, 2.0)
    weights[0:width:grid.n // 2] = 1.0
    return weights


def _real_weights(grid: Grid, width: int) -> np.ndarray:
    """sqrt(|Q| * column weight) per entry of the float view (n, 2 width) of
    half planes: Euclidean products of weighted real views are the product
    L2 inner products of the fields."""
    return np.repeat(np.sqrt(grid.area * _column_weights(grid, width)), 2)


def norm(field, kind: str = "L2") -> float:
    """
    Spectral Sobolev norm of a scalar or vector field.

    ``L2`` is the plain norm |.|, ``H1`` the gradient norm ||.||, ``Hminus1``
    the dual norm, ``DA`` the |A .| graph norm; all carry the Parseval
    factor |Q|.
    """
    vector = isinstance(field, VectorField)
    spectra = (field.u1.coeffs, field.u2.coeffs) if vector else (field.coeffs,)
    return _spectra_norm(field.grid, spectra, kind)


def _half_weights(grid: Grid, width: int, *tables: np.ndarray | None) -> np.ndarray:
    """Weights (K, n, width) of half-plane power: the columns k2 < width of
    each conjugate-closed full-plane table (``grid.lam``, a mode mask; None
    for 1) times their :func:`_column_weights` and |Q|."""
    cw = grid.area * _column_weights(grid, width)
    return np.stack([np.broadcast_to(cw, (grid.n, width)) if table is None
                     else cw * table[:, :width] for table in tables])


def _product_energies(grid: Grid, dU: np.ndarray, dW: np.ndarray,
                      *tables: np.ndarray) -> list[float]:
    """Energies area * sum table |c|^2 of the fields of half or band planes
    (dU, dW), one per full-plane ``table`` (a mode mask or ``grid.lam``),
    the full spectra's sums for planes exactly Hermitian in column k2 = 0,
    as the time loops' are: one BLAS product of the weights (K, n w) with
    the power planes of (u1, u2, omega), whose sums are then added.  (With
    one summed plane, one table would take a dot product, which BLAS
    splits over its threads on long planes: its bits would vary with them.
    One table takes a matrix-vector product, whose bits do not:
    tests/test_blas_threads.py checks it at n = 128.)"""
    power = _power(np.concatenate([dU, dW[None]]))
    weights = _half_weights(grid, power.shape[-1], *tables)
    sums = weights.reshape(len(tables), -1) @ power.reshape(3, -1).T
    return sums.sum(axis=1).tolist()


def inner(f, g) -> float:
    """L2 inner product of two fields of matching type."""
    grid = _same_grid(f, g)
    if isinstance(f, VectorField) != isinstance(g, VectorField):
        raise FieldError("cannot pair a scalar with a vector field")
    if isinstance(f, VectorField):
        s = np.sum(f.u1.coeffs * np.conj(g.u1.coeffs) + f.u2.coeffs * np.conj(g.u2.coeffs))
    else:
        s = np.sum(f.coeffs * np.conj(g.coeffs))
    return float(grid.area * s.real)


# ---------------------------------------------------------------------------
# Trilinear advective forms
# ---------------------------------------------------------------------------

def trilinear_b(u: VectorField, v: VectorField, w: VectorField) -> float:
    """
    Advective form b(u, v, w) = sum_ij int u_i d(v_j)/dx_i w_j dx.

    Inputs are truncated to the dealiased band |k_i| <= kcut, where the
    result equals the direct convolution sum: the cubic integrand then has
    |k_i| <= 3 kcut < n, so its grid mean is its exact integral.
    """
    grid = _same_grid(u, v, w)
    m = grid.kcut + 1
    V = v.stacked()[..., :m]
    u1, u2, d1v1, d1v2, d2v1, d2v2, w1, w2 = _half_to_phys(np.concatenate(
        [u.stacked()[..., :m], grid.half_d1 * V, grid.half_d2 * V, w.stacked()[..., :m]])
        * grid.half_keep)
    q = (u1 * d1v1 + u2 * d2v1) * w1 + (u1 * d1v2 + u2 * d2v2) * w2
    return float(grid.area * np.mean(q))


def trilinear_b1(u: VectorField, omega: ScalarField, psi: ScalarField) -> float:
    """Scalar advective form b1(u, w, p) = sum_i int u_i dw/dx_i p dx, evaluated as b."""
    grid = _same_grid(u, omega, psi)
    m = grid.kcut + 1
    om = omega.coeffs[:, :m]
    u1, u2, d1w, d2w, p = _half_to_phys(np.stack(
        [u.u1.coeffs[:, :m], u.u2.coeffs[:, :m], grid.half_d1 * om, grid.half_d2 * om,
         psi.coeffs[:, :m]]) * grid.half_keep)
    return float(grid.area * np.mean((u1 * d1w + u2 * d2w) * p))


# ---------------------------------------------------------------------------
# Nodal observation machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeSet:
    """
    N = s^2 observation points, one in each square of an s x s covering of Q.

    Default placement is the center of each covering square.  When every
    node lies on a collocation point the sampling fast path reads physical
    samples directly, at the row-major lattice indices ``flat_indices``;
    otherwise the exact trigonometric interpolant is
    evaluated through the per-axis phase tables ``phases`` = (E1, E2),
    E_ja = exp(2 pi i x_j k_a / L) over the full wavenumber axis, built
    once here.
    """

    grid: Grid
    side: int
    points: np.ndarray

    def __post_init__(self) -> None:
        s, L, n = self.side, self.grid.L, self.grid.n
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.shape != (s * s, 2):
            raise ValueError(f"expected {s * s} points of dimension 2, got shape {pts.shape}")
        if np.any(pts < 0) or np.any(pts >= L):
            raise ValueError("nodes must lie inside [0, L) x [0, L)")
        h = L / s
        sq = np.floor(pts / h).astype(np.int64)
        owners = sq[:, 0] * s + sq[:, 1]
        # s^2 nonnegative owners: a repeated one leaves a square empty
        if np.bincount(owners).max() > 1:
            raise ValueError("node set must place exactly one point in each covering square")
        # Sort node storage by owning square so interpolation is a gather.
        perm = np.argsort(owners)
        pts = pts[perm]
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

        frac = pts * n / L
        rounded = np.rint(frac)
        aligned = bool(np.max(np.abs(frac - rounded)) < 1e-9)
        object.__setattr__(self, "aligned", aligned)
        flat = phases = None
        if aligned:
            gi = (rounded.astype(np.int64)) % n
            flat = gi[:, 0] * n + gi[:, 1]
        else:
            k = self.grid.k1[:, 0].astype(np.float64)
            phases = np.exp(2j * np.pi / L * pts.T[:, :, None] * k)
            phases.setflags(write=False)
        object.__setattr__(self, "flat_indices", flat)
        object.__setattr__(self, "phases", phases)

        cells = np.arange(n)
        cell_sq = np.minimum((cells * s) // n, s - 1)
        square_of_cell = cell_sq[:, None] * s + cell_sq[None, :]
        # the two gather tables stay writeable: np.take copies a read-only
        # index array at every call
        object.__setattr__(self, "square_of_cell", square_of_cell)

    @property
    def count(self) -> int:
        return self.side * self.side


def make_node_set(grid: Grid, count: int | None = None, side: int | None = None,
                  points: np.ndarray | None = None) -> NodeSet:
    """
    Build a node set from a square count N = s^2 (or the side s directly).

    Without explicit ``points`` the nodes sit at covering-square centers.
    """
    if side is None:
        if count is None:
            raise ValueError("give either count or side")
        side = int(np.sqrt(count))
        if side * side != count:
            raise ValueError(f"node count must be a perfect square, got {count}")
    side = int(side)
    if side < 1:
        raise ValueError("side must be >= 1")
    if points is None:
        h = grid.L / side
        axis = (np.arange(side) + 0.5) * h
        P1, P2 = np.meshgrid(axis, axis, indexing="ij")
        points = np.stack([P1.ravel(), P2.ravel()], axis=1)
    return NodeSet(grid, side, points)


def _sample_scalar(half: np.ndarray, nodes: NodeSet, out: np.ndarray | None = None,
                   phys: np.ndarray | None = None,
                   contraction: tuple[np.ndarray, ...] | None = None,
                   stage: np.ndarray | None = None) -> np.ndarray:
    """
    Values at the nodes of half-plane spectra ``half[..., n, w]`` (any
    width w <= n//2 + 1, missing columns zero), shape (..., N).  Given
    ``out``, the values are written there; given ``phys`` (..., n, n) as
    well, aligned nodes take no other array: the samples go to ``phys``,
    and the inverse transform's axis-0 stage runs in place in ``half``,
    which it overwrites, or, on lattices that take dense DFT products,
    goes to ``stage`` (of the shape of ``half``), which is then needed
    too.  Other nodes take none given ``contraction``: the
    buffers of their contraction (full spectra (..., n, n), the mirror
    scratch of :func:`_full_from_half`, phase products (..., n, N), sums
    (..., N)) and E1.T as a C-contiguous (n, N) copy, with which numpy
    need not buffer the products.
    """
    if nodes.aligned:
        samples = _half_to_phys(half, out=phys, stage=stage)
        flat = samples.reshape(samples.shape[:-2] + (-1,))
        # mode="clip": out= is written directly, not through a checked copy
        return np.take(flat, nodes.flat_indices, axis=-1, out=out, mode="clip")
    # sum_ab c_ab E1_ja E2_jb, contracted over the full spectrum (the
    # Nyquist lines sit off the grid here)
    E1, E2 = nodes.phases
    full, mirror, product, e1, sums = contraction or (None, None, None, E1.T, None)
    product = np.matmul(_full_from_half(nodes.grid, half, full, mirror), E2.T, out=product)
    np.multiply(product, e1, out=product)
    values = np.sum(product, axis=-2, out=sums).real
    if out is None:
        return values
    np.copyto(out, values)
    return out


def nodal_sample(field, nodes: NodeSet) -> np.ndarray:
    """
    Field values at the nodes via the exact trigonometric interpolant.

    Returns shape (N,) for scalars and (N, 2) for vector fields.
    """
    m = nodes.grid.n // 2 + 1
    if isinstance(field, VectorField):
        return _sample_scalar(field.stacked()[..., :m], nodes).T
    return _sample_scalar(field.coeffs[:, :m], nodes)


def nodal_values_max(field, nodes: NodeSet) -> float:
    """max_j |w(x^j)| with the Euclidean magnitude for vector fields."""
    vals = nodal_sample(field, nodes)
    if vals.ndim == 2:
        return float(np.max(np.hypot(vals[:, 0], vals[:, 1])))
    return float(np.max(np.abs(vals)))


def _interpolant_scalar(values: np.ndarray, nodes: NodeSet, width: int | None = None,
                        out: np.ndarray | None = None, phys: np.ndarray | None = None,
                        scratch: np.ndarray | None = None) -> np.ndarray:
    """
    Columns k2 = 0..width-1 (default: the whole half plane, n//2 + 1) of
    the half-plane spectra of the mean-free piecewise-constant
    interpolants of ``values[..., N]``, shape (..., n, width).  The axis-0
    stage transforms each column on its own, so a narrower width keeps
    the bits of those columns.  Given ``out``, ``phys`` (..., n, n) and
    ``scratch`` (..., n, n//2 + 1), it writes into them and takes no other
    array but the planes' means.
    """
    # take() returns a C-ordered gather, whose per-plane means are summed
    # in the same (pairwise) order as the mean of a single plane
    phys = np.take(values, nodes.square_of_cell, axis=-1, out=phys, mode="clip")
    # plane by plane: a broadcast mean would make numpy buffer small planes
    means = phys.mean(axis=(-2, -1))
    for plane, mean in zip(phys.reshape((-1,) + phys.shape[-2:]), means.reshape(-1)):
        np.subtract(plane, mean, out=plane)
    width = nodes.grid.n // 2 + 1 if width is None else width
    return _phys_to_half(phys, width, out=out, scratch=scratch)


def nodal_interpolant(values: np.ndarray, nodes: NodeSet, grid: Grid):
    """
    Piecewise-constant field equal to values[j] on covering square Q_j,
    with its mean removed.  values of shape (N,) yield a ScalarField,
    (N, 2) a VectorField.
    """
    if grid != nodes.grid:
        raise FieldError("node set belongs to a different grid")
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape[0] != nodes.count:
        raise ValueError(f"expected {nodes.count} values, got {vals.shape[0]}")
    if vals.ndim == 2:
        c1, c2 = _full_from_half(grid, _interpolant_scalar(vals.T, nodes))
        return VectorField.from_coeffs(grid, c1, c2)
    return ScalarField(grid, _full_from_half(grid, _interpolant_scalar(vals, nodes)))
