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
    (k1, k2) order.  ``mode_rank[i, j]`` gives the position of grid slot
    (i, j) in that enumeration (the zero mode gets a sentinel rank equal
    to the table length).  ``lam``, ``inv_lam`` and ``lam_sq`` are the
    H1, H^-1 and D(A) norm weights per grid slot.

    ``dealias_mask`` keeps |k1|, |k2| <= ``kcut`` = (n - 1) // 3, the
    largest cutoff for which quadratic products alias only outside the
    band.  The ``half_*`` tables serve the band plane (n, kcut + 1), the
    columns k2 = 0..kcut of the real-transform half plane (n, n//2 + 1)
    that the time stepper carries: derivative factors (shaped (n, 1) and
    (1, kcut + 1) to broadcast), the Leray entries (P11, P12, P22) with the
    dealias mask folded in, the mask itself without the mean mode, and the
    row map k1 -> -k1 that rebuilds the full Hermitian spectrum.
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
        K1, K2 = np.meshgrid(kax, kax, indexing="ij")
        ksq = K1 * K1 + K2 * K2
        factor = (2.0 * np.pi / self.L) ** 2
        lam = factor * ksq.astype(np.float64)

        # 2/3 rule: products of two fields with |k_i| <= kcut alias onto
        # wavenumbers k -/+ n, which stay outside the band iff 3 kcut < n.
        kcut = (n - 1) // 3
        dealias = (np.abs(K1) <= kcut) & (np.abs(K2) <= kcut)

        # Enumerate all nonzero modes sorted by (|k|^2, k1, k2).
        flat = np.arange(n * n)
        nonzero = flat[ksq.ravel() > 0]
        order = np.lexsort((K2.ravel()[nonzero], K1.ravel()[nonzero], ksq.ravel()[nonzero]))
        table_flat = nonzero[order]
        rank = np.full(n * n, len(table_flat), dtype=np.int64)
        rank[table_flat] = np.arange(len(table_flat))

        # Flat index of the conjugate slot -k of each slot k.
        idx = np.arange(n)
        conj_axis = (-idx) % n
        conj_flat = (conj_axis[:, None] * n + conj_axis[None, :]).ravel()

        inv_lam = np.zeros_like(lam)
        inv_lam[ksq > 0] = 1.0 / lam[ksq > 0]

        # Nyquist lines carry self-conjugate modes for which odd derivatives
        # of real fields are not representable; zero them in the derivative
        # wavenumbers (they are already outside the dealiased band).
        kd = kax.astype(np.float64)
        kd[n // 2] = 0.0
        K1d, K2d = np.meshgrid(kd, kd, indexing="ij")

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
            ("lam", lam),
            ("inv_lam", inv_lam),
            ("lam_sq", lam * lam),
            ("dealias_mask", dealias),
            ("eigenvalues", lam.ravel()[table_flat]),
            ("table_wavevectors", np.stack([K1.ravel()[table_flat], K2.ravel()[table_flat]], axis=1)),
            ("table_flat", table_flat),
            ("mode_rank", rank.reshape(n, n)),
            ("conj_flat", conj_flat),
            ("half_keep", keep.astype(np.complex128)),
            ("half_d1", deriv * kd[:, None]),
            ("half_d2", deriv * kd[None, :m]),
            ("half_leray", leray_h.astype(np.complex128)),
            ("half_conj_rows", conj_axis),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "kcut", kcut)

    @property
    def lambda1(self) -> float:
        """Smallest Laplacian eigenvalue (2*pi/L)^2."""
        return float(self.eigenvalues[0])

    @property
    def area(self) -> float:
        """Domain measure |Q| = L^2."""
        return self.L * self.L

    @property
    def num_modes(self) -> int:
        """Number of enumerated nonzero modes (n^2 - 1)."""
        return len(self.eigenvalues)

    def deriv_factor(self, axis: int) -> np.ndarray:
        """Spectral derivative multiplier i*(2*pi/L)*k_axis (Nyquist lines zeroed)."""
        k = self.k1_deriv if axis == 0 else self.k2_deriv
        return 1j * (2.0 * np.pi / self.L) * k


def make_grid(n: int, L: float) -> Grid:
    """Build a grid, rejecting odd or undersized n and nonpositive or infinite L."""
    return Grid(int(n), float(L))


def _hermitianized(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Exact Hermitian part (c_k + conj(c_-k)) / 2 of spectra ``coeffs[..., n, n]``."""
    flat = coeffs.reshape(coeffs.shape[:-2] + (-1,))
    # take() returns a C-ordered gather (the fancy-index gather of a batch is
    # not), and working in place on it spares a batch two large temporaries;
    # both run several times faster, with the same bits
    sym = np.take(flat, grid.conj_flat, axis=-1)
    np.conj(sym, out=sym)
    sym += flat
    sym *= 0.5
    return sym.reshape(coeffs.shape)


def _check_hermitian(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Validate finiteness and Hermitian symmetry; return the symmetrized copy."""
    scale = np.max(np.abs(coeffs))
    if not np.isfinite(scale):
        raise FieldError("coefficients are not finite")
    sym = _hermitianized(grid, coeffs)
    dev = np.max(np.abs(coeffs - sym))
    if dev > HERMITIAN_RTOL * scale:
        raise FieldError(
            f"coefficients are not Hermitian-symmetric (deviation {dev:.3e}, scale {scale:.3e})"
        )
    return sym


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
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (n, n):
            raise FieldError(f"coefficient array must have shape ({n}, {n}), got {c.shape}")
        c = _check_hermitian(self.grid, c)
        c[0, 0] = 0.0
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

def _half_to_phys(half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """
    Real samples on an n x n lattice from the leading columns k2 = 0..w-1
    of half-plane spectra (last two axes (n, w), w <= n//2 + 1); the
    missing columns are zero.  The stages of ``irfft2(half, s=(n, n))``,
    with its bits: the axis-0 ``ifft`` on the w given columns only, then
    the last-axis ``irfft``, which zero-pads the rest.  Given ``out``, the
    samples are written there and the axis-0 stage runs in place in
    ``half``, which it overwrites.
    """
    n = half.shape[-2]
    stage = np.fft.ifft(half, axis=-2, norm="forward", out=None if out is None else half)
    return np.fft.irfft(stage, n=n, axis=-1, norm="forward", out=out)


def _phys_to_half(samples: np.ndarray, width: int, out: np.ndarray | None = None,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Columns k2 = 0..width-1 of the half-plane spectra of real samples
    (last two axes (n, n)): the bits of ``rfft2(samples)[..., :width]``,
    with the axis-0 stage run on those columns only.  The last-axis stage
    writes the whole half plane into ``scratch`` and the result goes to
    ``out``, when they are given."""
    half = np.fft.rfft(samples, axis=-1, norm="forward", out=scratch)
    return np.fft.fft(half[..., :width], axis=-2, norm="forward", out=out)


def _full_from_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Full Hermitian spectrum whose columns k2 = 0..w-1 are ``half``, for any
    width w = 1..n/2 + 1 (a band plane included); columns k2 = w..n/2 are zero."""
    full = np.zeros(half.shape[:-1] + (grid.n,), dtype=np.complex128)
    full[..., : half.shape[-1]] = half
    return _mirror_half(grid, full, half.shape[-1])


def _mirror_half(grid: Grid, full: np.ndarray, m: int) -> np.ndarray:
    """Fill, in place, the columns k2 = n-m+1..n-1 of spectra ``full[..., n, n]``
    from their columns k2 = 1..m-1 (m <= n/2 + 1) by Hermitian symmetry."""
    n = grid.n
    # column n - j holds conj(c[-k1, j]) for j = m - 1 .. 1, below n/2
    j = min(m, n // 2)
    np.conj(full[..., grid.half_conj_rows, j - 1:0:-1], out=full[..., n - j + 1:])
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

def _leray_arrays(grid: Grid, c1: np.ndarray, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k1 = grid.k1_deriv
    k2 = grid.k2_deriv
    ksq = k1 * k1 + k2 * k2
    with np.errstate(invalid="ignore", divide="ignore"):
        dot = np.where(ksq > 0, (k1 * c1 + k2 * c2) / np.where(ksq > 0, ksq, 1.0), 0.0)
    return c1 - k1 * dot, c2 - k2 * dot


def _half_leray(leray, c1: np.ndarray, c2: np.ndarray, out1: np.ndarray, out2: np.ndarray,
                tmp) -> None:
    """
    Leray projection (out1, out2) of band-plane vector spectra (c1, c2),
    truncated to the dealiased band with the mean mode zeroed.  ``leray``
    holds the entries (P11, P12, P22) of ``Grid.half_leray`` and ``tmp``
    three scratch planes, all of the shape of c1, so that every product is
    elementwise over equal shapes.  out1 and out2 may be c1 and c2.
    """
    p11, p12, p22 = leray
    t0, t1, t2 = tmp[:3]
    # c1 is spent before out1 is written, and out2 takes p22 c2 elementwise
    np.multiply(p11, c1, out=t0)
    np.multiply(p12, c1, out=t1)
    np.multiply(p12, c2, out=t2)
    np.add(t0, t2, out=out1)
    np.multiply(p22, c2, out=out2)
    np.add(t1, out2, out=out2)


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


def _norm_weight(grid: Grid, kind: str) -> np.ndarray | None:
    try:
        table = _NORM_WEIGHTS[kind]
    except KeyError:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {sorted(_NORM_WEIGHTS)}") from None
    return None if table is None else getattr(grid, table)


def _power(spectra: np.ndarray) -> np.ndarray:
    """|c|^2 of spectra, as a new float array.  A vector's power is its
    components' summed, the first plus the second."""
    power = np.abs(spectra)
    return np.square(power, out=power)


def _norms(grid: Grid, power: np.ndarray, kind: str) -> np.ndarray:
    """
    Norms sqrt(|Q| sum_k w_k p_k) of a batch of powers ``power[..., n, n]``
    (from :func:`_power`), one per leading index: each plane is summed
    alone, in the order of ``np.sum`` over that plane.
    """
    w = _norm_weight(grid, kind)
    weighted = power if w is None else w * power
    sums = np.add.reduce(weighted.reshape(weighted.shape[:-2] + (-1,)), axis=-1)
    return np.sqrt(grid.area * sums)


def _column_weights(grid: Grid, width: int) -> np.ndarray:
    """How often each column k2 = 0..width-1 of a half plane appears in the
    full Hermitian spectrum: once for k2 = 0 and n/2, their own mirror
    images, twice for the others.  Weighted sums over half or band planes
    are the full spectra's sums."""
    weights = np.full(width, 2.0)
    weights[0] = 1.0
    if width > grid.n // 2:
        weights[grid.n // 2] = 1.0
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
    if isinstance(field, VectorField):
        power = _power(field.u1.coeffs) + _power(field.u2.coeffs)
    else:
        power = _power(field.coeffs)
    return float(_norms(field.grid, power, kind))


def _product_energies(grid: Grid, dU: np.ndarray, dW: np.ndarray,
                      *weights: np.ndarray) -> list[float]:
    """Energies area * sum weight |c|^2 over the full spectra of half planes
    (dU, dW), one per ``weight``, a full-plane table (a mode mask or
    ``grid.lam``); the spectra and |c|^2 are formed once for all."""
    full = _full_from_half(grid, np.concatenate([dU, dW[None]]))
    density = np.abs(full[0]) ** 2 + np.abs(full[1]) ** 2 + np.abs(full[2]) ** 2
    return [float(grid.area * np.sum(density * weight)) for weight in weights]


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
                   phys: np.ndarray | None = None) -> np.ndarray:
    """
    Values at the nodes of half-plane spectra ``half[..., n, w]`` (any
    width w <= n//2 + 1, missing columns zero), shape (..., N).  Given
    ``out``, the values are written there; given ``phys`` (..., n, n) as
    well, aligned nodes take no other array: the samples go to ``phys``,
    and the inverse transform's axis-0 stage runs in place in ``half``,
    which it overwrites.
    """
    if nodes.aligned:
        samples = _half_to_phys(half, out=phys)
        flat = samples.reshape(samples.shape[:-2] + (-1,))
        # mode="clip": out= is written directly, not through a checked copy
        return np.take(flat, nodes.flat_indices, axis=-1, out=out, mode="clip")
    # sum_ab c_ab E1_ja E2_jb, contracted over the full spectrum (the
    # Nyquist lines sit off the grid here)
    E1, E2 = nodes.phases
    values = ((_full_from_half(nodes.grid, half) @ E2.T) * E1.T).sum(axis=-2).real
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
