"""
Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's pseudo-spectral
evaluation path: transforms are direct O(n^4) Fourier sums, trilinear
forms are direct convolution sums over wavevector triples, and
integrals of band-limited products use plain grid-mean quadrature
(exact because the integrands stay below the lattice Nyquist band).
The advective-form reference for the rotational-form kernel runs on
complex full-plane FFTs, which the library no longer uses.  The
re-orthonormalization reference is modified Gram-Schmidt over full
spectra, the library's loop before it took one QR of band planes.
"""

from __future__ import annotations

import math

import numpy as np

from micropolar.dynamics import NumericsError, random_state
from micropolar.spectral import Grid, ScalarField, VectorField


def dft_physical(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Direct Fourier synthesis f(x_ab) = sum_k c_k exp(2 pi i k.x / L)."""
    n, L = grid.n, grid.L
    x = np.arange(n) * L / n
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    E = np.exp(2j * np.pi / L * np.outer(x, k))
    return E @ coeffs @ E.T


def dft_spectral(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Direct Fourier analysis, inverse of :func:`dft_physical`."""
    n, L = grid.n, grid.L
    x = np.arange(n) * L / n
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    E = np.exp(-2j * np.pi / L * np.outer(k, x))
    return (E @ samples @ E.T) / (n * n)


def phase_sum_sample(grid: Grid, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Direct sum_k c_k exp(2 pi i k.x / L) of full spectra ``coeffs[..., n, n]``
    at arbitrary ``points[N, 2]``, through one N x n^2 phase table."""
    k1 = grid.k1.ravel().astype(np.float64)
    k2 = grid.k2.ravel().astype(np.float64)
    phase = np.exp(2j * np.pi / grid.L * (np.outer(points[:, 0], k1) + np.outer(points[:, 1], k2)))
    return (coeffs.reshape(coeffs.shape[:-2] + (-1,)) @ phase.T).real


def to_phys_array(coeffs: np.ndarray) -> np.ndarray:
    """Complex samples of full spectra (last two axes (n, n)) by ifft2."""
    n = coeffs.shape[-1]
    return np.fft.ifft2(coeffs, axes=(-2, -1)) * (n * n)


def advect_scalar_arrays(grid: Grid, u_phys: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Dealiased spectrum of (u . grad) f for one scalar spectrum c."""
    d1 = to_phys_array(grid.deriv_factor(0) * c).real
    d2 = to_phys_array(grid.deriv_factor(1) * c).real
    q = u_phys[0] * d1 + u_phys[1] * d2
    n = q.shape[-1]
    out = np.fft.fft2(q, axes=(-2, -1)) / (n * n)
    out *= grid.dealias_mask
    out[0, 0] = 0.0
    return out


def quadrature_inner(grid: Grid, p: np.ndarray, q: np.ndarray) -> float:
    """Grid-mean quadrature of int p q dx for real sample arrays."""
    return float(grid.area * np.mean(p * q))


def trilinear_b_direct(u: VectorField, v: VectorField, w: VectorField) -> float:
    """O(n^4) convolution sum for b(u, v, w)."""
    g = u.grid
    n, L = g.n, g.L
    K1, K2 = np.asarray(g.k1), np.asarray(g.k2)
    u1, u2 = u.u1.coeffs, u.u2.coeffs
    v1, v2 = v.u1.coeffs, v.u2.coeffs
    w1, w2 = w.u1.coeffs, w.u2.coeffs
    total = 0.0 + 0.0j
    for a in range(n):
        for b in range(n):
            if u1[a, b] == 0 and u2[a, b] == 0:
                continue
            m1 = -K1[a, b] - K1
            m2 = -K2[a, b] - K2
            valid = (np.abs(m1) <= n // 2) & (np.abs(m2) <= n // 2)
            w1m = np.where(valid, w1[m1 % n, m2 % n], 0)
            w2m = np.where(valid, w2[m1 % n, m2 % n], 0)
            lfac = (2j * np.pi / L) * (u1[a, b] * K1 + u2[a, b] * K2)
            total += np.sum(lfac * (v1 * w1m + v2 * w2m))
    assert abs(total.imag) <= 1e-10 * max(abs(total), 1e-30)
    return float(g.area * total.real)


def trilinear_b1_direct(u: VectorField, omega: ScalarField, psi: ScalarField) -> float:
    """O(n^4) convolution sum for b1(u, omega, psi)."""
    g = u.grid
    n, L = g.n, g.L
    K1, K2 = np.asarray(g.k1), np.asarray(g.k2)
    u1, u2 = u.u1.coeffs, u.u2.coeffs
    om = omega.coeffs
    ps = psi.coeffs
    total = 0.0 + 0.0j
    for a in range(n):
        for b in range(n):
            if u1[a, b] == 0 and u2[a, b] == 0:
                continue
            m1 = -K1[a, b] - K1
            m2 = -K2[a, b] - K2
            valid = (np.abs(m1) <= n // 2) & (np.abs(m2) <= n // 2)
            psm = np.where(valid, ps[m1 % n, m2 % n], 0)
            lfac = (2j * np.pi / L) * (u1[a, b] * K1 + u2[a, b] * K2)
            total += np.sum(lfac * om * psm)
    assert abs(total.imag) <= 1e-10 * max(abs(total), 1e-30)
    return float(g.area * total.real)


def laplacian_eigenvalues_bruteforce(n: int, L: float) -> list[float]:
    """Enumerate (2 pi / L)^2 |k|^2 over the n x n FFT index set minus zero."""
    ks = [(k1, k2)
          for k1 in range(-n // 2, n // 2)
          for k2 in range(-n // 2, n // 2)
          if (k1, k2) != (0, 0)]
    return sorted((2.0 * np.pi / L) ** 2 * (k1**2 + k2**2) for k1, k2 in ks)


def random_fields(grid: Grid, seed: int, scale: float = 1.0):
    """Seeded dealiased random (divergence-free u, omega) pair."""
    s = random_state(grid, seed, scale, scale)
    return s.u.dealiased(), s.omega.dealiased()


def pair_inner(grid: Grid, V1, Z1, V2, Z2) -> float:
    """Product L2 inner product of two pairs of full spectra."""
    s = np.sum(V1[0] * np.conj(V2[0]) + V1[1] * np.conj(V2[1]) + Z1 * np.conj(Z2))
    return float(grid.area * s.real)


def mgs(grid: Grid, V: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """In-place modified Gram-Schmidt of pairs of full spectra V (N, 2, n, n)
    and Z (N, n, n) in the product inner product; returns the growth
    factors (diagonal of R)."""
    if not (np.isfinite(V.view(np.float64)).all() and np.isfinite(Z.view(np.float64)).all()):
        raise NumericsError("non-finite tangent pairs at re-orthonormalization")
    N = V.shape[0]
    norms = np.empty(N)
    for j in range(N):
        before = math.sqrt(pair_inner(grid, V[j], Z[j], V[j], Z[j]))
        for i in range(j):
            proj = pair_inner(grid, V[j], Z[j], V[i], Z[i])
            V[j] -= proj * V[i]
            Z[j] -= proj * Z[i]
        nrm = math.sqrt(pair_inner(grid, V[j], Z[j], V[j], Z[j]))
        if nrm <= 1e-14 * before or nrm == 0.0:
            raise RuntimeError(
                f"rank loss during re-orthonormalization (vector {j}: "
                f"residual {nrm:.3e} of {before:.3e})"
            )
        V[j] /= nrm
        Z[j] /= nrm
        norms[j] = nrm
    return norms
