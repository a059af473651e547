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
spectra, the library's loop before it took one QR of band planes.  The
IMEX step reference takes the library's kernel and CN/AB2 update one
band plane of one member at a time, in the library's operation order,
before each stage ran as one numpy call over its component block.  The
dense DFT references take the transform helpers' two products one plane
at a time.
"""

from __future__ import annotations

import math

import numpy as np

from micropolar.dynamics import NumericsError, random_state
from micropolar.spectral import (Grid, ScalarField, VectorField, _dft_columns, _dft_rows,
                                 _half_to_phys, _phys_to_half, norm)


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


def per_plane_half_to_phys(half: np.ndarray) -> np.ndarray:
    """The dense inverse transform of ``spectral._half_to_phys`` (n <= 32),
    one (n, w) plane at a time: the axis-0 product with the inverse row
    table, then its (re, im) view times the inverse column table."""
    n, w = half.shape[-2:]
    rows, columns = _dft_rows(n)[0], _dft_columns(n, w)[0]
    planes = [(rows @ plane).view(np.float64) @ columns for plane in half.reshape(-1, n, w)]
    return np.stack(planes).reshape(half.shape[:-1] + (n,))


def per_plane_phys_to_half(samples: np.ndarray, width: int) -> np.ndarray:
    """The dense forward transform of ``spectral._phys_to_half`` (n <= 32),
    one (n, n) plane at a time: the plane times the forward column table,
    viewed complex, then the axis-0 product with the forward row table."""
    n = samples.shape[-1]
    columns, rows = _dft_columns(n, width)[1], _dft_rows(n)[1]
    planes = [rows @ (plane @ columns).view(np.complex128) for plane in samples.reshape(-1, n, n)]
    return np.stack(planes).reshape(samples.shape[:-1] + (width,))


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


def nodes_bound_raw(cst, F_tilde: float) -> float:
    """The nodes bound's sufficiency threshold as the sum of its three
    terms in float arithmetic (it overflows where the library's log-space
    form does not)."""
    grow = math.exp(cst.chat2 + cst.chat3 * F_tilde**4)
    t1 = 8.0 * cst.nu_r**2 / cst.alpha - 2.0 * cst.nu_r
    pre = cst.c1**2 * math.sqrt(cst.c) / (cst.lambda1 * cst.nu) + cst.c1 / cst.alpha
    t2 = pre * ((5.0 * cst.alpha * cst.k2 + 32.0 * cst.nu_r**2) / (cst.alpha * cst.k1**2 * cst.k2) * F_tilde**2
                + 16.0 * cst.C * cst.chat1 / (cst.alpha * cst.nu * cst.k1**2 * cst.k2**3) * F_tilde**6 * grow)
    t3 = 16.0 * cst.c1**4 * cst.chat1 / (cst.lambda1 * cst.alpha * cst.nu * cst.k1 * cst.k2) \
        * F_tilde**4 * grow
    return cst.c / (cst.lambda1 * cst.k1) * (t1 + t2 + t3)


def random_state_by_fields(grid: Grid, seed: int, energy_u: float = 0.1,
                           energy_omega: float = 0.05, kmax: float = 4) -> tuple:
    """The (u1, u2, omega) spectra of ``dynamics.random_state`` as the
    library built them through the validating field constructors: the
    draws stacked and masked, their Hermitian part, the Leray formula on
    whole arrays, then each field symmetrized by its constructor and again
    by its rescale."""
    n = grid.n
    rng = np.random.default_rng(seed)
    band = (grid.lam > 0) & (np.sqrt(grid.k1**2 + grid.k2**2) <= kmax)
    raw = np.stack([rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(3)]) * band
    flat = raw.reshape(3, -1)
    s1, s2, w = ((flat + np.conj(flat[:, grid.conj_flat])) * 0.5).reshape(3, n, n)
    k1, k2 = grid.k1_deriv, grid.k2_deriv
    ksq = k1 * k1 + k2 * k2
    with np.errstate(invalid="ignore", divide="ignore"):
        dot = np.where(ksq > 0, (k1 * s1 + k2 * s2) / np.where(ksq > 0, ksq, 1.0), 0.0)
    u = VectorField.from_coeffs(grid, s1 - k1 * dot, s2 - k2 * dot)
    omega = ScalarField(grid, w)
    nu2, nw2 = norm(u) ** 2, norm(omega) ** 2
    if energy_u > 0 and nu2 > 0:
        u = u * float(np.sqrt(energy_u / nu2))
    elif energy_u == 0:
        u = VectorField.zero(grid)
    if energy_omega > 0 and nw2 > 0:
        omega = omega * float(np.sqrt(energy_omega / nw2))
    elif energy_omega == 0:
        omega = ScalarField.zero(grid)
    return u.u1.coeffs, u.u2.coeffs, omega.coeffs


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


def per_plane_terms(grid: Grid, params, U, W, f_hat, g_hat, extra=None, t: float = 0.0,
                    V=None, Z=None):
    """
    The raw explicit terms of ``dynamics._explicit_terms`` (EU, EW,
    max_speed, then EV, EZ given pairs), one band plane of one member at a
    time: the same operations on the same operands in the same order, so
    the same bits, with a temporary per operation.  Like the kernel, it
    transforms (omega u2, omega u1, u.grad w) and takes the signs of the
    last two in the spectral combination.
    """
    m = grid.kcut + 1
    keep, d1, d2 = grid.half_keep, grid.half_d1, grid.half_d2
    two_nur = 2.0 * params.nu_r
    members = [(U[0], U[1], W)]
    if V is not None:
        members += [(V[j, 0], V[j, 1], Z[j]) for j in range(len(V))]
    band = [[x[..., :m] * keep for x in member] for member in members]

    phys = []
    for c1, c2, w in band:
        spec = np.stack([c1, c2, d1 * c2 - d2 * c1, d1 * w, d2 * w])
        phys.append(_half_to_phys(spec))
    u1, u2, rot_u, w1, w2 = phys[0]
    products = [(rot_u * u2, rot_u * u1, u1 * w1 + u2 * w2)]
    for v1, v2, rot_v, z1, z2 in phys[1:]:
        products.append((rot_v * u2 + rot_u * v2,
                         rot_v * u1 + rot_u * v1,
                         u1 * z1 + u2 * z2 + v1 * w1 + v2 * w2))
    max_speed = math.sqrt(float((u1 * u1 + u2 * u2).max()))

    terms = []
    for j, ((c1, c2, w), planes) in enumerate(zip(band, products)):
        E0, E1, E2 = _phys_to_half(np.stack(planes), m)
        if two_nur != 0.0:
            E0 = E0 + two_nur * (d2 * w)
            E1 = -two_nur * (d1 * w) - E1
            E2 = two_nur * (d1 * c2 - d2 * c1) - E2
        else:
            E1, E2 = -E1, -E2
        if j == 0:
            E0, E1, E2 = E0 + f_hat[0][..., :m], E1 + f_hat[1][..., :m], E2 + g_hat[..., :m]
            if extra is not None:
                dU, dW = extra(t, U, W)
                E0, E1, E2 = E0 + dU[0][..., :m], E1 + dU[1][..., :m], E2 + dW[..., :m]
        terms.append((E0, E1, E2))
    EU, EW = np.stack(terms[0][:2]), terms[0][2]
    if V is None:
        return EU, EW, max_speed
    EV = np.stack([np.stack(term[:2]) for term in terms[1:]])
    EZ = np.stack([term[2] for term in terms[1:]])
    return EU, EW, max_speed, EV, EZ


def per_plane_leray(grid: Grid, c1, c2):
    """Leray projection of band planes (c1, c2) by the entries of
    ``Grid.half_leray``, in the library's operation order."""
    p11, p12, p22 = grid.half_leray
    return p11 * c1 + p12 * c2, p12 * c1 + p22 * c2


def mirror_own_column(plane: np.ndarray) -> None:
    """Column k2 = 0 of one band plane (n, w) made exactly Hermitian in
    place, as ``spectral._mirror_own_column`` makes it: rows n/2+1..n-1
    the conjugates of rows n/2-1..1, rows 0 and n/2 +0."""
    n = plane.shape[0]
    plane[n // 2 + 1:, 0] = np.conj(plane[n // 2 - 1:0:-1, 0])
    plane[0, 0] = plane[n // 2, 0] = 0.0


class PerPlaneStepper:
    """
    ``dynamics._Stepper`` (without its CFL and finiteness checks) on
    :func:`per_plane_terms`: the CN/AB2 update (forward Euler on a first
    step, or on the first step with a new number of pairs) one band plane
    at a time, each plane's column k2 = 0 then mirrored.  ``advance``
    returns band-plane copies.
    """

    def __init__(self, grid: Grid, params, forcing, dt: float, extra=None):
        self.grid, self.params, self.forcing, self.dt, self.extra = grid, params, forcing, dt, extra
        m = grid.kcut + 1
        lam = grid.lam[:, :m]
        rv = 0.5 * dt * (params.nu + params.nu_r) * lam
        rw = 0.5 * dt * (params.alpha * lam + 4.0 * params.nu_r)
        self.num_u = ((1.0 - rv) / (1.0 + rv)).astype(np.complex128)
        self.dt_den_u = (dt * (1.0 / (1.0 + rv))).astype(np.complex128)
        self.num_w = ((1.0 - rw) / (1.0 + rw)).astype(np.complex128)
        self.dt_den_w = (dt * (1.0 / (1.0 + rw))).astype(np.complex128)
        self.prev = None  # the last step's terms, one (3, n, kcut + 1) stack per member

    def advance(self, U, W, t: float, V=None, Z=None):
        grid, m = self.grid, self.grid.kcut + 1
        terms = per_plane_terms(grid, self.params, U, W, self.forcing.f_hat(t),
                                self.forcing.g_hat(t), self.extra, t, V, Z)
        members = [(U[0], U[1], W)]
        E = [np.stack([terms[0][0], terms[0][1], terms[1]])]
        if V is not None:
            members += [(V[j, 0], V[j, 1], Z[j]) for j in range(len(V))]
            E += [np.stack([terms[3][j, 0], terms[3][j, 1], terms[4][j]]) for j in range(len(V))]
        prev = self.prev if self.prev is not None and len(self.prev) == len(E) else None
        self.prev = E
        stepped = []
        for j, (c1, c2, w) in enumerate(members):
            e = E[j] if prev is None else 1.5 * E[j] - 0.5 * prev[j]
            c1 = self.num_u * c1[..., :m] + self.dt_den_u * e[0]
            c2 = self.num_u * c2[..., :m] + self.dt_den_u * e[1]
            w = self.num_w * w[..., :m] + self.dt_den_w * e[2]
            stepped.append((*per_plane_leray(grid, c1, c2), w * grid.half_keep))
            for plane in stepped[-1]:
                mirror_own_column(plane)
        out = [np.stack(stepped[0][:2]), stepped[0][2]]
        if V is not None:
            out += [np.stack([np.stack(s[:2]) for s in stepped[1:]]),
                    np.stack([s[2] for s in stepped[1:]])]
        return tuple(out)
