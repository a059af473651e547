"""
Guards for the half-plane nonlinear kernel: the stepper's invariants over
random grids, parameters and states (hypothesis), and the rotational-form
explicit and tangent terms against the advective form built from the
trilinear-form reference ``spectral._advect_scalar_arrays``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micropolar.dynamics import (
    Forcing,
    Params,
    _explicit_terms,
    _Stepper,
    make_forcing,
    random_state,
)
from micropolar.lyapunov import _tangent_explicit, random_tangent_pairs
from micropolar.spectral import (
    ScalarField,
    VectorField,
    _advect_scalar_arrays,
    _full_from_half,
    _leray_arrays,
    _to_phys_array,
    make_grid,
)

# The rotational and advective forms differ by grad(|u|^2 / 2), which the
# projection removes exactly in the dealiased band; what is left is FFT
# roundoff, a few eps * log2(n) of the unprojected advection's magnitude
# (measured at most 3.3e-15 for n = 12..128).  The bound leaves 30x headroom.
ROUNDOFF = 1e-13


def _hermitian_deviation(grid, c):
    flat = c.reshape(c.shape[:-2] + (-1,))
    return np.max(np.abs(flat - np.conj(flat[..., grid.conj_flat])))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([8, 12, 16, 32]),
    seed=st.integers(0, 2**16),
    nu=st.floats(0.02, 1.0),
    nu_r=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    alpha=st.floats(0.02, 1.0),
    energy=st.floats(0.0, 1.0),
    forced=st.booleans(),
)
def test_advance_keeps_invariants(n, seed, nu, nu_r, alpha, energy, forced):
    grid = make_grid(n, 2 * np.pi)
    params = Params(nu, nu_r, alpha)
    forcing = (make_forcing(grid, "steady", 0.05, 0.01, mode_hi=4, seed=seed) if forced
               else Forcing.zero(grid))
    # kmax = n fills every mode, so the first step also truncates the input
    state = random_state(grid, seed, energy, 0.5 * energy, kmax=n)
    stepper = _Stepper(grid, params, forcing, dt=0.01)
    half = n // 2 + 1
    U, W = state.u.stacked()[..., :half], state.omega.coeffs[:, :half].copy()
    outside = ~grid.dealias_mask
    for i in range(3):
        U, W = stepper.advance(U, W, 0.01 * i)
        full_u, full_w = _full_from_half(grid, U), _full_from_half(grid, W)
        for c in (full_u[0], full_u[1], full_w):
            assert np.isfinite(c.view(np.float64)).all()
            assert _hermitian_deviation(grid, c) <= 1e-14 * max(np.max(np.abs(c)), 1e-300)
            assert c[0, 0] == 0
            assert np.all(c[outside] == 0)
        u = VectorField.from_coeffs(grid, full_u[0], full_u[1])
        assert u.max_divergence() <= 1e-12
        ScalarField(grid, full_w)


def _advective_reference(grid, params, U, W, f_hat, g_hat):
    """Explicit terms in the advective form, on full spectra."""
    mask = grid.dealias_mask
    U, W = U * mask, W * mask
    u_phys = _to_phys_array(U).real
    adv_u = np.stack([_advect_scalar_arrays(grid, u_phys, U[j]) for j in range(2)])
    adv_w = _advect_scalar_arrays(grid, u_phys, W)
    d1, d2 = grid.deriv_factor(0), grid.deriv_factor(1)
    two_nur = 2.0 * params.nu_r
    EU = -adv_u + two_nur * np.stack([d2 * W, -(d1 * W)]) + f_hat
    EW = -adv_w + two_nur * (d1 * U[1] - d2 * U[0]) + g_hat
    EU = np.stack(_leray_arrays(grid, EU[0] * mask, EU[1] * mask))
    EU[:, 0, 0] = 0.0
    EW = EW * mask
    EW[0, 0] = 0.0
    return EU, EW, np.max(np.abs(adv_u)), np.max(np.abs(adv_w))


@pytest.mark.parametrize("n", [12, 16, 32, 64])
@pytest.mark.parametrize("nu_r", [0.0, 0.2])
@pytest.mark.parametrize("kmax", [4, 64])
def test_explicit_terms_match_advective_form(n, nu_r, kmax):
    grid = make_grid(n, 2 * np.pi)
    params = Params(0.1, nu_r, 0.1)
    forcing = make_forcing(grid, "steady", 0.05, 0.01, mode_hi=4, seed=2)
    state = random_state(grid, 5, 1.0, 0.5, kmax=kmax)
    U, W = state.u.stacked(), state.omega.coeffs
    f_hat, g_hat = forcing.f_hat(0.0), forcing.g_hat(0.0)
    EU, EW, _ = _explicit_terms(grid, params, U, W, f_hat, g_hat)
    ref_u, ref_w, scale_u, scale_w = _advective_reference(grid, params, U, W, f_hat, g_hat)
    assert np.max(np.abs(_full_from_half(grid, EU) - ref_u)) <= ROUNDOFF * scale_u
    assert np.max(np.abs(_full_from_half(grid, EW) - ref_w)) <= ROUNDOFF * scale_w


@pytest.mark.parametrize("nu_r,velocity_only", [(0.0, True), (0.0, False), (0.2, False)])
def test_tangent_terms_match_advective_form(grid32, nu_r, velocity_only):
    params = Params(0.1, nu_r, 0.1)
    base = random_state(grid32, 6, 1.0, 0.5)
    U, W = base.u.stacked(), base.omega.coeffs
    V, Z = random_tangent_pairs(grid32, 3, seed=9, velocity_only=velocity_only)
    EV, EZ = _tangent_explicit(grid32, params, U, W, V, Z, velocity_only)

    mask = grid32.dealias_mask
    d1, d2 = grid32.deriv_factor(0), grid32.deriv_factor(1)
    u_phys = _to_phys_array(U * mask).real
    two_nur = 2.0 * params.nu_r
    for j in range(V.shape[0]):
        Vj, Zj = V[j] * mask, Z[j] * mask
        v_phys = _to_phys_array(Vj).real
        # -(u.grad)V - (V.grad)u, then the coupling, projected
        adv = np.stack([_advect_scalar_arrays(grid32, u_phys, Vj[i])
                        + _advect_scalar_arrays(grid32, v_phys, U[i] * mask) for i in range(2)])
        ref_v = -adv
        if not velocity_only:
            ref_v = ref_v + two_nur * np.stack([d2 * Zj, -(d1 * Zj)])
        ref_v = np.stack(_leray_arrays(grid32, ref_v[0] * mask, ref_v[1] * mask))
        ref_v[:, 0, 0] = 0.0
        assert np.max(np.abs(_full_from_half(grid32, EV[j]) - ref_v)) \
            <= ROUNDOFF * np.max(np.abs(adv))
        if velocity_only:
            assert np.all(EZ[j] == 0)
            continue
        adv_z = (_advect_scalar_arrays(grid32, u_phys, Zj)
                 + _advect_scalar_arrays(grid32, v_phys, W * mask))
        ref_z = (-adv_z + two_nur * (d1 * Vj[1] - d2 * Vj[0])) * mask
        ref_z[0, 0] = 0.0
        assert np.max(np.abs(_full_from_half(grid32, EZ[j]) - ref_z)) \
            <= ROUNDOFF * np.max(np.abs(adv_z))


@pytest.mark.parametrize("n", [8, 12, 16])
def test_full_from_half_inverts_the_slice(n):
    grid = make_grid(n, 2 * np.pi)
    state = random_state(grid, 3, 1.0, 1.0, kmax=n)
    U = state.u.stacked()
    assert np.array_equal(_full_from_half(grid, U[..., : n // 2 + 1]), U)
