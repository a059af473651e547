"""
Guards for the half-plane nonlinear kernel: the stepper's invariants over
random grids, parameters and states (hypothesis), and the rotational-form
explicit and tangent terms against the advective form built from the
complex full-plane reference ``oracles.advect_scalar_arrays``; a reused
workspace gives the bits of a fresh one, a warm step allocates no
arrays, and the step's stages, each one call over its component block,
give the bits of the per-plane oracle ``oracles.PerPlaneStepper``.  The
planes of every time loop keep column k2 = 0 exactly Hermitian.  The
kernel's terms are raw: a step projects its update once, and the public
right-hand sides project their own terms.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micropolar.dynamics import (
    Forcing,
    Params,
    State,
    _explicit_terms,
    _random_scalars,
    _Stepper,
    _to_half,
    _Workspace,
    make_forcing,
    random_state,
    rhs,
)
from micropolar.lyapunov import lyapunov_spectrum, random_tangent_pairs, tangent_rhs
from micropolar.spectral import (
    ScalarField,
    VectorField,
    _block,
    _full_from_half,
    _leray_arrays,
    make_grid,
    make_node_set,
)
from oracles import PerPlaneStepper
from oracles import advect_scalar_arrays as _advect_scalar_arrays
from oracles import to_phys_array as _to_phys_array

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


def _projected(grid, EU, EW):
    """Full spectra of the kernel's raw band-plane terms as a step projects
    them: dealiased, the mean zeroed, EU Leray-projected."""
    mask = grid.dealias_mask
    EU, EW = _full_from_half(grid, EU) * mask, _full_from_half(grid, EW) * mask
    EU = np.stack(_leray_arrays(grid, EU[0], EU[1]))
    EU[:, 0, 0] = EW[0, 0] = 0.0
    return EU, EW


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
    EU, EW = _projected(grid, *_explicit_terms(grid, params, U, W, f_hat, g_hat)[:2])
    ref_u, ref_w, scale_u, scale_w = _advective_reference(grid, params, U, W, f_hat, g_hat)
    assert np.max(np.abs(EU - ref_u)) <= ROUNDOFF * scale_u
    assert np.max(np.abs(EW - ref_w)) <= ROUNDOFF * scale_w


@pytest.mark.parametrize("nu_r,velocity_only", [(0.0, True), (0.0, False), (0.2, False)])
def test_tangent_terms_match_advective_form(grid32, nu_r, velocity_only):
    params = Params(0.1, nu_r, 0.1)
    base = random_state(grid32, 6, 1.0, 0.5)
    U, W = base.u.stacked(), base.omega.coeffs
    V, Z = random_tangent_pairs(grid32, 3, seed=9, velocity_only=velocity_only)
    zero = np.zeros_like(W)
    *_, EV, EZ = _explicit_terms(grid32, params, U, W, np.stack([zero, zero]), zero, V=V, Z=Z)

    mask = grid32.dealias_mask
    d1, d2 = grid32.deriv_factor(0), grid32.deriv_factor(1)
    u_phys = _to_phys_array(U * mask).real
    two_nur = 2.0 * params.nu_r
    for j in range(V.shape[0]):
        EVj, EZj = _projected(grid32, EV[j], EZ[j])
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
        assert np.max(np.abs(EVj - ref_v)) \
            <= ROUNDOFF * np.max(np.abs(adv))
        adv_z = (_advect_scalar_arrays(grid32, u_phys, Zj)
                 + _advect_scalar_arrays(grid32, v_phys, W * mask))
        ref_z = (-adv_z + two_nur * (d1 * Vj[1] - d2 * Vj[0])) * mask
        ref_z[0, 0] = 0.0
        assert np.max(np.abs(EZj - ref_z)) \
            <= ROUNDOFF * np.max(np.abs(adv_z))


@pytest.mark.parametrize("n", [8, 16, 32, 128])
@pytest.mark.parametrize("nu_r", [0.0, 0.2])
def test_pairs_ride_along_bitwise(n, nu_r):
    # the state's terms are the same bits with or without pairs, and each
    # pair's terms are the same bits as in a call with that pair alone;
    # forcing and the extra term act on the state only
    grid = make_grid(n, 2 * np.pi)
    params = Params(0.1, nu_r, 0.1)
    forcing = make_forcing(grid, "steady", 0.05, 0.01, mode_hi=4, seed=n)
    state = random_state(grid, n, 1.0, 0.5, kmax=n)
    U, W = state.u.stacked(), state.omega.coeffs
    V, Z = random_tangent_pairs(grid, 4, seed=n + 1, kmax=n)
    f_hat, g_hat = forcing.f_hat(0.0), forcing.g_hat(0.0)

    def extra(t, U, W):
        return 0.5 * U, -0.25 * W

    alone = _explicit_terms(grid, params, U, W, f_hat, g_hat, extra, 0.0)
    riding = _explicit_terms(grid, params, U, W, f_hat, g_hat, extra, 0.0, V=V, Z=Z)
    for a, b in zip(alone, riding[:3]):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    EV, EZ = riding[3:]
    block = (2 * grid.kcut + 1, grid.kcut + 1)
    assert EV.shape == (4, 2, *block) and EZ.shape == (4, *block)
    for j in range(4):
        *_, EVj, EZj = _explicit_terms(grid, params, U, W, f_hat, g_hat, extra, 0.0,
                                       V=V[j:j + 1], Z=Z[j:j + 1])
        assert EVj[0].tobytes() == EV[j].tobytes()
        assert EZj[0].tobytes() == EZ[j].tobytes()


@pytest.mark.parametrize("n", [8, 12, 16, 32])
@pytest.mark.parametrize("nu_r", [0.0, 0.2])
@pytest.mark.parametrize("pairs", [0, 1, 4])
@pytest.mark.parametrize("given", ["half", "band"])
def test_advance_equals_per_plane_oracle(n, nu_r, pairs, given):
    # the same operations in the same order, so the same bits on the
    # block's rows: the forward Euler step and 49 AB2 steps, from half
    # planes and then the stepper's own blocks fed back, or from band-plane
    # copies (n, kcut + 1) of them at every step; the oracle's other rows
    # stay zero
    grid = make_grid(n, 2 * np.pi)
    params = Params(0.1, nu_r, 0.1)
    forcing = make_forcing(grid, "steady", 0.05, 0.01, mode_hi=4, seed=n)
    half = n // 2 + 1
    state = random_state(grid, n, 1.0, 0.5, kmax=n)
    planes = [state.u.stacked()[..., :half], state.omega.coeffs[:, :half].copy()]
    if pairs:
        planes += [x[..., :half].copy()
                   for x in random_tangent_pairs(grid, pairs, seed=n + 1, kmax=n)]
    stepper = _Stepper(grid, params, forcing, dt=0.01)
    oracle = PerPlaneStepper(grid, params, forcing, dt=0.01)
    band = grid.kcut + 1
    outside = ~grid.dealias_mask[:, :band]
    expected = planes
    for i in range(50):
        if given == "band" and i:
            planes = [_full_from_half(grid, x)[..., :band] for x in planes]
        planes = stepper.advance(planes[0], planes[1], 0.01 * i, *planes[2:])
        expected = oracle.advance(expected[0], expected[1], 0.01 * i, *expected[2:])
        for a, b in zip(planes, expected):
            assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  _block(grid, b).view(np.uint64)), i
            assert np.all(b[..., outside] == 0), i


def _assert_projected(grid, velocity, scalar):
    # blocks or full spectra: divergence-free to 1e-14 of their scale, and
    # zero outside the dealiased band and at k = 0
    full = _full_from_half(grid, velocity) if velocity.shape[-1] < grid.n else velocity
    keep = grid.dealias_mask & (grid.lam > 0)
    for c in (*full, _full_from_half(grid, scalar) if scalar.shape[-1] < grid.n else scalar):
        assert np.all(c[~keep] == 0)
    assert VectorField.from_coeffs(grid, full[0], full[1]).max_divergence() <= 1e-14


@pytest.mark.parametrize("pairs", [0, 2])
def test_step_and_rhs_project_raw_terms(grid16, pairs):
    # inputs that are not divergence-free, reach beyond the 2/3 band and
    # (the stepper's half planes) carry a mean: the kernel leaves its terms
    # raw, so the step's one projection, in _Stepper._imex, is what removes
    # all three from the planes that advance returns; rhs and tangent_rhs
    # return projected, dealiased terms of their own
    grid, h = grid16, grid16.n // 2 + 1
    params = Params(0.1, 0.2, 0.1)
    forcing = make_forcing(grid, "steady", 0.05, 0.01, mode_hi=4, seed=1)
    spectra = 0.01 * _random_scalars(grid, np.random.default_rng(pairs), grid.n, 3 + 3 * pairs)
    fields = [(VectorField.from_coeffs(grid, c1, c2), ScalarField(grid, w))
              for c1, c2, w in spectra.reshape(-1, 3, grid.n, grid.n)]
    planes = spectra[..., :h].copy()
    planes[:, 0, 0] = 0.5
    members = planes.reshape(-1, 3, grid.n, h)
    assert fields[0][0].max_divergence() > 0.1
    assert np.all(members[..., 0, 0] != 0) and np.any(members[..., ~grid.dealias_mask[:, :h]])
    given = [members[0, :2], members[0, 2]]
    if pairs:
        given += [members[1:, :2], members[1:, 2]]
    stepped = _Stepper(grid, params, forcing, dt=0.01).advance(given[0], given[1], 0.0, *given[2:])
    _assert_projected(grid, stepped[0], stepped[1])
    for j in range(pairs):
        _assert_projected(grid, stepped[2][j], stepped[3][j])

    state = State(*fields[0])
    U, W = state.u.stacked(), state.omega.coeffs
    du, dw = rhs(state, params, forcing)
    _assert_projected(grid, du.stacked() + (params.nu + params.nu_r) * grid.lam * U,
                      dw.coeffs + (params.alpha * grid.lam + 4.0 * params.nu_r) * W)
    for V, Z in fields[1:]:
        dv, dz = tangent_rhs(state, (V, Z), params)
        _assert_projected(grid, dv.stacked() + (params.nu + params.nu_r) * grid.lam * V.stacked(),
                          dz.coeffs + (params.alpha * grid.lam + 4.0 * params.nu_r) * Z.coeffs)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_full_from_half_inverts_the_slice(n):
    grid = make_grid(n, 2 * np.pi)
    state = random_state(grid, 3, 1.0, 1.0, kmax=n)
    U = state.u.stacked()
    assert np.array_equal(_full_from_half(grid, U[..., : n // 2 + 1]), U)


@pytest.mark.parametrize("n", [8, 12, 16, 32, 64])
def test_advance_from_band_slice_equals_half_plane(n):
    # a dealiased input carries nothing beyond the band, so its band slice
    # must step to the same bits as the whole half plane
    grid = make_grid(n, 2 * np.pi)
    params = Params(0.1, 0.2, 0.1)
    forcing = make_forcing(grid, "steady", 0.05, 0.01, mode_hi=4, seed=n)
    state = random_state(grid, n, 1.0, 0.5, kmax=grid.kcut)
    assert np.all(state.omega.coeffs[~grid.dealias_mask] == 0)
    half = n // 2 + 1
    U, W = state.u.stacked()[..., :half], state.omega.coeffs[:, :half].copy()
    band = grid.kcut + 1
    out_half = _Stepper(grid, params, forcing, dt=0.01).advance(U, W, 0.0)
    out_band = _Stepper(grid, params, forcing, dt=0.01).advance(U[..., :band].copy(),
                                                                 W[..., :band].copy(), 0.0)
    for a, b in zip(out_half, out_band):
        assert a.shape[-1] == band
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pairs", [0, 1, 4])
@pytest.mark.parametrize("nu_r", [0.0, 0.2])
@pytest.mark.parametrize("with_extra", [False, True])
def test_reused_workspace_equals_fresh(pairs, nu_r, with_extra):
    # one workspace fed states A, B, A in turn: nothing a call leaves in its
    # buffers reaches the next one (with nu_r = 0 the coupling writes nothing)
    grid = make_grid(16, 2 * np.pi)
    params = Params(0.1, nu_r, 0.1)
    forcing = make_forcing(grid, "steady", 0.05, 0.01, mode_hi=4, seed=1)
    f_hat, g_hat = forcing.f_hat(0.0), forcing.g_hat(0.0)
    extra = (lambda t, U, W: (0.5 * U, -0.25 * W)) if with_extra else None

    def inputs(seed):
        state = random_state(grid, seed, 1.0, 0.5, kmax=16)
        V, Z = random_tangent_pairs(grid, pairs, seed=seed + 1, kmax=16) if pairs else (None, None)
        return state.u.stacked(), state.omega.coeffs, V, Z

    work = _Workspace(grid, 1 + pairs)
    for seed in (3, 4, 3):
        U, W, V, Z = inputs(seed)
        reused = _explicit_terms(grid, params, U, W, f_hat, g_hat, extra, 0.0, V=V, Z=Z, work=work)
        fresh = _explicit_terms(grid, params, U, W, f_hat, g_hat, extra, 0.0, V=V, Z=Z)
        assert len(reused) == len(fresh) == (3 if pairs == 0 else 5)
        for a, b in zip(reused, fresh):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _assert_warm_advance_allocates_no_arrays(grid, pairs, iterators=0):
    # after two warm-up steps every temporary lives in the stepper's
    # workspace: 20 steps stay under one band plane above the baseline
    # (plus ``iterators`` bytes, where the step's fixed overhead is not
    # small against a band plane)
    params = Params(0.15, 0.075, 0.15)
    forcing = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
    stepper = _Stepper(grid, params, forcing, dt=0.01)
    state = random_state(grid, 3, 0.15, 0.05)
    half = grid.n // 2 + 1
    planes = [state.u.stacked()[..., :half], state.omega.coeffs[:, :half].copy()]
    if pairs:
        planes += list(random_tangent_pairs(grid, pairs, seed=5))
    for i in range(2):
        planes = stepper.advance(planes[0], planes[1], 0.01 * i, *planes[2:])
    band_plane = grid.n * (grid.kcut + 1) * 16
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for i in range(2, 22):
            planes = stepper.advance(planes[0], planes[1], 0.01 * i, *planes[2:])
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert peak < band_plane + iterators, \
        f"{peak} bytes above baseline, one band plane is {band_plane}"


@pytest.mark.parametrize("pairs", [0, 4])
def test_warm_advance_allocates_no_arrays(grid64, pairs):
    _assert_warm_advance_allocates_no_arrays(grid64, pairs)


def test_warm_advance_with_8_pairs_allocates_no_arrays(grid32):
    # planes this small would make numpy buffer a broadcast of the state's
    # factors over the pairs: the workspace stacks them instead
    _assert_warm_advance_allocates_no_arrays(grid32, 8)


def test_warm_dense_advance_allocates_no_arrays(grid16):
    # n = 16 takes its transforms as dense DFT products: the product
    # between the inverse transform's two stages lives in the workspace too.
    # A step's two reductions (the largest speed, the finiteness check)
    # hold about 1 KiB of numpy iterator each, whatever n: a warm step
    # peaks at 1.9-2.2 KiB at n = 16 and 32 on either transform path,
    # above one band plane at n = 16 (1.5 KiB).  The smallest array that
    # the dense transforms could take per call is 3 band planes.
    _assert_warm_advance_allocates_no_arrays(grid16, 0, iterators=2048)


def test_new_pair_count_restarts_the_history(grid16):
    # a step with another number of pairs starts over with forward Euler,
    # like a fresh stepper, instead of reading a history it does not have
    params = Params(0.1, 0.2, 0.1)
    forcing = make_forcing(grid16, "steady", 0.05, 0.01, mode_hi=4, seed=3)
    stepper = _Stepper(grid16, params, forcing, dt=0.01)
    U, W = (X.copy() for X in stepper.advance(*_to_half(random_state(grid16, 7, 0.5, 0.2)), 0.0))
    V, Z = random_tangent_pairs(grid16, 2, seed=8)
    riding = stepper.advance(U, W, 0.01, V, Z)
    fresh = _Stepper(grid16, params, forcing, dt=0.01).advance(U, W, 0.01, V, Z)
    for a, b in zip(riding, fresh):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [16, 32, 64])
def test_time_loops_keep_column_zero_exactly_hermitian(n, monkeypatch):
    # column k2 = 0 equals, as values, the conjugate of its rows -k1 in
    # every plane that a time loop hands on over 40 steps, on either
    # transform path: the records of simulate (whose States then get the
    # validating constructor's bits), both twins' followers (after slaving,
    # and nudged) and the Benettin run's state and pairs
    import micropolar.assimilation as assimilation
    import micropolar.dynamics as dynamics
    import micropolar.lyapunov as lyapunov
    from micropolar.assimilation import SyncConfig, run_mode_sync, run_node_sync

    grid = make_grid(n, 2 * np.pi)
    params = Params(0.15, 0.075, 0.15)
    forcing = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
    reference, perturbed = random_state(grid, 2, 0.15, 0.05), random_state(grid, 3, 0.15, 0.05)
    checked = []

    def check(*planes):
        for X in planes:
            column = X[..., 0]
            # the blocks' rows k1 = 0..kcut, -kcut..-1
            mirror_rows = (-np.arange(X.shape[-2])) % X.shape[-2]
            assert np.array_equal(column, np.conj(column[..., mirror_rows]))
        checked.append(len(planes))

    class CheckedStepper(_Stepper):
        # the planes each step returns, and without pairs the planes it is
        # given: a twin's follower as its loop left them
        def advance(self, U, W, t, V=None, Z=None):
            if V is None:
                check(U, W)
            planes = super().advance(U, W, t, V, Z)
            check(*planes)
            return planes

    state_sums = dynamics._state_sums

    def recorded(grid, planes, weights=None):
        check(planes)
        full = _full_from_half(grid, planes)
        fast = dynamics._from_half(grid, planes[:2], planes[2], 0.0)
        validated = (*VectorField.from_coeffs(grid, full[0], full[1]).stacked(),
                     ScalarField(grid, full[2]).coeffs)
        for a, b in zip((fast.u.u1.coeffs, fast.u.u2.coeffs, fast.omega.coeffs), validated):
            assert a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()
        return state_sums(grid, planes, weights)

    monkeypatch.setattr(dynamics, "_state_sums", recorded)
    monkeypatch.setattr(assimilation, "_Stepper", CheckedStepper)
    monkeypatch.setattr(lyapunov, "_Stepper", CheckedStepper)

    dynamics.simulate(reference, params, forcing, 0.4, 0.01)
    assert len(checked) == 41
    config = SyncConfig(params, reference, perturbed, forcing, forcing, t_end=0.4, dt=0.01)
    run_mode_sync(config, 20)
    run_node_sync(config, make_node_set(grid, count=16), mu=5.0)
    assert len(checked) == 41 + 2 * 4 * 40
    lyapunov_spectrum(reference, params, forcing, 4, t_span=0.4, dt=0.01)
    assert len(checked) == 41 + 2 * 4 * 40 + 40


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_time_loops_equal_band_plane_oracle(n, monkeypatch):
    # every step that simulate, both twins (the slaved follower and the
    # nudged one, each with its reference) and the Benettin run take over
    # 40 steps, on either transform path: the blocks it returns equal, bit
    # for bit, the block rows of the band planes (n, kcut + 1) that the
    # per-plane oracle steps from the same planes, and the oracle's other
    # rows stay exactly zero.  The oracle's nudging term takes the node
    # values of the block of band planes and the interpolant of band
    # planes.
    import micropolar.assimilation as assimilation
    import micropolar.dynamics as dynamics
    import micropolar.lyapunov as lyapunov
    from micropolar.assimilation import SyncConfig, run_mode_sync, run_node_sync
    from micropolar.spectral import _phys_to_half, _sample_scalar

    grid = make_grid(n, 2 * np.pi)
    m = grid.kcut + 1
    params = Params(0.15, 0.075, 0.15)
    forcing = make_forcing(grid, "two_scale", 0.008, 0.002, mode_lo=9, mode_hi=25, seed=1)
    reference, perturbed = random_state(grid, 2, 0.15, 0.05), random_state(grid, 3, 0.15, 0.05)
    outside = ~grid.dealias_mask[:, :m]
    checked = []

    def band(X):
        return _full_from_half(grid, X)[..., :m]

    class BandNudging:
        # the nudging term of the library's _Nudging on band planes: the
        # nodes sample the block of the band planes of the gap, and its
        # interpolant is transformed to the band columns
        def __init__(self, nudge):
            self.nudge = nudge

        def __call__(self, t, U, W):
            nodes = self.nudge.nodes
            U1, W1 = (band(X) for X in self.nudge.reference)
            values = _sample_scalar(_block(grid, np.concatenate([U - U1, (W - W1)[None]])), nodes)
            phys = np.take(values, nodes.square_of_cell, axis=-1)
            for plane, mean in zip(phys, phys.mean(axis=(-2, -1))):
                plane -= mean
            gap = -self.nudge.mu * _phys_to_half(phys, m)
            return gap[:2], gap[2]

    class ShadowedStepper(_Stepper):
        def __init__(self, grid, params, forcing, dt, cfl_limit=0.5, extra=None):
            super().__init__(grid, params, forcing, dt, cfl_limit, extra)
            self.oracle = PerPlaneStepper(grid, params, forcing, dt,
                                          None if extra is None else BandNudging(extra))

        def advance(self, U, W, t, V=None, Z=None):
            given = [band(X) for X in (U, W, V, Z) if X is not None]
            planes = super().advance(U, W, t, V, Z)
            expected = self.oracle.advance(given[0], given[1], t, *given[2:])
            for a, b in zip(planes, expected):
                assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                      _block(grid, b).view(np.uint64))
                assert np.all(b[..., outside] == 0)
            checked.append(len(planes))
            return planes

    for module in (dynamics, assimilation, lyapunov):
        monkeypatch.setattr(module, "_Stepper", ShadowedStepper)
    final = dynamics.simulate(reference, params, forcing, 0.4, 0.01).final_state
    assert len(checked) == 40
    config = SyncConfig(params, reference, perturbed, forcing, forcing, t_end=0.4, dt=0.01)
    run_mode_sync(config, 20)
    run_node_sync(config, make_node_set(grid, count=16), mu=5.0)
    assert len(checked) == 40 + 2 * 2 * 40
    lyapunov_spectrum(reference, params, forcing, 4, t_span=0.4, dt=0.01)
    assert checked == [2] * 200 + [4] * 40
    # the final state holds the last blocks, and nothing beyond them
    assert np.all(final.omega.coeffs[~grid.dealias_mask] == 0)
