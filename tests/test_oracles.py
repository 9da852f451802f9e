"""Classical fundamental matrix and wavepacket quadrature oracles."""

import math

import numpy as np
import pytest

from quadflow import oracles
from quadflow.errors import GridUnderresolved
from quadflow.flow import constant_field_closed_form, integrate
from quadflow.observables import SYMPLECTIC_J, heisenberg_map
from quadflow.oracles import (GaussianState, apply_kernel, classical_system,
                              fundamental_matrix, hamiltonian_matrix,
                              heisenberg_closed_form, landau_kernel,
                              phase_parts)
from quadflow.schedule import CoefficientSchedule


def test_classical_system_is_hamiltonian():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = rng.uniform(-1, 1, 15)
        A, b = classical_system(a)
        JA = SYMPLECTIC_J @ A
        np.testing.assert_allclose(JA, JA.T, atol=1e-14)
        H, l = hamiltonian_matrix(a)
        np.testing.assert_allclose(A, SYMPLECTIC_J @ (2 * H), atol=1e-14)
        np.testing.assert_allclose(b, SYMPLECTIC_J @ l, atol=1e-14)


def test_free_particle_flow_map():
    m, t = 1.7, 0.9
    S, d = fundamental_matrix(CoefficientSchedule.preset("free", m=m), t)
    expected = np.eye(4)
    expected[0, 2] = expected[1, 3] = t / m
    np.testing.assert_allclose(S, expected, atol=1e-9)
    np.testing.assert_allclose(d, np.zeros(4), atol=1e-12)


def test_harmonic_oscillator_block():
    m, w, t = 1.2, 1.5, 0.8
    S, _ = fundamental_matrix(
        CoefficientSchedule.preset("harmonic1d", m=m, omega=w), t)
    block = S[np.ix_([0, 2], [0, 2])]
    expected = np.array([
        [math.cos(w * t), math.sin(w * t) / (m * w)],
        [-m * w * math.sin(w * t), math.cos(w * t)],
    ])
    np.testing.assert_allclose(block, expected, atol=1e-9)
    # y-sector stays free-particle-less: identity positions
    assert S[1, 1] == pytest.approx(1.0)


def test_fundamental_matrix_is_symplectic():
    rng = np.random.default_rng(22)
    for _ in range(5):
        sched = CoefficientSchedule.from_expressions(
            dict(enumerate(map(repr, rng.uniform(-1, 1, 15).tolist()), 1)))
        S, _ = fundamental_matrix(sched, 0.7)
        defect = np.max(np.abs(S.T @ SYMPLECTIC_J @ S - SYMPLECTIC_J))
        assert defect < 1e-8


def test_agrees_with_heisenberg_map_landau():
    sched = CoefficientSchedule.preset("landau", m=1.0, omega_c=1.0,
                                       E_x=0.3, E_y=-0.2)
    t = math.pi / 2
    S, d = fundamental_matrix(sched, t)
    m = heisenberg_map(integrate(sched, t).alphas[-1])
    assert np.max(np.abs(S - m.S)) < 1e-6
    assert np.max(np.abs(d - m.d)) < 1e-6


def test_shift_identity_against_flow_parameters():
    sched = CoefficientSchedule.preset("landau", m=1.0, omega_c=1.0,
                                       E_x=0.4, E_y=0.1)
    t = 1.3
    _, d = fundamental_matrix(sched, t)
    al = integrate(sched, t).alphas[-1]
    np.testing.assert_allclose(d, [al[3], al[4], -al[1], -al[2]], atol=1e-6)


def test_time_zero_is_identity():
    S, d = fundamental_matrix(CoefficientSchedule.preset("zero"), 0.0)
    np.testing.assert_array_equal(S, np.eye(4))
    np.testing.assert_array_equal(d, np.zeros(4))


def _map_error(got, S, d):
    return max(float(np.max(np.abs(got[0] - S))),
               float(np.max(np.abs(got[1] - d))))


def test_the_classical_oracle_meets_the_exact_maps_to_1e_10():
    # landau at t = 2.5: the closed-form map of the closed-form alphas
    p = dict(m=1.0, omega_c=1.0, E_x=0.3, E_y=-0.2, e=1.0)
    exact = heisenberg_closed_form(constant_field_closed_form(t=2.5, **p))
    got = fundamental_matrix(CoefficientSchedule.preset("landau", **p), 2.5)
    assert _map_error(got, exact.S, exact.d) < 1e-10
    # free particle: x += t p_x / m, y += t p_y / m
    m, t = 1.7, 0.9
    S = np.eye(4)
    S[0, 2] = S[1, 3] = t / m
    got = fundamental_matrix(CoefficientSchedule.preset("free", m=m), t)
    assert _map_error(got, S, np.zeros(4)) < 1e-10
    # harmonic oscillator along x; y and p_y stay put
    m, w, t = 1.2, 1.5, 0.8
    S = np.eye(4)
    S[np.ix_([0, 2], [0, 2])] = [
        [math.cos(w * t), math.sin(w * t) / (m * w)],
        [-m * w * math.sin(w * t), math.cos(w * t)]]
    got = fundamental_matrix(
        CoefficientSchedule.preset("harmonic1d", m=m, omega=w), t)
    assert _map_error(got, S, np.zeros(4)) < 1e-10


@pytest.mark.parametrize("omega, lam, t", [(2.0, 0.3, 1.3), (1.0, 0.1, 1.3)])
def test_the_classical_oracle_meets_a_tight_reference_on_kanai_caldirola(
        omega, lam, t):
    # scipy's RK45 at rtol 1e-13, atol 1e-15: other stepping code, run far
    # tighter than the oracle's defaults
    from scipy.integrate import solve_ivp
    sched = CoefficientSchedule.preset("kanai_caldirola", omega=omega, lam=lam)

    def rhs(tt, y):
        A, b = classical_system(sched.coefficients(tt))
        return np.concatenate([(A @ y[:16].reshape(4, 4)).ravel(),
                               A @ y[16:] + b])

    y0 = np.concatenate([np.eye(4).ravel(), np.zeros(4)])
    ref = solve_ivp(rhs, (0.0, t), y0, method="RK45", rtol=1e-13,
                    atol=1e-15).y[:, -1]
    got = fundamental_matrix(sched, t)
    assert _map_error(got, ref[:16].reshape(4, 4), ref[16:]) < 1e-10


def _tight_reference(sched, t):
    # scipy's DOP853 at rtol 1e-13, atol 1e-15: another method family than
    # the oracle's extrapolation, run far tighter than its defaults
    from scipy.integrate import solve_ivp

    def rhs(tt, y):
        A, b = classical_system(sched.coefficients(tt))
        return np.concatenate([(A @ y[:16].reshape(4, 4)).ravel(),
                               A @ y[16:] + b])

    y0 = np.concatenate([np.eye(4).ravel(), np.zeros(4)])
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-13,
                    atol=1e-15)
    assert sol.success
    return sol.y[:16, -1].reshape(4, 4), sol.y[16:, -1]


def _smooth_schedules(n=8, seed=11):
    """Seeded schedules c + A sin(w t) on all 15 coefficients."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        c, A = rng.uniform(-1, 1, (2, 15))
        w = rng.uniform(0.5, 3.0, 15)
        yield CoefficientSchedule.from_expressions(
            {k: f"c{k} + A{k}*sin(w{k}*t)" for k in range(1, 16)},
            constants={f"{name}{k + 1}": float(v[k]) for name, v in
                       (("c", c), ("A", A), ("w", w)) for k in range(15)})


def _oracle_cases():
    from test_flow import DRIVEN_SEED7, driven
    cases = [(CoefficientSchedule.preset(name), 2.5) for name in
             ("landau", "free", "harmonic1d", "kanai_caldirola", "zero")]
    cases.append((CoefficientSchedule.preset("landau", omega_c=5.0), 2.5))
    for params in DRIVEN_SEED7:
        sched = driven(*params)
        t_break = integrate(sched, 4.0).breakdown.t_break
        cases += [(sched, t) for t in (0.4, 0.8, 1.2, 0.8 * t_break)]
    return cases + [(sched, 0.5) for sched in _smooth_schedules()]


def test_the_classical_oracle_meets_a_tight_reference_on_every_case():
    # the presets at t = 2.5, landau at omega_c = 5, the benchmark's seed-7
    # driven inputs up to 0.8 t_break and eight random smooth schedules:
    # within 1e-10 of the reference, relative to max(1, max |S|)
    for sched, t in _oracle_cases():
        S, d = _tight_reference(sched, t)
        bound = 1e-10 * max(1.0, float(np.max(np.abs(S))))
        assert _map_error(fundamental_matrix(sched, t), S, d) <= bound, t


@pytest.mark.parametrize("a6", [math.nan, 1e300])
def test_a_non_finite_classical_state_raises(monkeypatch, a6):
    # a NaN in A(t), or a finite A(t) whose products overflow: every
    # attempt shrinks the step until it falls below the floor 16 eps t
    sched = CoefficientSchedule.preset("harmonic1d")
    if math.isnan(a6):
        def nan_system(a):
            A, b = classical_system(a)
            return A * math.nan, b

        monkeypatch.setattr(oracles, "classical_system", nan_system)
    else:
        sched = CoefficientSchedule.from_expressions({6: "1e300", 9: "0.5"})
    with pytest.raises(RuntimeError, match="classical oracle integration"):
        fundamental_matrix(sched, 2.5)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_a_time_off_the_half_line_is_refused(t):
    with pytest.raises(ValueError, match="finite and non-negative"):
        fundamental_matrix(CoefficientSchedule.preset("free"), t)


@pytest.mark.parametrize("points", [1, 2, 3, 4, 200, 201])
def test_the_action_quadrature_is_scipy_simpson(points):
    # an odd interval count ends in Cartwright's correction, as in scipy
    from scipy.integrate import simpson
    x = np.linspace(0.0, 2.3, points)
    y = np.sin(3 * x) + x ** 2
    assert oracles._simpson(y, x) == pytest.approx(simpson(y, x=x),
                                                   rel=1e-14, abs=1e-15)


# -- Gaussian states ---------------------------------------------------------

def test_separable_state_saturates_uncertainty():
    st = GaussianState.separable([0, 0, 0, 0], 0.7, 1.1, hbar=1.0)
    bound = st.covariance + 0.5j * SYMPLECTIC_J
    lam = np.linalg.eigvalsh(bound)
    assert lam.min() > -1e-12


def test_uncertainty_violation_rejected():
    cov = np.diag([1.0, 1.0, 1e-4, 1e-4])  # sigma_x*sigma_p << hbar/2
    with pytest.raises(ValueError):
        GaussianState(mean=np.zeros(4), covariance=cov, hbar=1.0)


def test_wavefunction_needs_separable_state():
    st = GaussianState(mean=np.zeros(4),
                       covariance=np.diag([1.0, 1.0, 0.25, 0.25]))
    with pytest.raises(ValueError):
        st.wavefunction(np.zeros((2, 2)), np.zeros((2, 2)))


def test_a_mean_that_is_not_a_4_vector_is_refused():
    with pytest.raises(ValueError, match="mean must be a 4-vector"):
        GaussianState(mean=np.zeros(3), covariance=np.eye(4))


# -- kernel pushforward ------------------------------------------------------

def test_apply_kernel_refuses_a_state_without_widths():
    st = GaussianState(mean=np.zeros(4),
                       covariance=np.diag([1.0, 1.0, 0.25, 0.25]))
    kern = landau_kernel(1.0, 1.0, 1.0,
                         constant_field_closed_form(1.0, 1.0, t=1.0), 1.0)
    with pytest.raises(ValueError, match="needs a separable initial state"):
        apply_kernel(kern, st, extent=8.0, points=128)


def test_free_kernel_spreading_law():
    # position variance grows as sigma^2 + (hbar t / (2 m sigma))^2; the
    # mean stays put and the norm is conserved
    t, m, sigma = 0.5, 1.0, 1.0
    al = np.zeros(15)
    al[8] = al[9] = t / (2 * m)
    from quadflow.propagator import degenerate_kernel

    kern = degenerate_kernel(al, 1.0)
    state = GaussianState.separable([0.0, 0.0, 0.0, 0.0], sigma, sigma)
    out = apply_kernel(kern, state, extent=6.0, points=128, hbar=1.0)
    assert np.max(np.abs(out.mean)) < 1e-3
    assert abs(out.norm - 1.0) < 1e-3
    expected_var = sigma ** 2 + (t / (2 * m * sigma)) ** 2
    assert out.covariance[0, 0] == pytest.approx(expected_var, rel=1e-3)
    assert out.covariance[1, 1] == pytest.approx(expected_var, rel=1e-3)
    # momentum distribution is invariant under free evolution
    assert out.covariance[2, 2] == pytest.approx(0.25, rel=1e-3)


def test_moving_packet_mean_follows_classical_drift():
    t, m = 0.5, 1.0
    al = np.zeros(15)
    al[8] = al[9] = t / (2 * m)
    from quadflow.propagator import degenerate_kernel

    kern = degenerate_kernel(al, 1.0)
    state = GaussianState.separable([0.5, -0.3, 0.4, 0.2], 1.0, 1.0)
    out = apply_kernel(kern, state, extent=6.0, points=128, hbar=1.0)
    expected = np.array([0.5 + 0.4 * t, -0.3 + 0.2 * t, 0.4, 0.2])
    assert np.max(np.abs(out.mean - expected)) < 1e-3


def test_landau_kernel_pushforward_matches_affine_map():
    t = math.pi / 2
    al = constant_field_closed_form(1.0, 1.0, t=t)
    kern = landau_kernel(1.0, 1.0, 1.0, al, t)
    state = GaussianState.separable([1.0, 0.5, 0.3, -0.2], 1.0, 1.0)
    out = apply_kernel(kern, state, extent=10.0, points=128, hbar=1.0)
    mean_pred, cov_pred = heisenberg_map(al).push_gaussian(state.mean,
                                                           state.covariance)
    assert np.max(np.abs(out.mean - mean_pred)) < 1e-3
    assert abs(out.norm - 1.0) < 1e-3
    np.testing.assert_allclose(np.diag(out.covariance)[:2],
                               np.diag(cov_pred)[:2], rtol=3e-3)


def test_fast_and_generic_quadrature_paths_agree(monkeypatch):
    t = math.pi / 2
    al = constant_field_closed_form(1.0, 1.0, t=t)
    kern = landau_kernel(1.0, 1.0, 1.0, al, t)
    state = GaussianState.separable([0.5, -0.3, 0.2, 0.1], 1.0, 1.0)
    split = []
    monkeypatch.setattr(oracles, "phase_parts",
                        lambda k: split.append(k) or phase_parts(k))
    fast = apply_kernel(kern, state, extent=8.0, points=100, hbar=1.0)

    def plain(x, y, xp, yp):   # a bare callable takes the generic path
        return kern(x, y, xp, yp)

    slow = apply_kernel(plain, state, extent=8.0, points=100, hbar=1.0)
    assert split == [kern]   # only the QuadraticPhaseKernel is split
    np.testing.assert_allclose(fast.mean, slow.mean, atol=1e-12)
    assert fast.norm == pytest.approx(slow.norm, abs=1e-12)


def test_grid_coverage_rejected():
    kern = landau_kernel(1.0, 1.0, 1.0,
                         constant_field_closed_form(1.0, 1.0, t=1.0), 1.0)
    state = GaussianState.separable([7.0, 0.0, 0.0, 0.0], 1.0, 1.0)
    with pytest.raises(GridUnderresolved) as err:
        apply_kernel(kern, state, extent=8.0, points=128)
    assert err.value.diagnostic == "coverage"


def test_points_per_sigma_rejected():
    kern = landau_kernel(1.0, 1.0, 1.0,
                         constant_field_closed_form(1.0, 1.0, t=1.0), 1.0)
    state = GaussianState.separable([0.0, 0.0, 0.0, 0.0], 0.3, 0.3)
    with pytest.raises(GridUnderresolved) as err:
        apply_kernel(kern, state, extent=8.0, points=128)
    assert err.value.diagnostic == "points-per-sigma"


def test_kernel_aliasing_rejected():
    # short-time free kernel oscillates far below the cell size
    t = 1e-3
    al = np.zeros(15)
    al[8] = al[9] = t / 2
    from quadflow.propagator import degenerate_kernel

    kern = degenerate_kernel(al, 1.0)
    state = GaussianState.separable([0.0, 0.0, 0.0, 0.0], 1.0, 1.0)
    with pytest.raises(GridUnderresolved) as err:
        apply_kernel(kern, state, extent=8.0, points=128)
    assert err.value.diagnostic == "nyquist"
