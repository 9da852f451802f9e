"""Heisenberg affine map, symplecticity, classical correspondence."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from quadflow.adjoint import adjoint_matrix
from quadflow.flow import integrate, constant_field_closed_form
from quadflow.observables import (SYMPLECTIC_J, classical_lagrangian,
                                  heisenberg_closed_form, heisenberg_map,
                                  write_heisenberg_json)
from quadflow.reduction import reference_odes
from quadflow.schedule import CoefficientSchedule


def test_identity_at_zero_alpha():
    m = heisenberg_map(np.zeros(15))
    np.testing.assert_array_equal(m.S, np.eye(4))
    np.testing.assert_array_equal(m.d, np.zeros(4))
    assert m.phase == 0.0


def test_overflowing_map_is_non_finite_without_warnings():
    # e^{2 alpha12} overflows at alpha12 = 400: the map is inf/NaN, and
    # numpy prints nothing that would reach a CLI run's stderr
    alphas = np.zeros((2, 15))
    alphas[1, 11] = 400.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = heisenberg_map(alphas)
        single = heisenberg_map(alphas[1])
    np.testing.assert_array_equal(m.S[0], np.eye(4))
    assert not np.all(np.isfinite(m.S[1]))
    np.testing.assert_array_equal(single.S, m.S[1])


def test_landau_quarter_period_rows():
    al = constant_field_closed_form(1.0, 1.0, t=math.pi / 2)
    m = heisenberg_map(al)
    np.testing.assert_allclose(m.S[0], [0.5, -0.5, 1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(m.S[2], [-0.25, 0.25, 0.5, -0.5], atol=1e-12)


def test_product_path_matches_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(200):
        al = rng.uniform(-1, 1, 15)
        a = heisenberg_map(al)
        b = heisenberg_closed_form(al)
        assert np.max(np.abs(a.S - b.S)) < 1e-12
        np.testing.assert_array_equal(a.d, b.d)


def test_shift_is_exactly_the_first_parameters():
    rng = np.random.default_rng(13)
    for _ in range(50):
        al = rng.uniform(-1, 1, 15)
        m = heisenberg_map(al)
        np.testing.assert_array_equal(m.d, [al[3], al[4], -al[1], -al[2]])


def test_symplecticity_along_random_flows():
    rng = np.random.default_rng(14)
    for k in range(5):
        sched = CoefficientSchedule.from_constant_vector(
            rng.uniform(-1, 1, 15))
        res = integrate(sched, 0.5)
        for alpha in res.alphas[:: max(1, len(res.alphas) // 20)]:
            assert heisenberg_map(alpha).symplectic_defect() < 1e-8


def test_push_gaussian_moments():
    rng = np.random.default_rng(16)
    al = rng.uniform(-0.5, 0.5, 15)
    m = heisenberg_map(al)
    mean = rng.uniform(-1, 1, 4)
    A = rng.uniform(-1, 1, (4, 4))
    cov = A @ A.T + np.eye(4)
    mean2, cov2 = m.push_gaussian(mean, cov)
    np.testing.assert_allclose(mean2, m.S @ mean + m.d, atol=1e-14)
    np.testing.assert_allclose(cov2, m.S @ cov @ m.S.T, atol=1e-12)


def test_lagrangian_zero_coefficients():
    rng = np.random.default_rng(17)
    al = rng.uniform(-1, 1, 15)
    assert classical_lagrangian(np.zeros(15), al, np.zeros(15)) == 0.0


def test_free_particle_lagrangian_is_kinetic_energy():
    m_mass = 1.4
    sched = CoefficientSchedule.free(m=m_mass)
    res = integrate(sched, 1.0, initial_alpha=np.array(
        [0, 0.6, -0.3, 0.2, 0.1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0]))
    alpha = res.alphas[-1]
    a = sched.coefficients(res.ts[-1])
    adot = reference_odes(a, alpha)
    L = classical_lagrangian(a, alpha, adot)
    kinetic = (alpha[1] ** 2 + alpha[2] ** 2) / (2 * m_mass)
    assert abs(L - kinetic) < 1e-12


def test_action_accumulates_alpha1():
    sched = CoefficientSchedule.landau(m=1.0, omega_c=1.0, E_x=0.3, E_y=-0.2)
    res = integrate(sched, 2.5)
    ls = []
    for t, alpha in zip(res.ts, res.alphas):
        a = sched.coefficients(t)
        ls.append(classical_lagrangian(a, alpha, reference_odes(a, alpha)))
    action = simpson(np.array(ls), x=res.ts)
    assert abs(action - res.alphas[-1, 0]) < 1e-8


def euler_residuals(a, alpha, alpha_dot):
    """Euler-Lagrange combinations d/dt(dL/d(alpha_k_dot)) - dL/d(alpha_k),
    k = 2..5, of :func:`classical_lagrangian`.

    L is at most quadratic in each single variable, so a central difference
    with unit step is its exact partial derivative.  The velocity partials
    are -alpha4, -alpha5, 0, 0, whose time derivatives are read off
    ``alpha_dot``.
    """
    def partials(which):
        out = []
        for k in range(1, 5):
            up = [np.array(alpha, dtype=float), np.array(alpha_dot, dtype=float)]
            down = [v.copy() for v in up]
            up[which][k] += 1.0
            down[which][k] -= 1.0
            out.append((classical_lagrangian(a, *up)
                        - classical_lagrangian(a, *down)) / 2)
        return np.array(out)

    np.testing.assert_allclose(partials(1), [-alpha[3], -alpha[4], 0, 0],
                               rtol=0, atol=1e-12)
    momenta_dot = np.array([-alpha_dot[3], -alpha_dot[4], 0.0, 0.0])
    return momenta_dot - partials(0)


def test_euler_residuals_vanish_along_flow():
    sched = CoefficientSchedule.landau(m=1.0, omega_c=1.0, E_x=0.2)
    res = integrate(sched, 2.0)
    for t, alpha in zip(res.ts[::17], res.alphas[::17]):
        a = sched.coefficients(t)
        r = euler_residuals(a, alpha, reference_odes(a, alpha))
        assert np.max(np.abs(r)) < 1e-8


def test_euler_residuals_origin_pattern():
    a = np.zeros(15)
    a[1] = 1.0  # linear-in-x coefficient only
    r = euler_residuals(a, np.zeros(15), np.zeros(15))
    np.testing.assert_array_equal(r, [0.0, 0.0, -1.0, 0.0])


def test_euler_residuals_match_flow_equations_off_flow():
    rng = np.random.default_rng(18)
    a = rng.uniform(-1, 1, 15)
    al = rng.uniform(-1, 1, 15)
    adot = rng.uniform(-1, 1, 15)
    r = euler_residuals(a, al, adot)
    mu = reference_odes(a, al)
    expected = np.array([mu[3] - adot[3], mu[4] - adot[4],
                         -(mu[1] - adot[1]), -(mu[2] - adot[2])])
    np.testing.assert_allclose(r, expected, atol=1e-12)


def test_heisenberg_json_output(tmp_path):
    res = integrate(CoefficientSchedule.landau(), 0.5, samples=10)
    path = tmp_path / "heisenberg.json"
    write_heisenberg_json(res, path)
    records = json.loads(path.read_text())
    assert len(records) == 11
    first = records[0]
    assert first["t"] == 0.0
    np.testing.assert_array_equal(np.array(first["S"]), np.eye(4))
    assert first["d"] == [0.0, 0.0, 0.0, 0.0]
    sym = np.array(records[-1]["S"])
    defect = np.max(np.abs(sym.T @ SYMPLECTIC_J @ sym - SYMPLECTIC_J))
    assert defect < 1e-8


def test_heisenberg_map_equals_the_block_loop_bit_for_bit():
    # the ordered product of adjoint_matrix's affine 5x5 blocks, one per
    # generator, is what the map computes from one adjoint stack
    rng = np.random.default_rng(23)
    for mag in (1e-3, 0.1, 1.0, 3.0, 20.0):
        for _ in range(30):
            alpha = rng.uniform(-mag, mag, 15)
            block = np.eye(5)
            for i in range(2, 16):
                block = block @ adjoint_matrix(i, alpha[i - 1])[:5, :5]
            m = heisenberg_map(alpha)
            assert np.array_equal(m.S, block[1:, 1:]), alpha
            assert np.array_equal(m.d, block[1:, 0]), alpha


def test_stacked_push_gaussian_equals_the_per_map_pushes():
    rng = np.random.default_rng(24)
    alphas = rng.uniform(-1, 1, (6, 15))
    mean = rng.uniform(-1, 1, 4)
    cov = np.diag(rng.uniform(0.5, 2.0, 4))
    means, covs = heisenberg_map(alphas).push_gaussian(mean, cov)
    assert means.shape == (6, 4) and covs.shape == (6, 4, 4)
    for k, alpha in enumerate(alphas):
        one_mean, one_cov = heisenberg_map(alpha).push_gaussian(mean, cov)
        np.testing.assert_array_equal(means[k], one_mean)
        np.testing.assert_array_equal(covs[k], one_cov)


@pytest.mark.parametrize("shape", [(40,), (5, 8)], ids=["n", "n-m"])
def test_stacked_lagrangian_equals_the_one_state_calls_bit_for_bit(shape):
    # zeros, -0.0 and magnitudes 1e-3..1e3 included; a stack broadcast
    # against one a gives every entry of the one-state call too
    rng = np.random.default_rng(29)
    a, al, ad = (rng.uniform(-1, 1, shape + (15,))
                 * 10.0 ** rng.uniform(-3, 3, shape + (1,)) for _ in range(3))
    a[rng.random(a.shape) < 0.2] = 0.0
    al[rng.random(al.shape) < 0.2] = -0.0
    got = classical_lagrangian(a, al, ad)
    assert isinstance(got, np.ndarray) and got.shape == shape
    first = (0,) * len(shape)
    one_a = classical_lagrangian(a[first], al, ad)
    for k in np.ndindex(shape):
        want = classical_lagrangian(a[k], al[k], ad[k])
        assert type(want) is float
        assert got[k].tobytes() == np.float64(want).tobytes(), k
        want = classical_lagrangian(a[first], al[k], ad[k])
        assert one_a[k].tobytes() == np.float64(want).tobytes(), k


@pytest.mark.parametrize("shapes", [
    ((14,), (15,), (15,)), ((15,), (3, 15), (4, 15)),
    ((2, 16), (2, 15), (15,)),
], ids=["short-a", "unbroadcastable", "long-a"])
def test_lagrangian_refuses_bad_shapes(shapes):
    with pytest.raises(ValueError):
        classical_lagrangian(*(np.zeros(s) for s in shapes))
