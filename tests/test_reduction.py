"""Reduction pipeline (w, nu, mu) against the transcribed flow equations."""

import pickle

import numpy as np
import pytest

from quadflow.adjoint import adjoint_matrix
from quadflow.errors import SingularNu
from quadflow.flow import integrate
from quadflow.reduction import assemble, explicit_rhs, reference_odes
from quadflow.schedule import CoefficientSchedule


def test_origin_gives_identity_nu_and_mu_equals_a():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, 15)
    state = assemble(a, np.zeros(15))
    np.testing.assert_array_equal(state.nu, np.eye(15))
    np.testing.assert_array_equal(state.mu, a)
    np.testing.assert_array_equal(state.w, a)


def test_reference_odes_at_origin_equal_a():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, 15)
    np.testing.assert_array_equal(reference_odes(a, np.zeros(15)), a)


def test_kinetic_only_rhs_at_origin():
    m = 1.7
    a = np.zeros(15)
    a[8] = a[9] = 1 / (2 * m)
    dot = reference_odes(a, np.zeros(15))
    assert dot[8] == dot[9] == 1 / (2 * m)
    assert np.count_nonzero(dot) == 2


def test_pipeline_matches_transcription_on_random_states():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        a = rng.uniform(-1, 1, 15)
        alpha = rng.uniform(-1, 1, 15)
        state = assemble(a, alpha)
        worst = max(worst, float(np.max(np.abs(state.mu
                                               - reference_odes(a, alpha)))))
    assert worst < 1e-10


def test_pipeline_matches_transcription_along_constant_field_flow():
    sched = CoefficientSchedule.preset("landau", m=1.0, omega_c=1.0)
    alpha = integrate(sched, 0.5).alphas[-1]
    a = sched.coefficients(0.5)
    state = assemble(a, alpha)
    assert np.max(np.abs(state.mu - reference_odes(a, alpha))) < 1e-10


def test_float_core_equals_reference_odes_on_random_states():
    # the flow's right-hand side calls the float core; the oracle tests
    # call the checked wrapper: both must give the same numbers
    rng = np.random.default_rng(11)
    for mag in (0.1, 1.0, 10.0):
        for _ in range(100):
            a = rng.uniform(-1, 1, 15)
            alpha = rng.uniform(-mag, mag, 15)
            got = explicit_rhs(a.tolist(), alpha.tolist())
            assert type(got) is list and len(got) == 15
            assert got == reference_odes(a, alpha).tolist()


@pytest.mark.parametrize("index, value", [(12, 400.0), (1, 1e200)])
def test_float_core_overflow_is_an_all_nan_result(index, value):
    # exp(2*alpha13 - 2*alpha12) and alpha2 ** 2 raise OverflowError on floats
    alpha = np.zeros(15)
    alpha[index] = value
    got = explicit_rhs(np.ones(15).tolist(), alpha.tolist())
    assert len(got) == 15 and np.all(np.isnan(got))


def test_det_nu_is_one():
    rng = np.random.default_rng(7)
    for _ in range(200):
        alpha = rng.uniform(-0.5, 0.5, 15)
        state = assemble(rng.uniform(-1, 1, 15), alpha)
        assert abs(np.linalg.det(state.nu) - 1.0) < 1e-9


def test_mu_is_linear_in_a():
    rng = np.random.default_rng(3)
    alpha = rng.uniform(-1, 1, 15)
    a1 = rng.uniform(-1, 1, 15)
    a2 = rng.uniform(-1, 1, 15)
    lhs = assemble(a1 + a2, alpha).mu
    rhs = assemble(a1, alpha).mu + assemble(a2, alpha).mu
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # nu itself does not depend on a
    np.testing.assert_array_equal(assemble(a1, alpha).nu,
                                  assemble(a2, alpha).nu)


def test_nu_is_block_diagonal_over_affine_and_quadratic_generators():
    # {1..5} and {6..15} do not mix in nu: the flow is a cascade of the
    # quadratic (sp(4)) parameters feeding the affine ones
    rng = np.random.default_rng(13)
    for _ in range(200):
        state = assemble(rng.uniform(-1, 1, 15), rng.uniform(-2, 2, 15))
        assert not state.nu[:5, 5:].any()
        assert not state.nu[5:, :5].any()


def test_nu_times_mu_recovers_w():
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, 15)
    alpha = rng.uniform(-1, 1, 15)
    state = assemble(a, alpha)
    np.testing.assert_allclose(state.nu @ state.mu, state.w, atol=1e-12)


def test_overflowing_alpha_raises_singular_nu():
    a = np.ones(15)
    alpha = np.zeros(15)
    alpha[11] = 400.0  # exp(+-4*alpha12) overflows the determinant
    with pytest.raises(SingularNu) as excinfo:
        assemble(a, alpha)
    assert excinfo.value.row == 0


def test_a_refused_stack_names_its_first_refused_row():
    # refused rows at flat C-order indices 4 and 5 of a (2, 3, 15) stack
    alpha = np.zeros((2, 3, 15))
    alpha[1, 1, 11] = 400.0
    alpha[1, 2, 11] = 500.0
    with pytest.raises(SingularNu) as one:
        assemble(np.ones(15), alpha[1, 1])
    with pytest.raises(SingularNu) as excinfo:
        assemble(np.ones(15), alpha)
    assert excinfo.value.row == 4
    assert str(excinfo.value) == str(one.value)
    # the row survives a round trip to a worker process
    assert pickle.loads(pickle.dumps(excinfo.value)).row == 4
    assert SingularNu("one argument").row is None


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        assemble(np.zeros(14), np.zeros(15))
    with pytest.raises(ValueError):
        assemble(np.zeros(15), np.full(15, np.nan))


def _reference_recursion(alpha):
    # R_1 and nu by the descending recursion R_{k-1} = R_k M_k^T over one
    # adjoint_matrix call per generator
    nu = np.empty((15, 15))
    R = np.eye(15)
    for k in range(15, 0, -1):
        nu[:, k - 1] = R[:, k - 1]
        if k > 1:
            R = R @ adjoint_matrix(k, alpha[k - 1]).T
    return R, nu


def _reference_assemble(a, alpha):
    # w, nu and mu; None where det(nu) strays from 1
    R, nu = _reference_recursion(alpha)
    det = np.linalg.det(nu)
    if not np.isfinite(det) or abs(det - 1.0) > 1e-6:
        return None
    w = R @ a
    return w, nu, np.linalg.solve(nu, w)


def test_assemble_equals_the_reference_recursion_bit_for_bit():
    rng = np.random.default_rng(17)
    good, bad = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for mag in (1e-3, 0.1, 1.0, 3.0, 10.0, 30.0):
            for _ in range(40):
                a = rng.uniform(-1, 1, 15) * rng.choice([1.0, 10.0, 1e3])
                alpha = rng.uniform(-mag, mag, 15)
                ref = _reference_assemble(a, alpha)
                if ref is None:
                    bad.append((a, alpha))
                    with pytest.raises(SingularNu):
                        assemble(a, alpha)
                    continue
                good.append((a, alpha, ref))
                state = assemble(a, alpha)
                for got, want in zip((state.w, state.nu, state.mu), ref):
                    assert np.array_equal(got, want), (a, alpha)
    assert 0 < len(bad) < 240  # both outcomes are exercised

    # stacked, in stacks of 32 and as one, and broadcast against one a:
    # every row carries the one-state bits
    a, alpha, refs = map(list, zip(*good))
    for stack in (slice(0, 32), slice(32, None)):
        state = assemble(a[stack], alpha[stack])
        for k, ref in enumerate(refs[stack]):
            for got, want in zip((state.w, state.nu, state.mu), ref):
                assert np.array_equal(got[k], want)
    state = assemble(a[0], np.reshape(alpha[:30], (5, 6, 15)))
    for k in range(30):
        row = assemble(a[0], alpha[k])
        for got, want in zip((state.w, state.nu, state.mu),
                             (row.w, row.nu, row.mu)):
            assert np.array_equal(got[divmod(k, 6)], want)

    # a stack with one bad row names that row's det and alpha
    bad_a, bad_alpha = bad[0]
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(_reference_recursion(bad_alpha)[1]))
    for at in (0, 7, 31):
        rows = alpha[:31]
        rows.insert(at, bad_alpha)
        with pytest.raises(SingularNu) as excinfo:
            assemble(bad_a, rows)
        assert str(excinfo.value) == (f"det(nu) = {det!r} at alpha = "
                                      f"{bad_alpha.tolist()}")


def _bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(40,), (5, 8)], ids=["n", "n-m"])
def test_stacked_reference_odes_equal_the_one_state_calls_bit_for_bit(shape):
    # zeros, -0.0 and magnitudes 1e-3..1e3 included; every row of a stack,
    # and of a stack broadcast against one a or one alpha, is the one-state
    # call's row
    rng = np.random.default_rng(23)
    a, alpha = (rng.uniform(-1, 1, shape + (15,))
                * 10.0 ** rng.uniform(-3, top, shape + (1,)) for top in (3, 1))
    a[rng.random(a.shape) < 0.2] = 0.0
    alpha[rng.random(alpha.shape) < 0.2] = -0.0
    got = reference_odes(a, alpha)
    assert got.shape == shape + (15,)
    for k in np.ndindex(shape):
        assert _bits_equal(got[k], explicit_rhs(a[k].tolist(),
                                                alpha[k].tolist())), k
    first = (0,) * len(shape)
    one_a = reference_odes(a[first], alpha)
    one_alpha = reference_odes(a, alpha[first])
    for k in np.ndindex(shape):
        assert _bits_equal(one_a[k], reference_odes(a[first], alpha[k]))
        assert _bits_equal(one_alpha[k], reference_odes(a[k], alpha[first]))
    # a 15-vector pair still gives one 15-vector
    assert reference_odes(a[first], alpha[first]).shape == (15,)


@pytest.mark.parametrize("a, alpha", [
    (np.zeros(14), np.zeros(15)),
    (np.zeros((3, 15)), np.zeros((4, 15))),
    (np.zeros((2, 15)), np.zeros((2, 16))),
    (np.zeros((2, 15)), np.array([np.zeros(15), np.full(15, np.nan)])),
    (np.array([np.zeros(15), np.full(15, np.inf)]), np.zeros(15)),
], ids=["short-a", "unbroadcastable", "long-alpha", "nan-row", "inf-row"])
def test_stacked_reference_odes_refuse_bad_shapes_and_non_finite_rows(
        a, alpha):
    with pytest.raises(ValueError):
        reference_odes(a, alpha)


def test_assemble_keeps_the_det_it_checked():
    # verify reads it instead of computing it again
    rng = np.random.default_rng(29)
    a = rng.uniform(-1, 1, (7, 15))
    alpha = rng.uniform(-1, 1, (7, 15))
    for state in (assemble(a, alpha), assemble(a[0], alpha[0])):
        assert np.asarray(state.det).tobytes() == \
            np.asarray(np.linalg.det(state.nu)).tobytes()
