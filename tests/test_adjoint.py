"""Adjoint matrices: exponential path vs transcribed conjugation rules."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadflow import adjoint, algebra
from quadflow.adjoint import (_adjoint_blocks, adjoint_closed_form,
                              adjoint_generator, adjoint_matrix)
from quadflow.observables import heisenberg_map

ALPHAS = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def row(m, j):
    return m[j - 1]


def unit(k, coeff=1.0):
    v = np.zeros(15)
    v[k - 1] = coeff
    return v


def test_identity_at_alpha_zero():
    for i in range(1, 16):
        assert np.array_equal(adjoint_matrix(i, 0.0), np.eye(15))


def test_momentum_squared_shears_position():
    # U_9: x -> x + 2*alpha9*p_x
    m = adjoint_matrix(9, 0.7)
    expected = unit(2) + 1.4 * unit(4)
    np.testing.assert_allclose(row(m, 2), expected, atol=1e-15)


def test_dilatation_scales_x_and_px_oppositely():
    m = adjoint_matrix(12, 0.3)
    np.testing.assert_allclose(row(m, 2), unit(2, np.exp(0.6)), atol=1e-15)
    np.testing.assert_allclose(row(m, 4), unit(4, np.exp(-0.6)), atol=1e-15)


def test_xy_conjugation_of_px_squared_is_quadratic():
    # U_8 at alpha = 0.5: p_x^2 -> p_x^2 - 1.0*(y p_x) + 0.25*y^2
    m = adjoint_closed_form(8, 0.5)
    expected = unit(9) - 1.0 * unit(15) + 0.25 * unit(7)
    np.testing.assert_allclose(row(m, 9), expected, atol=1e-15)


def test_ypx_conjugation_of_xpy_mixes_dilatations():
    m = adjoint_closed_form(15, 2.0)
    expected = unit(14) - unit(12) + unit(13) - 4.0 * unit(15)
    np.testing.assert_allclose(row(m, 14), expected, atol=1e-15)


def test_px_translation_completes_the_square_on_x_squared():
    m = adjoint_closed_form(4, 1.0)
    expected = unit(6) + 2.0 * unit(2) + unit(1)
    np.testing.assert_allclose(row(m, 6), expected, atol=1e-15)


def test_exponential_matches_closed_form_everywhere():
    rng = np.random.default_rng(11)
    for i in range(2, 16):
        for alpha in rng.uniform(-1.0, 1.0, 100):
            d = np.max(np.abs(adjoint_matrix(i, alpha)
                              - adjoint_closed_form(i, alpha)))
            assert d < 1e-12, (i, alpha, d)


@settings(max_examples=60, deadline=None)
@given(i=st.integers(min_value=1, max_value=15), a=ALPHAS, b=ALPHAS)
def test_one_parameter_group_law(i, a, b):
    mab = adjoint_matrix(i, a) @ adjoint_matrix(i, b)
    np.testing.assert_allclose(mab, adjoint_matrix(i, a + b),
                               atol=1e-12, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(i=st.integers(min_value=1, max_value=15), a=ALPHAS)
def test_inverse_is_negated_parameter(i, a):
    prod = adjoint_matrix(i, a) @ adjoint_matrix(i, -a)
    np.testing.assert_allclose(prod, np.eye(15), atol=1e-12)


def test_determinants():
    rng = np.random.default_rng(4)
    for i in range(1, 16):
        for alpha in rng.uniform(-1.0, 1.0, 10):
            det = np.linalg.det(adjoint_matrix(i, alpha))
            det_inv = np.linalg.det(adjoint_matrix(i, -alpha))
            assert abs(det * det_inv - 1.0) < 1e-10
            if i in (12, 13):
                # dilatations: determinant is the product of the scaling
                # factors exp(+-2a), exp(+-4a), which telescopes to 1 here
                assert abs(det - 1.0) < 1e-10
            else:
                assert abs(det - 1.0) < 1e-12  # nilpotent generator, traceless


def test_central_element_row_preserved():
    rng = np.random.default_rng(5)
    for i in range(1, 16):
        m = adjoint_matrix(i, float(rng.uniform(-2, 2)))
        np.testing.assert_array_equal(row(m, 1), unit(1))


def test_generator_matrix_is_structure_constant_slice():
    C = adjoint_generator(9)
    assert C[1, 3] == -2.0  # c[9][2][4]: [p_x^2, x] = -2 p_x
    assert C[5, 11] == -2.0  # c[9][6][12]


def test_nonfinite_alpha_rejected():
    with pytest.raises(ValueError):
        adjoint_matrix(3, np.inf)


def test_affine_block_is_invariant():
    # span{1, x, y, p_x, p_y} is invariant under every adjoint action, and
    # the quadratic generators (i >= 6) also keep the quadratic span; this
    # is what lets heisenberg_map multiply 5x5 blocks
    rng = np.random.default_rng(12)
    for i in range(1, 16):
        for alpha in rng.uniform(-3.0, 3.0, 40):
            m = adjoint_matrix(i, alpha)
            assert not m[:5, 5:].any(), (i, alpha)
            if i >= 6:
                assert not m[5:, :5].any(), (i, alpha)
    for _ in range(20):
        alpha = rng.uniform(-1.0, 1.0, 15)
        full = np.eye(15)
        for i in range(2, 16):
            full = full @ adjoint_matrix(i, alpha[i - 1])
        hm = heisenberg_map(alpha)
        np.testing.assert_allclose(hm.S, full[1:5, 1:5], atol=1e-12)
        np.testing.assert_allclose(hm.d, full[1:5, 0], atol=1e-12)


def _taylor_series(i, alpha):
    # exp(-alpha*C_i) summed term by term from the structure constants:
    # elementwise exp for a diagonal C_i, else the terminating series
    C = adjoint_generator(i)
    if not np.count_nonzero(C - np.diag(np.diag(C))):
        return np.diag(np.exp(-alpha * np.diag(C)))
    M, P, fac = np.eye(15), np.eye(15), 1.0
    for k in range(1, 15):
        P = P @ C
        if not P.any():
            return M
        fac *= -alpha / k
        M += fac * P
    raise AssertionError(f"C_{i} is not nilpotent")


def test_adjoint_stack_equals_the_series_bit_for_bit():
    # one size-15 evaluation gives every M_k^T exactly as adjoint_matrix and
    # the plain Taylor series do, over parameter magnitudes 1e-3..20
    rng = np.random.default_rng(7)
    for mag in (1e-3, 1e-2, 0.1, 1.0, 3.0, 20.0):
        for _ in range(25):
            alpha = rng.uniform(-mag, mag, 15)
            MT = _adjoint_blocks(alpha)
            assert MT.shape == (15, 15, 15)
            for i in range(1, 16):
                a, M = alpha[i - 1], MT[i - 1].T
                assert np.array_equal(M, adjoint_matrix(i, a)), (i, a)
                assert np.array_equal(M, _taylor_series(i, a)), (i, a)
    assert np.array_equal(adjoint_matrix(1, 0.7), np.eye(15))


def test_affine_blocks_are_the_stack_blocks_bit_for_bit():
    # the size-5 blocks of a whole stack of vectors, in any stack shape,
    # hold exactly the leading blocks of each vector's own size-15 result
    rng = np.random.default_rng(8)
    alphas = np.concatenate([rng.uniform(-mag, mag, (20, 15))
                             for mag in (1e-3, 0.1, 1.0, 20.0)])
    blocks = _adjoint_blocks(alphas, 5)
    assert blocks.shape == (80, 15, 5, 5)
    assert np.array_equal(_adjoint_blocks(alphas.reshape(4, 20, 15), 5),
                          blocks.reshape(4, 20, 15, 5, 5))
    for alpha, block in zip(alphas, blocks):
        assert np.array_equal(block, _adjoint_blocks(alpha)[:, :5, :5]), alpha


def _bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(30,), (5, 6)], ids=["n", "n-m"])
@pytest.mark.parametrize("i", range(1, 16))
def test_stacked_adjoints_equal_the_one_parameter_calls_bit_for_bit(i, shape):
    # both implementations, -0.0 and magnitudes 1e-3..20 included: every
    # matrix of a stack is the one-parameter call's
    rng = np.random.default_rng(40 + i)
    alphas = rng.uniform(-1, 1, shape) * 10.0 ** rng.uniform(-3, 1.3, shape)
    alphas.flat[:3] = (0.0, -0.0, 1.0)
    for f in (adjoint_matrix, adjoint_closed_form):
        stack = f(i, alphas)
        assert stack.shape == shape + (15, 15)
        for k in np.ndindex(shape):
            assert _bits_equal(stack[k], f(i, float(alphas[k]))), (f, k)
        assert f(i, alphas[(0,) * len(shape)]).shape == (15, 15)


def test_the_plain_structure_constants_are_the_exact_tensor(monkeypatch):
    # adjoint's table is the exact Fraction table, entry for entry; every
    # C_i it builds is the one StructureConstants gives, and so is the
    # entry table built from them, to the bit
    assert {key: {k: Fraction(v) for k, v in row.items()}
            for key, row in adjoint._UPPER.items()} == algebra._UPPER
    exact = algebra.StructureConstants.standard()
    C = np.zeros((16, 15, 15))
    for i in range(1, 16):
        for j in range(1, 16):
            for k, v in exact.commutator(i, j).items():
                C[i, j - 1, k - 1] = float(v)
        assert _bits_equal(adjoint_generator(i), C[i]), i
    monkeypatch.setattr(adjoint, "_C", C)
    for ((cells, coeffs), (want_cells, want_coeffs)) in zip(
            adjoint._ENTRIES, adjoint._entry_table(), strict=True):
        assert all(map(np.array_equal, cells, want_cells))
        assert _bits_equal(coeffs, want_coeffs)


@pytest.mark.parametrize("alpha", [[0.5, np.nan], [[0.1], [-np.inf]]])
def test_nonfinite_alpha_in_a_stack_rejected(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        adjoint_matrix(3, alpha)
