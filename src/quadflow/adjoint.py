"""Adjoint-action matrices of the one-parameter unitaries U_i = exp(i*alpha_i*h_i/hbar).

Conjugation closes on the generator basis,

    U_i(alpha) h_j U_i(alpha)^dagger = sum_k M_i(alpha)[j, k] h_k,

and differentiating in alpha gives M_i(alpha) = expm(-alpha * C_i) with
(C_i)[j, k] = c[i][j][k].  Row j of the matrix is the image of h_j; that
orientation is fixed throughout (the reduction assembly uses transposes).

Two independent implementations are provided and tested against each other:

* :func:`adjoint_matrix` - matrix exponential of the structure constants.
  C_i is nilpotent of index <= 3 for every generator except the dilatation
  generators 12 and 13, whose C is purely diagonal; both cases are summed
  exactly (terminating series / elementwise exp) from one table built at
  import, and ``_adjoint_stack`` evaluates every M_k^T(alpha_k) at once
  for the reduction pipeline; ``_affine_blocks`` yields only their
  leading 5x5 blocks, one generator at a time over a stack of parameter
  vectors, for the Heisenberg map.
* :func:`adjoint_closed_form` - the conjugation rules transcribed entry by
  entry, used as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import N_GENERATORS, _check_index, standard_algebra

__all__ = ["adjoint_matrix", "adjoint_closed_form", "adjoint_generator"]


def _build_generator_matrices():
    alg = standard_algebra()
    mats = [None]
    for i in range(1, N_GENERATORS + 1):
        C = np.zeros((N_GENERATORS, N_GENERATORS))
        for j in range(1, N_GENERATORS + 1):
            for k, v in alg.commutator(i, j).items():
                C[j - 1, k - 1] = float(v)
        mats.append(C)
    return mats


_C = _build_generator_matrices()


def _stack_table():
    """Flat-index table for the adjoint stack: C_1, C_12 and C_13 are diagonal
    (M^T = exp(-alpha*C)); every other M_k^T is a terminating series over the
    powers (C_k^T)^p, kept only at the entries they move off the identity."""
    n = N_GENERATORS
    CT = np.transpose(_C[1:], (0, 2, 1))
    diagonal = ~(CT * (1 - np.eye(n))).any(axis=(1, 2))
    powers = [np.tile(np.eye(n), (n, 1, 1))]
    while (P := powers[-1] @ CT * ~diagonal[:, None, None]).any():
        if len(powers) > 8:  # so no general matrix exponential is needed
            raise ValueError("a C_k is neither diagonal nor nilpotent")
        powers.append(P)
    flat = np.flatnonzero(np.any(powers[1:], axis=0))
    k = np.flatnonzero(diagonal)[:, None]
    dil = (k * n * n + np.arange(n) * (n + 1)).ravel()
    return (powers[0], flat, flat // (n * n),
            np.reshape(powers, (len(powers), -1))[:, flat],
            dil, dil // (n * n), CT.reshape(-1)[dil])


(_IDENTITIES, _SERIES_FLAT, _SERIES_ALPHA, _SERIES_POWERS,
 _DIL_FLAT, _DIL_ALPHA, _DIL_DIAG) = _stack_table()


def _affine_table():
    """The stack table restricted to the leading 5x5 block of each M_k^T
    (the span {1, x, y, p_x, p_y} every adjoint action keeps): the series
    and dilatation entries there, and per generator 2..15 the cells of its
    flattened block and the positions of the entries that fill them."""
    n = N_GENERATORS
    k, row, col = np.unravel_index(np.concatenate([_SERIES_FLAT, _DIL_FLAT]),
                                   (n, n, n))
    affine = (row < 5) & (col < 5)
    series, dil = np.split(affine, [_SERIES_FLAT.size])
    k, cells = k[affine], (row * 5 + col)[affine]
    return (_SERIES_ALPHA[series], _SERIES_POWERS[:, series], _DIL_ALPHA[dil],
            _DIL_DIAG[dil],
            [(cells[k == i], np.flatnonzero(k == i)) for i in range(1, n)])


(_AFFINE_SERIES_ALPHA, _AFFINE_SERIES_POWERS, _AFFINE_DIL_ALPHA,
 _AFFINE_DIL_DIAG, _AFFINE_GROUPS) = _affine_table()


def adjoint_generator(i: int) -> np.ndarray:
    """The matrix C_i with (C_i)[j, k] = c[i][j][k] (0-based array indices)."""
    _check_index(i)
    return _C[i].copy()


def _series(powers, f1):
    """sum_p f1**p / p! * powers[p], adding f_p = f_{p-1} * (f_1 / p) in
    order, so an entry's bits do not depend on the shape of ``f1``."""
    f, entries = f1, powers[0] + f1 * powers[1]
    for p in range(2, len(powers)):
        f = f * (f1 / p)
        entries = entries + f * powers[p]
    return entries


def _adjoint_stack(alpha: np.ndarray) -> np.ndarray:
    """M_k^T(alpha_k) at index k - 1 of one (15, 15, 15) array (hot path)."""
    MT = _IDENTITIES.copy()
    flat = MT.reshape(-1)
    flat[_SERIES_FLAT] = _series(_SERIES_POWERS, -alpha[_SERIES_ALPHA])
    flat[_DIL_FLAT] = np.exp(-alpha[_DIL_ALPHA] * _DIL_DIAG)
    return MT


def _affine_blocks(alpha: np.ndarray):
    """Yield the leading 5x5 block of M_k^T(alpha_k) for k = 2..15 (M_1 is
    the identity) as an (N, 5, 5) array over an (N, 15) stack of parameter
    vectors; each block is bit for bit that of :func:`_adjoint_stack`."""
    values = np.concatenate([
        _series(_AFFINE_SERIES_POWERS, -alpha[:, _AFFINE_SERIES_ALPHA]),
        np.exp(-alpha[:, _AFFINE_DIL_ALPHA] * _AFFINE_DIL_DIAG)], axis=1)
    for cells, entries in _AFFINE_GROUPS:
        block = np.empty((len(alpha), 5, 5))
        block[:] = np.eye(5)
        block.reshape(-1, 25)[:, cells] = values[:, entries]
        yield block


def _adjoint(i: int, alpha: float) -> np.ndarray:
    """exp(-alpha*C_i) from the stack, without index or finiteness checks."""
    one = np.zeros(N_GENERATORS)
    one[i - 1] = alpha
    return _adjoint_stack(one)[i - 1].T


def adjoint_matrix(i: int, alpha: float) -> np.ndarray:
    """M_i(alpha) = exp(-alpha*C_i) via exact terminating series.

    Parameters
    ----------
    i : generator index in 1..15
    alpha : transformation parameter (finite)

    Returns
    -------
    15x15 array whose entry ``[j-1, k-1]`` is the coefficient of h_k in
    the image of h_j.  Sign convention check: row 2 of M_9(alpha) is
    h2 + 2*alpha*h4 (x picks up 2*alpha_9*p_x under U_9).
    """
    _check_index(i)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return _adjoint(i, alpha)


# --------------------------------------------------------------------------
# Transcribed conjugation rules (independent oracle).  Each entry list reads
# (row j, column k, coefficient as a function of alpha).
# --------------------------------------------------------------------------

def _closed_form_entries(i: int, a: float):
    if i == 1:
        return []
    if i == 2:
        return [(4, 1, -a), (9, 4, -2 * a), (9, 1, a * a), (11, 5, -a),
                (12, 2, -2 * a), (15, 3, -a)]
    if i == 3:
        return [(5, 1, -a), (10, 5, -2 * a), (10, 1, a * a), (11, 4, -a),
                (13, 3, -2 * a), (14, 2, -a)]
    if i == 4:
        return [(2, 1, a), (6, 2, 2 * a), (6, 1, a * a), (8, 3, a),
                (12, 4, 2 * a), (14, 5, a)]
    if i == 5:
        return [(3, 1, a), (7, 3, 2 * a), (7, 1, a * a), (8, 2, a),
                (13, 5, 2 * a), (15, 4, a)]
    if i == 6:
        return [(4, 2, -2 * a), (9, 12, -2 * a), (9, 6, 4 * a * a),
                (11, 14, -2 * a), (12, 6, -4 * a), (15, 8, -2 * a)]
    if i == 7:
        return [(5, 3, -2 * a), (10, 13, -2 * a), (10, 7, 4 * a * a),
                (11, 15, -2 * a), (13, 7, -4 * a), (14, 8, -2 * a)]
    if i == 8:
        return [(4, 3, -a), (5, 2, -a), (9, 15, -2 * a), (9, 7, a * a),
                (10, 14, -2 * a), (10, 6, a * a),
                (11, 12, -a / 2), (11, 13, -a / 2), (11, 8, a * a),
                (12, 8, -2 * a), (13, 8, -2 * a), (14, 6, -a), (15, 7, -a)]
    if i == 9:
        return [(2, 4, 2 * a), (6, 12, 2 * a), (6, 9, 4 * a * a),
                (8, 15, 2 * a), (12, 9, 4 * a), (14, 11, 2 * a)]
    if i == 10:
        return [(3, 5, 2 * a), (7, 13, 2 * a), (7, 10, 4 * a * a),
                (8, 14, 2 * a), (13, 10, 4 * a), (15, 11, 2 * a)]
    if i == 11:
        return [(2, 5, a), (3, 4, a), (6, 14, 2 * a), (6, 10, a * a),
                (7, 15, 2 * a), (7, 9, a * a),
                (8, 12, a / 2), (8, 13, a / 2), (8, 11, a * a),
                (12, 11, 2 * a), (13, 11, 2 * a), (14, 10, a), (15, 9, a)]
    if i == 14:
        return [(3, 2, a), (4, 5, -a), (7, 8, 2 * a), (7, 6, a * a),
                (8, 6, a), (9, 11, -2 * a), (9, 10, a * a), (11, 10, -a),
                (12, 14, -2 * a), (13, 14, 2 * a),
                (15, 12, a / 2), (15, 13, -a / 2), (15, 14, -a * a)]
    if i == 15:
        return [(2, 3, a), (5, 4, -a), (6, 8, 2 * a), (6, 7, a * a),
                (8, 7, a), (10, 11, -2 * a), (10, 9, a * a), (11, 9, -a),
                (12, 15, 2 * a), (13, 15, -2 * a),
                (14, 12, -a / 2), (14, 13, a / 2), (14, 15, -a * a)]
    raise AssertionError(i)


# dilatation actions: (row, exp multiplier on alpha)
_DILATATION_ROWS = {
    12: ((2, 2.0), (4, -2.0), (6, 4.0), (8, 2.0), (9, -4.0), (11, -2.0),
         (14, 2.0), (15, -2.0)),
    13: ((3, 2.0), (5, -2.0), (7, 4.0), (8, 2.0), (10, -4.0), (11, -2.0),
         (14, -2.0), (15, 2.0)),
}


def adjoint_closed_form(i: int, alpha: float) -> np.ndarray:
    """Hardcoded closed-form conjugation matrices (test oracle).

    Implemented independently from the exponential path; agreement of the two
    implementations to 1e-12 is part of the acceptance suite.
    """
    _check_index(i)
    a = float(alpha)
    M = np.eye(N_GENERATORS)
    if i in _DILATATION_ROWS:
        for row, mult in _DILATATION_ROWS[i]:
            M[row - 1, row - 1] = math.exp(mult * a)
    else:
        for row, col, coeff in _closed_form_entries(i, a):
            M[row - 1, col - 1] += coeff
    return M
