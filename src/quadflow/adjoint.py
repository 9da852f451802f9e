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
  exactly (terminating series / elementwise exp) from one table, built at
  import from the structure constants ``_UPPER``, of the entries each M_k^T
  moves off the identity.  ``_adjoint_blocks`` gives the leading size x
  size block of every M_k^T over a stack of parameter vectors: size 15 for
  ``assemble``, size 5 for ``heisenberg_map``; this function forms
  generator i's entries alone, with the same operations.
* :func:`adjoint_closed_form` - the conjugation rules transcribed entry by
  entry, used as the oracle.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["N_GENERATORS", "adjoint_matrix", "adjoint_closed_form",
           "adjoint_generator"]

N_GENERATORS = 15

# c[i][j][k] for i < j as {(i, j): {k: c}}, the nonzero structure constants
# of :mod:`.algebra` in plain numbers (ints and +-1/2, exact as floats);
# the tests check them against ``StructureConstants.standard()``
_UPPER = {
    (2, 4): {1: 1}, (2, 9): {4: 2}, (2, 11): {5: 1}, (2, 12): {2: 2},
    (2, 15): {3: 1}, (3, 5): {1: 1}, (3, 10): {5: 2}, (3, 11): {4: 1},
    (3, 13): {3: 2}, (3, 14): {2: 1}, (4, 6): {2: -2}, (4, 8): {3: -1},
    (4, 12): {4: -2}, (4, 14): {5: -1}, (5, 7): {3: -2}, (5, 8): {2: -1},
    (5, 13): {5: -2}, (5, 15): {4: -1}, (6, 9): {12: 2}, (6, 11): {14: 2},
    (6, 12): {6: 4}, (6, 15): {8: 2}, (7, 10): {13: 2}, (7, 11): {15: 2},
    (7, 13): {7: 4}, (7, 14): {8: 2}, (8, 9): {15: 2}, (8, 10): {14: 2},
    (8, 11): {12: 0.5, 13: 0.5}, (8, 12): {8: 2}, (8, 13): {8: 2},
    (8, 14): {6: 1}, (8, 15): {7: 1}, (9, 12): {9: -4}, (9, 14): {11: -2},
    (10, 13): {10: -4}, (10, 15): {11: -2}, (11, 12): {11: -2},
    (11, 13): {11: -2}, (11, 14): {10: -1}, (11, 15): {9: -1},
    (12, 14): {14: -2}, (12, 15): {15: 2}, (13, 14): {14: 2},
    (13, 15): {15: -2}, (14, 15): {12: -0.5, 13: 0.5},
}


def _check_index(i: int) -> int:
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= N_GENERATORS:
        raise ValueError(f"generator index must be an integer in 1..15, got {i!r}")
    return i


def _build_generator_matrices():
    """C[i] with C[i][j - 1, k - 1] = c[i][j][k], the antisymmetric
    completion of ``_UPPER``; C[0] is unused."""
    C = np.zeros((N_GENERATORS + 1, N_GENERATORS, N_GENERATORS))
    for (i, j), row in _UPPER.items():
        for k, v in row.items():
            C[i, j - 1, k - 1] = v
            C[j, i - 1, k - 1] = -v
    return C


_C = _build_generator_matrices()


def _entry_table():
    """The entries (k, row, col) each M_k^T = exp(alpha_k * G_k), with
    G_k = -C_k^T, moves off the identity, paired with their coefficients.
    G_1, G_12 and G_13 are diagonal: exp of alpha_k times the diagonal.
    Every other M_k^T is the terminating series over the powers G_k^p."""
    n = N_GENERATORS
    G = -np.transpose(_C[1:], (0, 2, 1))
    diagonal = ~(G * (1 - np.eye(n))).any(axis=(1, 2))
    powers = [np.tile(np.eye(n), (n, 1, 1))]
    while (P := powers[-1] @ G * ~diagonal[:, None, None]).any():
        if len(powers) > 8:  # so no general matrix exponential is needed
            raise ValueError("a C_k is neither diagonal nor nilpotent")
        powers.append(P)
    series = np.nonzero(np.any(powers[1:], axis=0))
    k, row = np.nonzero(np.repeat(diagonal[:, None], n, axis=1))
    return [(series, np.array(powers)[(slice(None), *series)]),
            ((k, row, row), G[k, row, row])]


_ENTRIES = _entry_table()


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


@functools.cache
def _block_table(size: int, ndim: int):
    """The entry table restricted to the leading size x size blocks, for a
    parameter stack of ``ndim`` axes: the flattened identity blocks, and per
    kind of entry its cells in the flattened (15, size, size) stack, its
    generator and its coefficients, which broadcast over the stack axes."""
    kinds = []
    for (k, row, col), coeffs in _ENTRIES:
        keep = (row < size) & (col < size)
        coeffs = coeffs[..., keep]
        kinds.append((((k * size + row) * size + col)[keep], k[keep],
                      coeffs.reshape(coeffs.shape + (1,) * (ndim - 1))))
    return np.tile(np.eye(size), (N_GENERATORS, 1, 1)).reshape(-1), kinds


def _adjoint_blocks(alpha, size: int = N_GENERATORS) -> np.ndarray:
    """The leading size x size block of M_k^T(alpha_k) at ``[..., k - 1,
    :, :]`` for a (..., 15) float array of parameter vectors; an entry's
    bits depend on neither the stack's shape nor ``size``."""
    lead = alpha.shape[:-1]
    identity, ((s_cells, s_k, powers), (d_cells, d_k, diag)) = \
        _block_table(size, alpha.ndim)
    blocks = np.empty(lead + identity.shape)
    blocks[...] = identity
    # stack axes last: one index on the first axis serves every vector
    cells, a = blocks.T, alpha.T
    cells[s_cells] = _series(powers, a[s_k])
    cells[d_cells] = np.exp(a[d_k] * diag)
    return blocks.reshape(lead + (N_GENERATORS, size, size))


def adjoint_matrix(i: int, alpha) -> np.ndarray:
    """M_i(alpha) = exp(-alpha*C_i) via exact terminating series.

    Parameters
    ----------
    i : generator index in 1..15
    alpha : transformation parameter (finite), or an array of them

    Returns
    -------
    15x15 array whose entry ``[j-1, k-1]`` is the coefficient of h_k in
    the image of h_j; an array ``alpha`` gives a (..., 15, 15) stack with
    one matrix per entry, each with the bits of the one-parameter call.
    Sign convention check: row 2 of M_9(alpha) is h2 + 2*alpha*h4 (x picks
    up 2*alpha_9*p_x under U_9).
    """
    _check_index(i)
    alpha = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(alpha)):
        raise ValueError(f"alpha must be finite, got {alpha}")
    M = np.empty(alpha.shape + (N_GENERATORS, N_GENERATORS))
    M[...] = np.eye(N_GENERATORS)
    # generator i's entries alone, each formed as _adjoint_blocks forms it;
    # the table's (row, col) cells are those of M_i^T
    ((s_k, s_row, s_col), powers), ((d_k, d_row, d_col), diag) = _ENTRIES
    s, d = s_k == i - 1, d_k == i - 1
    a = alpha[..., None]
    M[..., s_col[s], s_row[s]] = _series(powers[:, s], a)
    M[..., d_col[d], d_row[d]] = np.exp(a * diag[d])
    return M


# --------------------------------------------------------------------------
# Transcribed conjugation rules (independent oracle).  Each entry list reads
# (row j, column k, coefficient as a function of alpha).
# --------------------------------------------------------------------------

def _closed_form_entries(i: int, a):
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


def adjoint_closed_form(i: int, alpha) -> np.ndarray:
    """Hardcoded closed-form conjugation matrices (test oracle).

    Implemented independently from the exponential path; agreement of the two
    implementations to 1e-12 is part of the acceptance suite.  An array
    ``alpha`` gives a (..., 15, 15) stack whose every matrix has the bits of
    the one-parameter call; each dilatation entry is its own ``math.exp``,
    so no exp is shared with :func:`adjoint_matrix`.
    """
    _check_index(i)
    a = np.asarray(alpha, dtype=float)
    M = np.empty(a.shape + (N_GENERATORS, N_GENERATORS))
    M[...] = np.eye(N_GENERATORS)
    if i in _DILATATION_ROWS:
        values = a.ravel().tolist()
        for row, mult in _DILATATION_ROWS[i]:
            M[..., row - 1, row - 1] = np.reshape(
                [math.exp(mult * v) for v in values], a.shape)
    else:
        for row, col, coeff in _closed_form_entries(i, a):
            M[..., row - 1, col - 1] += coeff
    return M
