"""Reduction of the transformed Hamiltonian to the ODE system for alpha.

Applying the ordered product U = U_15 U_14 ... U_2 U_1 (all fifteen factors,
descending index; U_1 conjugates first) to H - p_t turns the coefficient
vector a into

    w(a, alpha) = M_15^T M_14^T ... M_1^T a,

while the energy-operator shifts accumulate through the matrix

    nu(alpha) = sum_k (M_15^T ... M_{k+1}^T) I_k,      (I_k)[j,l] = delta_kj delta_kl.

Requiring the transformed Hamiltonian to reduce to the bare energy operator
yields the flow equations alpha_dot = mu(a, alpha) with mu = nu^{-1} w.

Two independent evaluations of mu live here, and they swap nothing but their
roles:

* :func:`explicit_rhs` is the paper's fifteen explicit right-hand sides,
  transcribed term by term on Python floats.  It is the flow's right-hand
  side: ``integrate`` calls it at every Runge-Kutta stage.
  :func:`reference_odes` is its checked ndarray form, one state or a
  stack of them.
* :func:`assemble` builds w, nu and mu from the structure constants, for
  one state or a stack of them (one adjoint evaluation gives every M_k^T,
  and the chain of R_k runs through two rolling buffers).  For this
  ordering det(nu) = 1 identically, which it asserts; ``integrate`` runs it
  on stacks of accepted end states as the conditioning sentinel that halts
  the flow where the factorization data outruns double precision.  It is
  also the oracle for the transcription: agreement to 1e-10 over random
  states is an acceptance criterion.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .adjoint import N_GENERATORS, _adjoint_blocks
from .errors import SingularNu

__all__ = ["ReductionState", "assemble", "explicit_rhs", "reference_odes"]

_DET_TOL = 1e-6
_IDENTITY = np.eye(N_GENERATORS)


class ReductionState:
    """One evaluation of the reduction pipeline at (a, alpha); the arrays
    carry the stack axes of the inputs in front.  ``w`` and ``mu`` are
    formed on first read: the flow's sentinel reads only det(nu)."""

    def __init__(self, nu: np.ndarray, _R: np.ndarray, _a: np.ndarray):
        self.nu = nu
        self._R = _R   # R_1, with w = R_1 a
        self._a = _a

    def __repr__(self) -> str:
        return f"ReductionState(nu={self.nu!r})"

    @cached_property
    def w(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return (self._R @ self._a[..., None])[..., 0]

    @cached_property
    def mu(self) -> np.ndarray:
        w = self.w
        with np.errstate(over="ignore", invalid="ignore"):
            return np.linalg.solve(self.nu, w[..., None])[..., 0]


def _as_vectors(x, name):
    """``x`` as a float 15-vector or (..., 15) stack of finite entries."""
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (N_GENERATORS,):
        raise ValueError(f"{name} must be a 15-vector or a stack of them, "
                         f"got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _w_nu(alpha: np.ndarray):
    # R_k = M_15^T ... M_{k+1}^T by the descending recursion R_{k-1} =
    # R_k M_k^T (R_15 = I) through two rolling buffers; column k of nu is
    # column k of R_k, and w = R_1 a since M_1 = I (h1 central).
    MT = _adjoint_blocks(alpha)
    R = np.empty(MT.shape[:-3] + (N_GENERATORS, N_GENERATORS))
    R[...] = _IDENTITY
    R_next = np.empty_like(R)
    nu = np.empty_like(R)
    nu[..., -1] = R[..., -1]
    for k in range(N_GENERATORS - 1, 0, -1):
        np.matmul(R, MT[..., k, :, :], out=R_next)
        R, R_next = R_next, R
        nu[..., k - 1] = R[..., k - 1]
    return R, nu


def assemble(a, alpha) -> ReductionState:
    """Evaluate w, nu and the flow right-hand side mu = nu^{-1} w.

    Parameters
    ----------
    a : 15-vector of Hamiltonian coefficients, or a (..., 15) stack
    alpha : 15-vector of transformation parameters, or a (..., 15) stack;
        the stack axes of ``a`` and ``alpha`` broadcast, and every entry's
        bits are those of the one-state evaluation

    Raises
    ------
    SingularNu
        If |det(nu) - 1| > 1e-6 in any row of the stack; the message names
        the first such row's det and alpha, and ``row`` its flat C-order
        index in the stack (0 for one state).  det(nu) = 1 holds analytically
        for this transformation ordering, so a violation indicates an
        assembly bug (or a wildly out-of-range alpha).
    """
    a = _as_vectors(a, "a")
    alpha = _as_vectors(alpha, "alpha")
    with np.errstate(over="ignore", invalid="ignore"):
        R, nu = _w_nu(alpha)
        det = np.linalg.det(nu)
        bad = ~(np.abs(det - 1.0) <= _DET_TOL)   # NaN fails as well
        if bad.any():
            row = int(np.argmax(bad))
            first = np.unravel_index(row, bad.shape)
            raise SingularNu(f"det(nu) = {float(det[first])!r} at alpha = "
                             f"{alpha[first].tolist()}", row)
    return ReductionState(nu=nu, _R=R, _a=a.copy())


def reference_odes(a, alpha) -> np.ndarray:
    """The fifteen explicit flow equations, transcribed term by term.

    Returns alpha_dot such that each transcribed expression
    mu_k(a, alpha) - alpha_dot_k vanishes.  This is the checked form of
    :func:`explicit_rhs`: ``a`` and ``alpha`` are 15-vectors of finite
    floats or (..., 15) stacks whose stack axes broadcast, validated once,
    and the result is an ndarray of the broadcast shape whose every row has
    the bits of :func:`explicit_rhs` on that row.  It deliberately shares
    no code with the matrix pipeline and is the oracle for :func:`assemble`.
    """
    a, alpha = np.broadcast_arrays(_as_vectors(a, "a"),
                                   _as_vectors(alpha, "alpha"))
    rows = zip(a.reshape(-1, N_GENERATORS).tolist(),
               alpha.reshape(-1, N_GENERATORS).tolist())
    return np.array([explicit_rhs(*row) for row in rows]).reshape(a.shape)


def explicit_rhs(a, alpha) -> list:
    """:func:`reference_odes` on Python floats, without checks.

    ``a`` and ``alpha`` are sequences of 15 Python floats and the result is
    a list; the flow's right-hand side calls this directly.  A term that
    overflows (float ``**`` and ``math.exp`` raise OverflowError) turns the
    whole result into NaN, the non-finite stage the integrator rejects.
    """
    # locals named as in the paper keep the transcription readable
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
    (l1, l2, l3, l4, l5, l6, l7, l8, l9, l10, l11, l12, l13, l14,
     l15) = alpha
    try:
        e_pm = math.exp(2 * l13 - 2 * l12)   # e^{2 alpha13 - 2 alpha12}
        e_mp = math.exp(2 * l12 - 2 * l13)   # e^{2 alpha12 - 2 alpha13}
        d1 = (a9 * l2 ** 2 - a4 * l2 + a11 * l3 * l2
              + a10 * l3 ** 2 - a6 * l4 ** 2 - a7 * l5 ** 2
              - a5 * l3 - a8 * l4 * l5 + a1)
        d2 = (-2 * a12 * l2 - a14 * l3 + 2 * a6 * l4
              + a8 * l5 + a2)
        d3 = (-a15 * l2 - 2 * a13 * l3 + a8 * l4
              + 2 * a7 * l5 + a3)
        d4 = (-2 * a9 * l2 - a11 * l3 + 2 * a12 * l4
              + a15 * l5 + a4)
        d5 = (-a11 * l2 - 2 * a10 * l3 + a14 * l4
              + 2 * a13 * l5 + a5)
        d6 = (4 * a9 * l6 ** 2 - 4 * a12 * l6
              + 2 * a11 * l8 * l6 + a10 * l8 ** 2
              - a14 * l8 + a6)
        d7 = (4 * a10 * l7 ** 2 - 4 * a13 * l7
              + 2 * a11 * l8 * l7 + a9 * l8 ** 2
              - a15 * l8 + a7)
        d8 = (-2 * a14 * l7 - 2 * a15 * l6
              - 2 * a12 * l8 - 2 * a13 * l8
              + 4 * a9 * l6 * l8 + 4 * a10 * l7 * l8
              + a11 * (l8 ** 2 + 4 * l6 * l7) + a8)
        d9 = (4 * a12 * l9 + a15 * l11
              - 2 * a11 * (l8 * l9 + l7 * l11)
              + a9 * (1 - 8 * l6 * l9 - 2 * l8 * l11))
        d10 = (4 * a13 * l10 + a14 * l11
               - 2 * a11 * (l8 * l10 + l6 * l11)
               + a10 * (1 - 8 * l7 * l10 - 2 * l8 * l11))
        d11 = (2 * a14 * l9 + 2 * a15 * l10
               + 2 * a12 * l11 + 2 * a13 * l11
               - a9 * (4 * l8 * l10 + 4 * l6 * l11)
               - a10 * (4 * l8 * l9 + 4 * l7 * l11)
               + a11 * (1 - 4 * l6 * l9 - 4 * l7 * l10
                        - 2 * l8 * l11))
        d12 = (0.5 * e_pm * a15 * l14
               - a11 * (l8 / 2 + e_pm * l7 * l14)
               - a9 * (2 * l6 + e_pm * l8 * l14) + a12)
        d13 = (-2 * a10 * l7 - 0.5 * e_pm * a15 * l14
               + e_pm * a9 * l8 * l14
               + a11 * (e_pm * l7 * l14 - l8 / 2) + a13)
        d14 = (e_pm * a15 * l14 ** 2
               - 2 * e_pm * a9 * l8 * l14 ** 2
               + e_mp * a14 - 2 * e_mp * a10 * l8
               - 2 * math.exp(-2 * (l12 + l13)) * a11
               * (math.exp(4 * l13) * l7 * l14 ** 2
                  + math.exp(4 * l12) * l6))
        d15 = (e_pm * a15 - 2 * e_pm * a11 * l7
               - 2 * e_pm * a9 * l8)
        return [d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14,
                d15]
    except OverflowError:
        return [math.nan] * N_GENERATORS
