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
  :func:`reference_odes` is its checked ndarray form.
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
from dataclasses import dataclass

import numpy as np

from .adjoint import _adjoint_blocks
from .algebra import N_GENERATORS
from .errors import SingularNu

__all__ = ["ReductionState", "assemble", "explicit_rhs", "reference_odes"]

_DET_TOL = 1e-6
_IDENTITY = np.eye(N_GENERATORS)


@dataclass(frozen=True)
class ReductionState:
    """One evaluation of the reduction pipeline at (a, alpha); the arrays
    carry the stack axes of the inputs in front."""

    a: np.ndarray
    alpha: np.ndarray
    w: np.ndarray
    nu: np.ndarray
    mu: np.ndarray


def _as_vectors(x, name):
    """``x`` as a float 15-vector or (..., 15) stack of finite entries."""
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (N_GENERATORS,):
        raise ValueError(f"{name} must be a 15-vector or a stack of them, "
                         f"got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _as_vector(x, name):
    v = _as_vectors(x, name)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 15-vector, got shape {v.shape}")
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
        the first such row's det and alpha.  det(nu) = 1 holds analytically
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
            first = np.unravel_index(np.argmax(bad), bad.shape)
            raise SingularNu(f"det(nu) = {float(det[first])!r} at alpha = "
                             f"{alpha[first].tolist()}")
        w = (R @ a[..., None])[..., 0]
        mu = np.linalg.solve(nu, w[..., None])[..., 0]
    return ReductionState(a=a, alpha=alpha, w=w, nu=nu, mu=mu)


def reference_odes(a, alpha) -> np.ndarray:
    """The fifteen explicit flow equations, transcribed term by term.

    Returns alpha_dot such that each transcribed expression
    mu_k(a, alpha) - alpha_dot_k vanishes.  This is the checked form of
    :func:`explicit_rhs` (15-vectors of finite floats in, an ndarray out);
    it deliberately shares no code with the matrix pipeline and is the
    oracle for :func:`assemble`.
    """
    a = _as_vector(a, "a")
    alpha = _as_vector(alpha, "alpha")
    return np.array(explicit_rhs(a.tolist(), alpha.tolist()))


def explicit_rhs(a, alpha) -> list:
    """:func:`reference_odes` on Python floats, without checks.

    ``a`` and ``alpha`` are sequences of 15 Python floats and the result is
    a list; the flow's right-hand side calls this directly.  A term that
    overflows (float ``**`` and ``math.exp`` raise OverflowError) turns the
    whole result into NaN, the non-finite stage the integrator rejects.
    """
    # 1-based views keep the transcription readable
    a = [0.0, *a]
    al = [0.0, *alpha]
    try:
        e_pm = math.exp(2 * al[13] - 2 * al[12])   # e^{2 a13 - 2 a12}
        e_mp = math.exp(2 * al[12] - 2 * al[13])   # e^{2 a12 - 2 a13}
        d = [0.0] * 16
        d[1] = (a[9] * al[2] ** 2 - a[4] * al[2] + a[11] * al[3] * al[2]
                + a[10] * al[3] ** 2 - a[6] * al[4] ** 2 - a[7] * al[5] ** 2
                - a[5] * al[3] - a[8] * al[4] * al[5] + a[1])
        d[2] = (-2 * a[12] * al[2] - a[14] * al[3] + 2 * a[6] * al[4]
                + a[8] * al[5] + a[2])
        d[3] = (-a[15] * al[2] - 2 * a[13] * al[3] + a[8] * al[4]
                + 2 * a[7] * al[5] + a[3])
        d[4] = (-2 * a[9] * al[2] - a[11] * al[3] + 2 * a[12] * al[4]
                + a[15] * al[5] + a[4])
        d[5] = (-a[11] * al[2] - 2 * a[10] * al[3] + a[14] * al[4]
                + 2 * a[13] * al[5] + a[5])
        d[6] = (4 * a[9] * al[6] ** 2 - 4 * a[12] * al[6]
                + 2 * a[11] * al[8] * al[6] + a[10] * al[8] ** 2
                - a[14] * al[8] + a[6])
        d[7] = (4 * a[10] * al[7] ** 2 - 4 * a[13] * al[7]
                + 2 * a[11] * al[8] * al[7] + a[9] * al[8] ** 2
                - a[15] * al[8] + a[7])
        d[8] = (-2 * a[14] * al[7] - 2 * a[15] * al[6]
                - 2 * a[12] * al[8] - 2 * a[13] * al[8]
                + 4 * a[9] * al[6] * al[8] + 4 * a[10] * al[7] * al[8]
                + a[11] * (al[8] ** 2 + 4 * al[6] * al[7]) + a[8])
        d[9] = (4 * a[12] * al[9] + a[15] * al[11]
                - 2 * a[11] * (al[8] * al[9] + al[7] * al[11])
                + a[9] * (1 - 8 * al[6] * al[9] - 2 * al[8] * al[11]))
        d[10] = (4 * a[13] * al[10] + a[14] * al[11]
                 - 2 * a[11] * (al[8] * al[10] + al[6] * al[11])
                 + a[10] * (1 - 8 * al[7] * al[10] - 2 * al[8] * al[11]))
        d[11] = (2 * a[14] * al[9] + 2 * a[15] * al[10]
                 + 2 * a[12] * al[11] + 2 * a[13] * al[11]
                 - a[9] * (4 * al[8] * al[10] + 4 * al[6] * al[11])
                 - a[10] * (4 * al[8] * al[9] + 4 * al[7] * al[11])
                 + a[11] * (1 - 4 * al[6] * al[9] - 4 * al[7] * al[10]
                            - 2 * al[8] * al[11]))
        d[12] = (0.5 * e_pm * a[15] * al[14]
                 - a[11] * (al[8] / 2 + e_pm * al[7] * al[14])
                 - a[9] * (2 * al[6] + e_pm * al[8] * al[14]) + a[12])
        d[13] = (-2 * a[10] * al[7] - 0.5 * e_pm * a[15] * al[14]
                 + e_pm * a[9] * al[8] * al[14]
                 + a[11] * (e_pm * al[7] * al[14] - al[8] / 2) + a[13])
        d[14] = (e_pm * a[15] * al[14] ** 2
                 - 2 * e_pm * a[9] * al[8] * al[14] ** 2
                 + e_mp * a[14] - 2 * e_mp * a[10] * al[8]
                 - 2 * math.exp(-2 * (al[12] + al[13])) * a[11]
                 * (math.exp(4 * al[13]) * al[7] * al[14] ** 2
                    + math.exp(4 * al[12]) * al[6]))
        d[15] = (e_pm * a[15] - 2 * e_pm * a[11] * al[7]
                 - 2 * e_pm * a[9] * al[8])
        return d[1:]
    except OverflowError:
        return [math.nan] * N_GENERATORS
