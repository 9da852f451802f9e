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

* ``_EQUATIONS`` is the paper's fifteen explicit right-hand sides,
  transcribed term by term in the grammar of :mod:`.expressions`, the one
  copy of them.  The flow's right-hand side, which ``integrate`` calls at
  every Runge-Kutta stage, is :func:`flow_rhs`: the table's trees, pruned
  of the terms that a pattern of zero coefficients and the alphas that
  stay at 0 make zero, and compiled once per pattern by
  :func:`.expressions.emit`, which computes a repeated operation once and
  nests the rest inline, bit for bit the values of :func:`explicit_rhs` on
  the flow's states.  :func:`explicit_rhs`, every term on Python floats,
  is the kernel of no zeros, compiled on its first call, and
  :func:`reference_odes` is its checked ndarray form, one state or a stack
  of them.
* :func:`assemble` builds w, nu and mu from the structure constants, for
  one state or a stack of them (one adjoint evaluation gives every M_k^T,
  and the chain of R_k is one matrix product per factor).  For this
  ordering det(nu) = 1 identically, which it asserts; ``integrate`` runs it
  on stacks of accepted end states as the conditioning sentinel that halts
  the flow where the factorization data outruns double precision.  It is
  also the oracle for the transcription: agreement to 1e-10 over random
  states is an acceptance criterion.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, lru_cache

import numpy as np

from . import expressions as ex
from .adjoint import _adjoint_blocks
from .errors import SingularNu
from .schedule import N_GENERATORS

__all__ = ["ReductionState", "assemble", "explicit_rhs", "flow_rhs",
           "reference_odes"]

_DET_TOL = 1e-6
_IDENTITY = np.eye(N_GENERATORS)


class ReductionState:
    """One evaluation of the reduction pipeline at (a, alpha); the arrays
    carry the stack axes of the inputs in front.  ``det`` is the det(nu)
    that :func:`assemble` checked.  ``w`` and ``mu`` are formed on first
    read: the flow's sentinel reads only det(nu)."""

    def __init__(self, nu: np.ndarray, det: np.ndarray, _R: np.ndarray,
                 _a: np.ndarray):
        self.nu = nu
        self.det = det
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
    # R_k M_k^T (R_15 = I); column k of nu is column k of R_k, and
    # w = R_1 a since M_1 = I (h1 central).
    MT = _adjoint_blocks(alpha)
    R = _IDENTITY
    nu = np.empty(MT.shape[:-3] + R.shape)
    nu[..., -1] = R[..., -1]
    for k in range(N_GENERATORS - 1, 0, -1):
        R = R @ MT[..., k, :, :]
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
    return ReductionState(nu=nu, det=det, _R=R, _a=a.copy())


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


# The paper's flow equations as written, in the grammar of
# :mod:`.expressions`, over the coefficients a1..a15 and the alphas l1..l15:
# the two exponentials that several right-hand sides share, then
# alpha_dot_1 .. alpha_dot_15.  Each string fixes its order of operations,
# so keep them as written.
_EQUATIONS = {
    "e_pm": "exp(2 * l13 - 2 * l12)",   # e^{2 alpha13 - 2 alpha12}
    "e_mp": "exp(2 * l12 - 2 * l13)",   # e^{2 alpha12 - 2 alpha13}
    "d1": """a9 * l2 ^ 2 - a4 * l2 + a11 * l3 * l2
             + a10 * l3 ^ 2 - a6 * l4 ^ 2 - a7 * l5 ^ 2
             - a5 * l3 - a8 * l4 * l5 + a1""",
    "d2": """-2 * a12 * l2 - a14 * l3 + 2 * a6 * l4
             + a8 * l5 + a2""",
    "d3": """-a15 * l2 - 2 * a13 * l3 + a8 * l4
             + 2 * a7 * l5 + a3""",
    "d4": """-2 * a9 * l2 - a11 * l3 + 2 * a12 * l4
             + a15 * l5 + a4""",
    "d5": """-a11 * l2 - 2 * a10 * l3 + a14 * l4
             + 2 * a13 * l5 + a5""",
    "d6": """4 * a9 * l6 ^ 2 - 4 * a12 * l6
             + 2 * a11 * l8 * l6 + a10 * l8 ^ 2
             - a14 * l8 + a6""",
    "d7": """4 * a10 * l7 ^ 2 - 4 * a13 * l7
             + 2 * a11 * l8 * l7 + a9 * l8 ^ 2
             - a15 * l8 + a7""",
    "d8": """-2 * a14 * l7 - 2 * a15 * l6
             - 2 * a12 * l8 - 2 * a13 * l8
             + 4 * a9 * l6 * l8 + 4 * a10 * l7 * l8
             + a11 * (l8 ^ 2 + 4 * l6 * l7) + a8""",
    "d9": """4 * a12 * l9 + a15 * l11
             - 2 * a11 * (l8 * l9 + l7 * l11)
             + a9 * (1 - 8 * l6 * l9 - 2 * l8 * l11)""",
    "d10": """4 * a13 * l10 + a14 * l11
              - 2 * a11 * (l8 * l10 + l6 * l11)
              + a10 * (1 - 8 * l7 * l10 - 2 * l8 * l11)""",
    "d11": """2 * a14 * l9 + 2 * a15 * l10
              + 2 * a12 * l11 + 2 * a13 * l11
              - a9 * (4 * l8 * l10 + 4 * l6 * l11)
              - a10 * (4 * l8 * l9 + 4 * l7 * l11)
              + a11 * (1 - 4 * l6 * l9 - 4 * l7 * l10
                       - 2 * l8 * l11)""",
    "d12": """0.5 * e_pm * a15 * l14
              - a11 * (l8 / 2 + e_pm * l7 * l14)
              - a9 * (2 * l6 + e_pm * l8 * l14) + a12""",
    "d13": """-2 * a10 * l7 - 0.5 * e_pm * a15 * l14
              + e_pm * a9 * l8 * l14
              + a11 * (e_pm * l7 * l14 - l8 / 2) + a13""",
    "d14": """e_pm * a15 * l14 ^ 2
              - 2 * e_pm * a9 * l8 * l14 ^ 2
              + e_mp * a14 - 2 * e_mp * a10 * l8
              - 2 * exp(-2 * (l12 + l13)) * a11
              * (exp(4 * l13) * l7 * l14 ^ 2
                 + exp(4 * l12) * l6)""",
    "d15": """e_pm * a15 - 2 * e_pm * a11 * l7
              - 2 * e_pm * a9 * l8""",
}
_SHARED = ("e_pm", "e_mp")
_INPUTS = [f"{x}{k}" for x in "al" for k in range(1, N_GENERATORS + 1)]
# the alphas (1-based) that start at +0.0: every one, the flow starts at 0
_EVERY_ALPHA = tuple(range(1, N_GENERATORS + 1))
# the names and numbers each equation reads
_WORDS = {k: set(_EQUATIONS[f"d{k}"].translate(str.maketrans(
    "()+-*/^", " " * 7)).split()) for k in range(1, N_GENERATORS + 1)}


def explicit_rhs(a, alpha):
    """:func:`reference_odes` on Python floats, without checks.

    ``a`` and ``alpha`` are sequences of 15 Python floats and the result is
    a list: every term of every equation of ``_EQUATIONS``, as written,
    compiled on the first call.  A term that overflows (``^`` and ``exp``
    raise OverflowError) turns the whole result into NaN.  It is the
    :func:`flow_rhs` of no zeros.
    """
    return _kernel((None,) * N_GENERATORS, ())(a, alpha)


def flow_rhs(zeros):
    """The flow's right-hand side ``f(a, alpha)`` for one pattern of zeros,
    compiled once per pattern.

    ``zeros`` holds each slot's structural zero, 0.0 or -0.0, and None for
    every other slot (:attr:`.CoefficientSchedule.zeros`).  ``f`` is
    :func:`explicit_rhs` without each additive term with a zero slot as a
    factor and every term of the largest set of alphas that stay at their
    start alpha(0) = +0.0 (a fixed point: alpha1..alpha5 for a Hamiltonian
    with no linear terms).  An equation that is zero for every input is
    its zero literal, or as written where the zero's sign depends on the
    input.  Every other operation keeps its order and association, so on a
    state of the flow, whose pruned alphas are +0.0, each entry is that of
    :func:`explicit_rhs` bit for bit; only a zero's sign may differ, which
    moves no state (y + h 0 = y for every y but -0.0).  A dropped term no
    longer turns an overflow into NaN; the shared exponentials are always
    evaluated.
    """
    # signs, as 0.0 and -0.0 compare and hash equal
    signs = tuple(None if z is None else math.copysign(1.0, z)
                  for z in zeros)
    return _kernel(signs, _EVERY_ALPHA)


@cache
def _trees():
    """Each entry of ``_EQUATIONS`` as an expression tree."""
    return {name: ex.parse_expression(src) for name, src in _EQUATIONS.items()}


def _prune(node, env):
    """The tree ``node`` without its terms that are zero for every input.

    ``env`` maps a name to ``(tree, sign)``, tree None for a zero.  Returns
    ``(tree, sign)``: ``tree`` is None where the whole tree is zero, and
    ``sign`` is the sign bit of the unpruned tree's value, 1.0 or -1.0 where
    it is the same for every input whose other terms are not zero, else
    None.  The signs follow IEEE 754: a sum of zeros is -0.0 only if every
    term is, and x + 0 = x for every x but zero.  An input is finite, so a
    product with a zero factor is zero; the table divides only by nonzero
    numbers, its only powers are squares and its only function is ``exp``.
    """
    def leaf(node):
        if isinstance(node, ex.Num):
            return node if node.value else None, \
                math.copysign(1.0, node.value)
        return env.get(node.name, (node, None))

    def combine(node, first, second=None):
        (left, left_sign), op = first, node.op
        if op == "exp":                 # positive, and 1 at 0
            return ex.Unary("exp", left or ex.Num(0.0)), 1.0
        if op == "neg":
            return left and ex.Unary("neg", left), left_sign and -left_sign
        right, right_sign = second
        if op == "^":
            return left and ex.Binary("^", left, right), 1.0
        if op in "*/":
            sign = left_sign * right_sign if left_sign and right_sign else None
            return left and right and ex.Binary(op, left, right), sign
        if op == "-":                   # a - b is a + (-b)
            right_sign = right_sign and -right_sign
        if left is None and right is None:
            return None, (-1.0 if left_sign == right_sign == -1.0 else
                          1.0 if 1.0 in (left_sign, right_sign) else None)
        if right is None:
            return left, left_sign
        if left is None:
            return right if op == "+" else ex.Unary("neg", right), right_sign
        return ex.Binary(op, left, right), \
            left_sign if left_sign == right_sign else None

    return ex._fold(node, leaf, combine)


# a process that builds schedules of many patterns keeps the latest kernels
@lru_cache(maxsize=64)
def _kernel(signs, still):
    """:func:`flow_rhs` for the signs of the zero slots (None for every
    other slot) and the alphas that start at +0.0 (none: explicit_rhs)."""
    trees = _trees()
    # the shared exponentials stay as written in every equation that reads
    # them, and they are roots, evaluated whether or not an equation does:
    # where one overflows, the stage is NaN as before
    shared = {name: (trees[name], 1.0) for name in _SHARED}
    known = {**shared, **{f"a{k}": (None, sign)
                          for k, sign in enumerate(signs, 1) if sign}}
    held, rates, moved = set(still), {}, set(_INPUTS)
    while moved:
        # drop each alpha whose right-hand side is not zero while the rest
        # hold +0.0, until none is dropped: the largest set that holds; an
        # equation is pruned again where it reads an alpha just dropped
        env = {**known, **{f"l{k}": (None, 1.0) for k in held}}
        rates.update((k, _prune(trees[f"d{k}"], env)) for k in held
                     if _WORDS[k] & moved)
        moved = {k for k in held if rates[k][0] is not None}
        held -= moved
        moved = {f"l{k}" for k in moved}
    roots = [trees[name] for name in _SHARED]
    for k in range(1, N_GENERATORS + 1):
        tree, sign = rates[k] if k in held else _prune(trees[f"d{k}"], env)
        if tree is None:    # zero: as written where its sign is unknown
            tree = _prune(trees[f"d{k}"], shared)[0] if sign is None \
                else ex.Num(math.copysign(0.0, sign))
        roots.append(tree)
    lines, operands = ex.emit(roots, inputs=_INPUTS)
    unpack = [f"{', '.join(_INPUTS[:N_GENERATORS])} = a",
              f"{', '.join(_INPUTS[N_GENERATORS:])} = alpha"]
    return ex.define([*unpack, *lines],
                     f"[{', '.join(operands[len(_SHARED):])}]",
                     args="a, alpha", overflow=f"[_nan] * {N_GENERATORS}")
