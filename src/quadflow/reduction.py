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
  transcribed term by term, the one copy of them.  :func:`explicit_rhs`
  compiles every term on Python floats, and :func:`reference_odes` is its
  checked ndarray form, one state or a stack of them.  The flow's
  right-hand side, which ``integrate`` calls at every Runge-Kutta stage,
  is :func:`flow_rhs`: the same table compiled once per pattern of zero
  coefficients, without the terms that they and the alphas that stay at 0
  make zero, bit for bit the values of :func:`explicit_rhs` on the flow's
  states.
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

import ast
import collections
import math
import re
from functools import cache, cached_property, lru_cache

import numpy as np

from .adjoint import N_GENERATORS, _adjoint_blocks
from .errors import SingularNu

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


# The paper's flow equations as written, over the coefficients a1..a15 and
# the alphas l1..l15: the two exponentials that several right-hand sides
# share, then alpha_dot_1 .. alpha_dot_15.  Each string fixes its order of
# operations, so keep them as written.
_EQUATIONS = {
    "e_pm": "math.exp(2 * l13 - 2 * l12)",   # e^{2 alpha13 - 2 alpha12}
    "e_mp": "math.exp(2 * l12 - 2 * l13)",   # e^{2 alpha12 - 2 alpha13}
    "d1": """a9 * l2 ** 2 - a4 * l2 + a11 * l3 * l2
             + a10 * l3 ** 2 - a6 * l4 ** 2 - a7 * l5 ** 2
             - a5 * l3 - a8 * l4 * l5 + a1""",
    "d2": """-2 * a12 * l2 - a14 * l3 + 2 * a6 * l4
             + a8 * l5 + a2""",
    "d3": """-a15 * l2 - 2 * a13 * l3 + a8 * l4
             + 2 * a7 * l5 + a3""",
    "d4": """-2 * a9 * l2 - a11 * l3 + 2 * a12 * l4
             + a15 * l5 + a4""",
    "d5": """-a11 * l2 - 2 * a10 * l3 + a14 * l4
             + 2 * a13 * l5 + a5""",
    "d6": """4 * a9 * l6 ** 2 - 4 * a12 * l6
             + 2 * a11 * l8 * l6 + a10 * l8 ** 2
             - a14 * l8 + a6""",
    "d7": """4 * a10 * l7 ** 2 - 4 * a13 * l7
             + 2 * a11 * l8 * l7 + a9 * l8 ** 2
             - a15 * l8 + a7""",
    "d8": """-2 * a14 * l7 - 2 * a15 * l6
             - 2 * a12 * l8 - 2 * a13 * l8
             + 4 * a9 * l6 * l8 + 4 * a10 * l7 * l8
             + a11 * (l8 ** 2 + 4 * l6 * l7) + a8""",
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
    "d14": """e_pm * a15 * l14 ** 2
              - 2 * e_pm * a9 * l8 * l14 ** 2
              + e_mp * a14 - 2 * e_mp * a10 * l8
              - 2 * math.exp(-2 * (l12 + l13)) * a11
              * (math.exp(4 * l13) * l7 * l14 ** 2
                 + math.exp(4 * l12) * l6)""",
    "d15": """e_pm * a15 - 2 * e_pm * a11 * l7
              - 2 * e_pm * a9 * l8""",
}
_SLOTS = range(1, N_GENERATORS + 1)
_RATES = [f"d{k}" for k in _SLOTS]


def _define(name, values, results):
    """Compile ``name(a, alpha)`` over two sequences of 15 floats: it
    assigns ``values`` ({local: source}) in order and returns the list of
    the 15 ``results`` (sources).  An OverflowError (float ``**`` and
    ``math.exp`` raise it) returns 15 NaNs instead, the non-finite stage
    the integrator rejects."""
    body = "".join(f"        {local} = ({src})\n"
                   for local, src in values.items())
    source = (f"def {name}(a, alpha):\n"
              f"    {', '.join(f'a{k}' for k in _SLOTS)} = a\n"
              f"    {', '.join(f'l{k}' for k in _SLOTS)} = alpha\n"
              f"    try:\n{body}"
              f"        return [{', '.join(results)}]\n"
              f"    except OverflowError:\n"
              f"        return [math.nan] * {N_GENERATORS}\n")
    scope = {}
    exec(compile(source, f"<quadflow.reduction {name}>", "exec"),
         {"__name__": __name__, "math": math}, scope)
    return scope[name]


explicit_rhs = _define("explicit_rhs", _EQUATIONS, _RATES)
explicit_rhs.__doc__ = """:func:`reference_odes` on Python floats, without checks.

    ``a`` and ``alpha`` are sequences of 15 Python floats and the result is
    a list: every term of every equation of ``_EQUATIONS``, as written.  A
    term that overflows (float ``**`` and ``math.exp`` raise OverflowError)
    turns the whole result into NaN.  :func:`flow_rhs` compiles the flow's
    right-hand side from the same table.
    """


def flow_rhs(zeros, alpha0=None):
    """The flow's right-hand side ``f(a, alpha)`` for one pattern of zeros,
    compiled once per pattern.

    ``zeros`` holds each coefficient slot's structural zero, 0.0 or -0.0,
    and None for every other slot (:attr:`.CoefficientSchedule.zeros`);
    ``alpha0`` is alpha(0), zeros by default.  ``f`` is
    :func:`explicit_rhs` without two kinds of term: each additive term with
    a zero slot as a factor, and every term of the largest set of alphas
    that start at +0.0 and stay there, because their right-hand sides are
    zero while they are (a fixed point; for a Hamiltonian with no linear
    terms it holds alpha1..alpha5).  An equation that is zero for every
    input is its zero literal; where the zero's sign depends on the input,
    the equation stays as written.  Every other operation keeps its order
    and association, and one that occurs more than once is computed once,
    so on a state of the flow, whose pruned alphas are +0.0, each entry of
    ``f`` is that of :func:`explicit_rhs` bit for bit: only the sign of an
    entry that is zero may differ, which moves no state (y + h 0 = y for
    every y but -0.0).  A dropped term no longer turns an overflow into
    NaN; the shared exponentials are always evaluated.
    """
    # signs, as 0.0 and -0.0 compare and hash equal
    signs = tuple(None if z is None else math.copysign(1.0, z)
                  for z in zeros)
    start = [0.0] * N_GENERATORS if alpha0 is None else alpha0
    still = tuple(k for k, v in enumerate(start, 1)
                  if v == 0 and math.copysign(1.0, v) > 0)
    return _kernel(signs, still)


@cache
def _trees():
    """Each entry of ``_EQUATIONS`` as a Python expression tree."""
    return {name: ast.parse(f"({src})", mode="eval").body
            for name, src in _EQUATIONS.items()}


def _neg(sign):
    """The sign of -x for x of ``sign``, None where unknown."""
    return sign and -sign


_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
            ast.Pow: "**"}
_NAME = re.compile(r"\b[A-Za-z_]")   # a name, not a float's exponent
_PAREN = re.compile(r"[()]")


def _prune(node, env):
    """Python source for the tree ``node`` without its terms that are zero
    for every input, every operation in parentheses.

    ``env`` maps a name to ``(source, sign)``, source None for a name that
    holds a zero.  Returns ``(source, sign)``: ``source`` is None where the
    whole tree is zero, and ``sign`` is the sign bit of the value of the
    unpruned tree, 1.0 or -1.0 where it is the same for every input whose
    other terms are not zero, None where it depends on the input.  The
    signs follow IEEE 754: a sum of zeros is -0.0 only if every term is
    -0.0, and x + 0 = x for every x that is not zero.  An input is finite,
    so a product with a zero factor is zero; the table divides only by
    nonzero numbers, its only powers are squares and its only function is
    ``math.exp``.
    """
    kind = type(node)
    if kind is ast.Name:
        return env.get(node.id, (node.id, None))
    if kind is ast.Constant:
        # a float literal keeps the bits (int operands convert exactly) and
        # takes the interpreter's float-only arithmetic
        return repr(float(node.value)) if node.value else None, \
            math.copysign(1.0, node.value)
    if kind is ast.UnaryOp:             # negation
        operand, sign = _prune(node.operand, env)
        return operand and f"(-{operand})", _neg(sign)
    if kind is ast.Call:                # math.exp: positive, and 1 at 0
        arg, _ = _prune(node.args[0], env)
        return f"math.exp({arg or 0.0})", 1.0
    left, left_sign = _prune(node.left, env)
    right, right_sign = _prune(node.right, env)
    op = _SYMBOLS[type(node.op)]
    if op == "**":
        return left and f"({left} ** {right})", 1.0
    if op in "*/":
        sign = left_sign * right_sign if left_sign and right_sign else None
        return left and right and f"({left} {op} {right})", sign
    if op == "-":                       # a - b is a + (-b)
        right_sign = _neg(right_sign)
    if left is None and right is None:
        return None, (-1.0 if left_sign == right_sign == -1.0 else
                      1.0 if 1.0 in (left_sign, right_sign) else None)
    if right is None:
        return left, left_sign
    if left is None:
        return right if op == "+" else f"(-{right})", right_sign
    return (f"({left} {op} {right})",
            left_sign if left_sign == right_sign else None)


# a process that builds schedules of many patterns keeps the latest kernels
@lru_cache(maxsize=64)
def _kernel(signs, still):
    """:func:`flow_rhs` for the signs of the zero slots (None for every
    other slot) and the alphas that start at +0.0."""
    trees = _trees()
    # the shared exponentials stay as written, whether or not a pruned
    # equation reads them: where one overflows, the stage is NaN as before
    known = {"e_pm": ("e_pm", 1.0), "e_mp": ("e_mp", 1.0)}
    known.update((f"a{k}", (None, sign)) for k, sign in enumerate(signs, 1)
                 if sign is not None)
    held = set(still)
    while True:
        # drop each alpha whose right-hand side is not zero while the rest
        # hold +0.0, until none is dropped: the largest set that holds
        env = {**known, **{f"l{k}": (None, 1.0) for k in held}}
        moving = {k for k in held
                  if _prune(trees[f"d{k}"], env)[0] is not None}
        if not moving:
            break
        held -= moving
    pruned, written, results = {}, {}, []
    for name in _RATES:
        src, sign = _prune(trees[name], env)
        if src is None and sign is not None:
            results.append(repr(math.copysign(0.0, sign)))
            continue
        if src is None:
            written[name] = _EQUATIONS[name]
        else:
            pruned[name] = src
        results.append(name)
    shared = {local: _EQUATIONS[local] for local in ("e_pm", "e_mp")}
    return _define("flow_rhs", {**shared, **_hoisted(pruned), **written},
                   results)


def _hoisted(sources):
    """``sources`` ({local: source of :func:`_prune`}) with each operation
    on a name that occurs more than once computed once, into a local
    ``_s<n>`` of its own ahead of them: the same operation on the same
    operands, so the same bits.

    Every operation of such a source is in parentheses, so a text that
    opens with an operation's parenthesis and closes with its match is that
    operation wherever it occurs.  The hoisted locals are defined shortest
    first, each over the ones before it, and replaced longest first.
    """
    counts = collections.Counter()
    for src in sources.values():
        opened = []
        for paren in _PAREN.finditer(src):
            if paren.group() == "(":
                opened.append(paren.start())
                continue
            start, end = opened.pop(), paren.end()
            # not a call's parenthesis, nor an operation on numbers alone,
            # which the compiler folds
            if not src[start - 1:start].isalnum() \
                    and _NAME.search(src, start, end):
                counts[src[start:end]] += 1
    repeated = sorted((text for text, n in counts.items() if n > 1), key=len)
    names, hoisted = {}, {}
    for k, text in enumerate(repeated):
        names[text] = f"_s{k}"
        hoisted[names[text]] = _replaced(text, repeated[:k], names)
    return {**hoisted, **{local: _replaced(src, repeated, names)
                          for local, src in sources.items()}}


def _replaced(src, texts, names):
    """``src`` with each of ``texts`` replaced by its name, longest first."""
    for text in reversed(texts):
        src = src.replace(text, names[text])
    return src
