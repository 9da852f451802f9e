"""Coefficient expression mini-language: parser, compiler, pretty-printer.

Grammar (whitespace insignificant, byte offsets reported on error):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | IDENT '(' expr ')' | IDENT | '(' expr ')'

``^`` binds tighter than unary minus, so ``-2^2 == -4`` and ``2^3^2 == 512``.
Function application requires parentheses (``sin t`` is a parse error).
Recognised functions: neg, sin, cos, tan, exp, ln, sqrt.  The variable is
``t``; any other bare identifier is a named constant, resolved when the tree
is compiled.

:func:`parse_expression` reads this grammar in one loop over the tokens,
with an operand stack and an operator stack (a function call or a group is
a paren marker on the operator stack that its ``)`` closes), so no depth of
nesting recurses.  :func:`straight_line` generates Python source for a
tree, one assignment per operation on ``t`` (an operation without ``t`` is
computed once, when the code is generated), and reports every missing
named constant at once; :func:`define` compiles such lines into one
function of ``t``, not a tree of closures.  :func:`straight_line` and
:func:`pretty` walk the tree with one explicit stack, so no depth of tree
recurses there either.
"""

from __future__ import annotations

import math
import operator
import re
from typing import NamedTuple

from .errors import ParseError

__all__ = ["Num", "Var", "Const", "Unary", "Binary", "parse_expression",
           "straight_line", "define", "literal", "pretty",
           "FUNCTIONS", "NAMESPACE"]

FUNCTIONS = {
    "neg": lambda x: -x,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


class Num(NamedTuple):
    value: float


class Var:
    """The time variable t: every Var equals every other."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is Var or NotImplemented

    def __hash__(self):
        return hash(Var)

    def __repr__(self):
        return "Var()"


class Const(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # 'neg' or a function name
    arg: object


class Binary(NamedTuple):
    op: str  # + - * / ^
    left: object
    right: object


_TOKEN_RE = re.compile(r"""
    (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(src: str):
    tokens = []  # (kind, text, offset)
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos,
                             expected=("number", "identifier", "operator"))
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


# how tightly each stacked operator holds its operands; a paren marker
# ("(" or "(<function>") holds nothing, so no reduction passes it
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _reduce(operands, operators, floor):
    """Apply the stacked operators that bind at least ``floor`` tightly."""
    while operators and _BINDING.get(operators[-1], 0) >= floor:
        op = operators.pop()
        if op == "neg":
            operands.append(Unary("neg", operands.pop()))
        else:
            right = operands.pop()
            operands.append(Binary(op, operands.pop(), right))


def parse_expression(src: str):
    """Parse ``src`` into an expression tree; ParseError carries the byte offset.

    One loop over the tokens with an operand stack and an operator stack,
    so no depth of nesting recurses.
    """
    tokens = _tokenize(src)
    operands, operators = [], []
    i = 0
    while True:
        # an operand is due: a prefix '-', an opening paren or an atom
        kind, value, offset = tokens[i]
        i += 1
        if kind == "op" and value in "-(":
            operators.append("neg" if value == "-" else "(")
            continue
        if kind == "number":
            operands.append(Num(float(value)))
        elif kind == "ident":
            nxt_kind, nxt_value, nxt_offset = tokens[i]
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset,
                                     expected=tuple(sorted(FUNCTIONS)))
                operators.append("(" + value)
                i += 1
                continue
            if value in FUNCTIONS:
                # function names always take parenthesised arguments
                raise ParseError(
                    f"function {value!r} requires parentheses", nxt_offset,
                    expected=("(",))
            operands.append(Var() if value == "t" else Const(value))
        else:
            raise ParseError(f"unexpected {value or 'end of input'!r}", offset,
                             expected=("number", "identifier", "("))
        # an operator is due: a binary one, a closing paren or the end
        while True:
            kind, value, offset = tokens[i]
            i += 1
            if kind == "op" and value in _BINDING:
                # '^' binds tightest and is right-associative: it reduces
                # nothing, and unary minus stays outside it (-2^2 = -(2^2))
                if value != "^":
                    _reduce(operands, operators, _BINDING[value])
                operators.append(value)
                break
            _reduce(operands, operators, 1)
            if not operators:
                if kind != "eof":
                    raise ParseError(f"trailing input {value!r}", offset,
                                     expected=("end of input",))
                return operands.pop()
            if not (kind == "op" and value == ")"):
                raise ParseError(
                    f"expected ')', found {value or 'end of input'!r}",
                    offset, expected=(")",))
            function = operators.pop()[1:]
            if function:
                operands.append(Unary(function, operands.pop()))


def literal(value) -> str:
    """Python source for the float ``value``, with every bit kept."""
    value = float(value)
    if math.isfinite(value):
        return repr(value)   # float(repr(x)) == x for every finite float
    name = "_inf" if math.isinf(value) else "_nan"
    return name if math.copysign(1.0, value) > 0 else f"-{name}"


# what each binary operation of the generated code computes
_COMPUTE = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv, "^": math.pow}


def _fold(node, leaf, combine):
    """Fold the tree in left-to-right post-order with an explicit stack, so
    no depth of tree recurses: ``leaf(node)`` gives the value of a number,
    ``t`` or a named constant, and ``combine(node, *values)`` that of an
    operation from the values of its operands.  Raises TypeError for
    anything that is not an expression node."""
    values = []
    todo = [(node, False)]
    while todo:
        node, operands_ready = todo.pop()
        if isinstance(node, (Num, Var, Const)):
            values.append(leaf(node))
        elif operands_ready:
            n = 1 if isinstance(node, Unary) else 2
            operands = values[-n:]
            del values[-n:]
            values.append(combine(node, *operands))
        elif isinstance(node, Unary) and node.op in FUNCTIONS:
            todo += [(node, True), (node.arg, False)]
        elif isinstance(node, Binary) and node.op in _COMPUTE:
            todo += [(node, True), (node.right, False), (node.left, False)]
        else:   # named by type and op: the repr of a deep node recurses
            raise TypeError(f"not an expression node: {type(node).__name__}"
                            f" with op {getattr(node, 'op', None)!r}")
    return values.pop()


def straight_line(node, constants=None, prefix="_v"):
    """Generate the tree as straight-line code over the variable ``t``.

    Returns ``(lines, operand)``: one assignment ``<prefix><n> = ...`` per
    operation that depends on ``t``, in left-to-right post-order, and the
    operand (a local, a literal or ``t``) that holds the value.  Numbers and
    named constants become :func:`literal` operands, ``^`` calls
    ``math.pow`` and every other function is its entry of
    :data:`FUNCTIONS`, so the code computes what a walk of the tree would,
    bit for bit, and raises what it would.  An operation without ``t`` is
    computed here, by the same function on the same operands: a finite
    value that raises nothing becomes a literal operand and emits no line,
    and one that raises or is not finite stays a line, so it raises, or
    gives its value, where and when the code runs.  No expression nests,
    whatever the depth of the tree.  Raises one KeyError whose argument is
    the sorted list of the named constants missing from ``constants``.
    """
    constants = constants or {}
    lines, missing = [], set()

    # a value of the fold is a float, a subtree without t computed here, or
    # a str, the operand of a value the code computes
    def leaf(node):
        if isinstance(node, Var):
            return "t"
        if isinstance(node, Num):
            value = node.value
        elif node.name in constants:
            value = float(constants[node.name])
        else:
            missing.add(node.name)
            return node.name
        return value if math.isfinite(value) else literal(value)

    def combine(node, *operands):
        if not any(isinstance(x, str) for x in operands):
            compute = FUNCTIONS[node.op] if isinstance(node, Unary) \
                else _COMPUTE[node.op]
            try:
                value = compute(*operands)
            except (ArithmeticError, ValueError):
                pass
            else:
                if math.isfinite(value):
                    return value
        operands = [x if isinstance(x, str) else literal(x)
                    for x in operands]
        if isinstance(node, Unary):
            (arg,) = operands
            code = f"-{arg}" if node.op == "neg" else f"{node.op}({arg})"
        else:
            left, right = operands
            code = (f"_pow({left}, {right})" if node.op == "^"
                    else f"{left} {node.op} {right}")
        local = f"{prefix}{len(lines)}"
        lines.append(f"{local} = {code}")
        return local

    operand = _fold(node, leaf, combine)
    if missing:
        raise KeyError(sorted(missing))
    return lines, operand if isinstance(operand, str) else literal(operand)


# the names generated code reads besides t
NAMESPACE = {**FUNCTIONS, "_pow": math.pow, "_inf": math.inf,
             "_nan": math.nan}


def define(lines, result):
    """Compile ``def f(t): <lines>; return <result>`` over NAMESPACE."""
    body = "".join(f"    {line}\n" for line in lines)
    scope = {}
    exec(compile(f"def f(t):\n{body}    return {result}\n",
                 "<quadflow expression>", "exec"), dict(NAMESPACE), scope)
    return scope["f"]


# precedence levels for the pretty-printer; a leaf or a function call binds
# tightest, at 4
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2.5, "^": 3}


def pretty(node) -> str:
    """Render the tree; ``parse_expression(pretty(x))`` rebuilds ``x`` exactly."""

    def leaf(node):   # (text, precedence), like every value of the fold
        if isinstance(node, Num):
            return repr(node.value), 4
        return ("t" if isinstance(node, Var) else node.name), 4

    def combine(node, *operands):
        if isinstance(node, Unary) and node.op != "neg":
            return f"{node.op}({operands[0][0]})", 4
        p = _PREC[node.op]
        if isinstance(node, Unary):
            ((inner, q),) = operands
            return (f"-({inner})" if q < p else f"-{inner}"), p
        (lhs, left), (rhs, right) = operands
        # '^' is right-associative: its left operand is parenthesised at
        # equal precedence and its right one is not; the others the reverse
        if left < p or left == p and node.op == "^":
            lhs = f"({lhs})"
        if right < p or right == p and node.op != "^":
            rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}", p

    return _fold(node, leaf, combine)[0]
