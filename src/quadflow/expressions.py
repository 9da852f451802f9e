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
is compiled.  :func:`to_callable` compiles a tree to generated Python source:
one straight-line function with an assignment per operation (see
:func:`straight_line`), not a tree of closures.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError

__all__ = ["Num", "Var", "Const", "Unary", "Binary", "parse_expression",
           "to_callable", "straight_line", "define", "literal", "pretty",
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


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass  # the time variable t


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a function name
    arg: object


@dataclass(frozen=True)
class Binary:
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


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text):
        kind, value, offset = self.peek()
        if kind == "op" and value == text:
            return self.advance()
        raise ParseError(f"expected {text!r}, found {value or 'end of input'!r}",
                         offset, expected=(text,))

    def parse(self):
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {value!r}", offset,
                             expected=("end of input",))
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Binary(value, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Binary(value, node, self.factor())
            else:
                return node

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Binary("^", base, self.factor())
        return base

    def atom(self):
        kind, value, offset = self.advance()
        if kind == "number":
            return Num(float(value))
        if kind == "ident":
            nxt_kind, nxt_value, nxt_offset = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", offset,
                                     expected=tuple(sorted(FUNCTIONS)))
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(value, arg)
            if value in FUNCTIONS:
                # function names always take parenthesised arguments
                raise ParseError(
                    f"function {value!r} requires parentheses", nxt_offset,
                    expected=("(",))
            if value == "t":
                return Var()
            return Const(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {value or 'end of input'!r}", offset,
                         expected=("number", "identifier", "("))


def parse_expression(src: str):
    """Parse ``src`` into an expression tree; ParseError carries the byte offset."""
    return _Parser(src).parse()


def free_names(node) -> set:
    """Named constants appearing in the tree (the variable t excluded)."""
    if isinstance(node, Const):
        return {node.name}
    if isinstance(node, Unary):
        return free_names(node.arg)
    if isinstance(node, Binary):
        return free_names(node.left) | free_names(node.right)
    return set()


def literal(value) -> str:
    """Python source for the float ``value``, with every bit kept."""
    value = float(value)
    if math.isfinite(value):
        return repr(value)   # float(repr(x)) == x for every finite float
    name = "_inf" if math.isinf(value) else "_nan"
    return name if math.copysign(1.0, value) > 0 else f"-{name}"


_BINARY_OPS = ("+", "-", "*", "/", "^")


def straight_line(node, constants=None, prefix="_v"):
    """Generate the tree as straight-line code over the variable ``t``.

    Returns ``(lines, operand)``: one assignment ``<prefix><n> = ...`` per
    operation, in left-to-right post-order, and the operand (a local, a
    literal or ``t``) that holds the value.  Numbers and named constants
    become :func:`literal` operands, ``^`` calls ``math.pow`` and every
    other function is its entry of :data:`FUNCTIONS`, so the code computes
    what a walk of the tree would, bit for bit, and raises what it would.
    No expression nests, whatever the depth of the tree.  Raises KeyError
    for a named constant missing from ``constants``.
    """
    constants = constants or {}
    lines, operands = [], []
    todo = [(node, False)]   # an explicit stack: deep trees do not recurse
    while todo:
        node, operands_ready = todo.pop()
        if isinstance(node, Num):
            operands.append(literal(node.value))
        elif isinstance(node, Var):
            operands.append("t")
        elif isinstance(node, Const):
            operands.append(literal(constants[node.name]))
        elif not operands_ready:
            if not (isinstance(node, Unary) and node.op in FUNCTIONS
                    or isinstance(node, Binary) and node.op in _BINARY_OPS):
                raise TypeError(f"not an expression node: {node!r}")
            todo.append((node, True))
            if isinstance(node, Binary):
                todo.append((node.right, False))
                todo.append((node.left, False))
            else:
                todo.append((node.arg, False))
        else:
            if isinstance(node, Unary):
                arg = operands.pop()
                code = f"-{arg}" if node.op == "neg" else f"{node.op}({arg})"
            else:
                right, left = operands.pop(), operands.pop()
                code = (f"_pow({left}, {right})" if node.op == "^"
                        else f"{left} {node.op} {right}")
            local = f"{prefix}{len(lines)}"
            lines.append(f"{local} = {code}")
            operands.append(local)
    return lines, operands.pop()


# the names generated code reads besides t
NAMESPACE = {**FUNCTIONS, "_pow": math.pow, "_inf": math.inf,
             "_nan": math.nan}


def define(lines, result, namespace=NAMESPACE):
    """Compile ``def f(t): <lines>; return <result>`` over ``namespace``."""
    body = "".join(f"    {line}\n" for line in lines)
    scope = {}
    exec(compile(f"def f(t):\n{body}    return {result}\n",
                 "<quadflow expression>", "exec"), dict(namespace), scope)
    return scope["f"]


def to_callable(node, constants=None):
    """Compile the tree to a plain ``f(t) -> float`` function of
    :func:`straight_line` code.

    Raises KeyError for a named constant missing from ``constants``.  The
    function raises ValueError / ZeroDivisionError / OverflowError on
    domain errors (callers map these to InvalidSchedule).
    """
    return define(*straight_line(node, constants))


# precedence levels for the pretty-printer
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2.5, "^": 3}


def _prec(node) -> float:
    if isinstance(node, Binary):
        return _PREC[node.op]
    if isinstance(node, Unary) and node.op == "neg":
        return _PREC["neg"]
    return 4.0


def pretty(node) -> str:
    """Render the tree; ``parse_expression(pretty(x))`` rebuilds ``x`` exactly."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = pretty(node.arg)
            if _prec(node.arg) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({pretty(node.arg)})"
    if isinstance(node, Binary):
        lhs, rhs = pretty(node.left), pretty(node.right)
        p = _PREC[node.op]
        if node.op == "^":
            # right-associative: parenthesise the left at equal precedence
            if _prec(node.left) <= p:
                lhs = f"({lhs})"
            if _prec(node.right) < p:
                rhs = f"({rhs})"
        else:
            if _prec(node.left) < p:
                lhs = f"({lhs})"
            if _prec(node.right) <= p:
                rhs = f"({rhs})"
        return f"{lhs}{node.op}{rhs}"
    raise TypeError(f"not an expression node: {node!r}")
