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
is compiled by :func:`to_callable`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ParseError

__all__ = ["Num", "Var", "Const", "Unary", "Binary", "parse_expression",
           "to_callable", "pretty", "FUNCTIONS"]

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


def to_callable(node, constants=None):
    """Compile the tree to a plain ``f(t) -> float`` closure.

    Raises KeyError for a named constant missing from ``constants``.  The
    closure raises ValueError / ZeroDivisionError / OverflowError on domain
    errors (callers map these to InvalidSchedule).
    """
    constants = dict(constants or {})
    if isinstance(node, Num):
        v = node.value
        return lambda t: v
    if isinstance(node, Var):
        return lambda t: t
    if isinstance(node, Const):
        if node.name not in constants:
            raise KeyError(node.name)
        v = float(constants[node.name])
        return lambda t: v
    if isinstance(node, Unary):
        fn = FUNCTIONS[node.op]
        arg = to_callable(node.arg, constants)
        return lambda t: fn(arg(t))
    if isinstance(node, Binary):
        left = to_callable(node.left, constants)
        right = to_callable(node.right, constants)
        op = node.op
        if op == "+":
            return lambda t: left(t) + right(t)
        if op == "-":
            return lambda t: left(t) - right(t)
        if op == "*":
            return lambda t: left(t) * right(t)
        if op == "/":
            return lambda t: left(t) / right(t)
        if op == "^":
            return lambda t: math.pow(left(t), right(t))
    raise TypeError(f"not an expression node: {node!r}")


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
