"""Coefficient expression mini-language: parser, compiler, pretty-printer.

Grammar (whitespace insignificant, byte offsets reported on error):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | IDENT '(' expr ')' | IDENT | '(' expr ')'

``^`` binds tighter than unary minus, so ``-2^2 == -4`` and ``2^3^2 == 512``.
Function application requires parentheses (``sin t`` is a parse error).
Recognised functions: neg, sin, cos, tan, exp, ln, sqrt.  Any other
identifier, ``t`` included, is a name: the code reads it when it runs only
where the caller of :func:`emit` lists it in ``inputs`` (``t`` for a
schedule); elsewhere it is a named constant, resolved when the tree is
compiled.

:func:`parse_expression` reads this grammar in one loop over the tokens,
with an operand stack and an operator stack (a function call or a group is a
paren marker on the operator stack that its ``)`` closes), so no depth of
nesting recurses.  :func:`emit` is the one code generator: it writes the
Python source of one or more trees over their run-time inputs (``t`` for a
schedule, the coefficients and alphas for the flow's right-hand side), and
reports every missing name at once.  It computes an operation without a
run-time input once, when it generates the code, and an operation that
occurs more than once once, into a local; it writes an operation that occurs
once inline, nested at most ``_DEPTH`` deep, and keeps the tree's
left-to-right post-order, so the code raises what a walk of the tree raises
first.  :func:`define` compiles such lines into one function, not a tree of
closures.  :func:`emit` and :func:`pretty` walk the tree with one explicit
stack, so no depth of tree recurses there either.
"""

from __future__ import annotations

import math
import operator
import re
from typing import NamedTuple

from .errors import ParseError

__all__ = ["Num", "Const", "Unary", "Binary", "parse_expression",
           "emit", "straight_line", "names", "define", "literal", "pretty",
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


class Const(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # 'neg' or a function name
    arg: object


class Binary(NamedTuple):
    op: str  # + - * / ^
    left: object
    right: object


# a token and the whitespace before it, or the first character that
# starts none
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>\S))""", re.VERBOSE)


def _tokenize(src: str):
    tokens = []  # (kind, text, offset)
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}",
                             m.start(kind),
                             expected=("number", "identifier", "operator"))
        tokens.append((kind, m.group(kind), m.start(kind)))
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
            operands.append(Const(value))
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
    """Fold the tree in left-to-right post-order with an explicit stack, so no
    depth of tree recurses: ``leaf(node)`` gives the value of a number or a
    name, and ``combine(node, *values)`` that of an operation from the
    values of its operands.  Raises TypeError for anything that is not an
    expression node."""
    values = []
    todo = [(node, False)]
    while todo:
        node, operands_ready = todo.pop()
        kind = type(node)
        if kind in (Num, Const):
            values.append(leaf(node))
        elif operands_ready:
            if kind is Unary:
                values[-1] = combine(node, values[-1])
            else:
                right = values.pop()
                values[-1] = combine(node, values[-1], right)
        elif kind is Binary and node.op in _COMPUTE:
            todo += ((node, True), (node.right, False), (node.left, False))
        elif kind is Unary and node.op in FUNCTIONS:
            todo += ((node, True), (node.arg, False))
        else:   # named by type and op: the repr of a deep node recurses
            raise TypeError(f"not an expression node: {kind.__name__}"
                            f" with op {getattr(node, 'op', None)!r}")
    return values.pop()


# how deep operations nest inside one line; the operation at this depth
# is a line of its own
_DEPTH = 16
# the operations written with an operator sign, not as a call: one of them
# inside another is in parentheses
_OPERATORS = ("+", "-", "*", "/", "neg")


def emit(roots, constants=None, prefix="_v", inputs=()):
    """Python source for the trees ``roots``: ``(lines, operands)``.

    A name is read when the code runs only where ``inputs`` lists it; every
    other name is looked up in ``constants``.  The ``lines`` assign locals
    ``<prefix><n>``, and ``operands`` holds one operand per root: a local, a
    literal or an input.  ``^`` calls ``math.pow`` and every other function
    is its entry of :data:`FUNCTIONS`, so the code computes what a walk of
    each tree would, bit for bit, and raises what the walk raises first.  An
    operation with no run-time input is computed here: a finite value that
    raises nothing becomes a :func:`literal`; anything else stays an
    operation, which raises or gives its value when the code runs.  Every
    other operation is numbered by its op and its operands' numbers; one
    that occurs more than once is computed once, into a local, where it
    first occurs, and one that occurs once is written inline, in
    parentheses, where it is read.  Each root is a line, and so is an
    operation ``_DEPTH`` deep, after the values before it, so the operations
    run in the walk's left-to-right post-order and no line nests deeper.
    Raises one KeyError listing the names missing from both, sorted.
    """
    constants = constants or {}
    numbers, keys, uses, values, missing = {}, [], [], {}, set()

    # a key is an operand's source, or (op, *the numbers of its operands)
    def number(key, value=None):
        n = numbers.get(key)
        if n is None:
            n = numbers[key] = len(keys)
            keys.append(key)
            uses.append(0)
            for m in key[1:] if isinstance(key, tuple) else ():
                uses[m] += 1
            if value is not None and math.isfinite(value):
                values[n] = value
        return n

    def leaf(node):
        if isinstance(node, Num):
            value = node.value
        elif node.name in inputs:
            return number(node.name)
        elif node.name in constants:
            value = float(constants[node.name])
        else:
            missing.add(node.name)
            return number(node.name)
        return number(literal(value), value)

    def combine(node, *operands):
        if operands[0] in values and operands[-1] in values:
            compute = FUNCTIONS[node.op] if isinstance(node, Unary) \
                else _COMPUTE[node.op]
            try:
                value = compute(*(values[n] for n in operands))
            except (ArithmeticError, ValueError):
                pass
            else:
                if math.isfinite(value):
                    return number(literal(value), value)
        return number((node.op, *operands))

    tops = [_fold(root, leaf, combine) for root in roots]
    if missing:
        raise KeyError(sorted(missing))
    for top in tops:
        uses[top] += 1
    # stack: (number, code, depth), depth 0 for an operand, else how deep
    # the inline code nests; local: number -> the local that holds it
    lines, stack, local = [], [], {}
    todo = [(top, False) for top in reversed(tops)]
    root = set(tops)
    while todo:
        n, ready = todo.pop()
        key = keys[n]
        if isinstance(key, str) or n in local:
            stack.append((n, local.get(n, key), 0))
            continue
        if not ready:
            todo += [(n, True), *[(m, False) for m in key[:0:-1]]]
            continue
        op, args, depth = key[0], [], 1
        for m, code, nest in stack[1 - len(key):]:
            if nest and m in local:     # computed once, here
                code = f"({local[m]} := {code})"
            elif nest and keys[m][0] in _OPERATORS and op in _OPERATORS:
                code = f"({code})"
            args.append(code)
            depth = max(depth, nest + 1)
        del stack[1 - len(key):]
        stack.append((n, f"-{args[0]}" if op == "neg" else
                      f"{op}({args[0]})" if len(args) == 1 else
                      f"_pow({args[0]}, {args[1]})" if op == "^" else
                      f"{args[0]} {op} {args[1]}", depth))
        if n in root or depth == _DEPTH:
            # a line, after every value before it in post-order
            for j, (m, code, nest) in enumerate(stack):
                if nest:
                    local.setdefault(m, f"{prefix}{len(local)}")
                    lines.append(f"{local[m]} = {code}")
                    stack[j] = (m, local[m], 0)
        elif uses[n] > 1:
            local[n] = f"{prefix}{len(local)}"
    return lines, [code for _, code, _ in stack]


def straight_line(node, constants=None, prefix="_v"):
    """:func:`emit` for one tree over ``t``: ``(lines, operand)``."""
    lines, (operand,) = emit([node], constants, prefix, inputs=("t",))
    return lines, operand


def names(node) -> set:
    """Every name that ``node`` reads, ``t`` included."""
    return _fold(node, lambda leaf: {leaf.name} if type(leaf) is Const
                 else set(), lambda node, *operands: set().union(*operands))


# the names generated code reads besides t
NAMESPACE = {**FUNCTIONS, "_pow": math.pow, "_inf": math.inf,
             "_nan": math.nan}


def define(lines, result, args="t", overflow=None):
    """Compile ``def f(<args>): <lines>; return <result>`` over NAMESPACE;
    where ``overflow`` is given, an OverflowError returns it instead."""
    body = [*lines, f"return {result}"]
    if overflow is not None:
        body = ["try:", *(f"    {line}" for line in body),
                "except OverflowError:", f"    return {overflow}"]
    source = "".join(f"    {line}\n" for line in body)
    scope = {}
    exec(compile(f"def f({args}):\n{source}", "<quadflow expression>",
                 "exec"), dict(NAMESPACE), scope)
    return scope["f"]


def pretty(node) -> str:
    """Render the tree; ``parse_expression(pretty(x))`` rebuilds ``x`` exactly."""

    # (text, binding), like every value of the fold: an operator binds as
    # the parser's _BINDING says, and a leaf or a function call at 5
    def leaf(node):
        return (repr(node.value) if isinstance(node, Num) else node.name), 5

    def combine(node, *operands):
        if isinstance(node, Unary) and node.op != "neg":
            return f"{node.op}({operands[0][0]})", 5
        p = _BINDING[node.op]
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
