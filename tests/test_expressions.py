"""Expression mini-language: grammar, offsets, round trips, generated code."""

import math
import operator
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadflow.errors import ParseError
from quadflow.expressions import (FUNCTIONS, Binary, Const, Num, Unary,
                                  define, emit, parse_expression, pretty,
                                  straight_line)


def value_at(src, t):
    return define(*straight_line(parse_expression(src)))(t)


def test_basic_arithmetic_example():
    src = "0.5*sin(2*t)+1e-3"
    assert value_at(src, 0.0) == pytest.approx(1e-3)
    assert value_at(src, 0.25) == pytest.approx(0.5 * math.sin(0.5) + 1e-3)


def test_power_is_right_associative():
    assert value_at("2^3^2", 0.0) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert value_at("-2^2", 0.0) == -4.0
    assert value_at("(-2)^2", 0.0) == 4.0
    assert value_at("2^-1", 0.0) == 0.5


def test_function_requires_parentheses_with_byte_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("sin t")
    assert err.value.offset == 4
    assert "(" in err.value.expected


def test_unexpected_character_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("1 + $")
    assert err.value.offset == 4


def test_unbalanced_parenthesis_offset():
    with pytest.raises(ParseError) as err:
        parse_expression("2*(t+1")
    assert err.value.offset == 6
    assert ")" in err.value.expected


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        parse_expression("1+2 3")
    assert err.value.offset == 4


def test_unknown_function_rejected():
    with pytest.raises(ParseError) as err:
        parse_expression("sinh(t)")
    assert err.value.offset == 0


def test_whitespace_insignificant():
    a = parse_expression("1+2 * t")
    b = parse_expression("1 + 2*t")
    assert a == b


def test_precedence_structure():
    tree = parse_expression("1+2*3")
    assert tree == Binary("+", Num(1.0), Binary("*", Num(2.0), Num(3.0)))
    tree = parse_expression("-t^2")
    assert tree == Unary("neg", Binary("^", Const("t"), Num(2.0)))


def test_named_constants_and_free_names():
    tree = parse_expression("phi0 + omega*t*phi0")
    assert define(*straight_line(tree, {"omega": 1.5, "phi0": 0.25}))(2.0) \
        == 1.0
    # missing constants fail at compile time, all of them in one KeyError
    with pytest.raises(KeyError) as err:
        define(*straight_line(tree))
    assert err.value.args == (["omega", "phi0"],)
    with pytest.raises(KeyError) as err:
        straight_line(tree, {"omega": 1.5})
    assert err.value.args == (["phi0"],)
    # t is a name like any other: read when the code runs only where the
    # caller lists it as an input
    with pytest.raises(KeyError) as err:
        emit([tree])
    assert err.value.args == (["omega", "phi0", "t"],)


def test_domain_errors_propagate():
    with pytest.raises(ValueError):
        value_at("ln(t)", -1.0)
    with pytest.raises(ZeroDivisionError):
        value_at("1/t", 0.0)
    with pytest.raises(ValueError):
        value_at("sqrt(t)", -4.0)
    with pytest.raises(ValueError):
        value_at("(-2)^0.5", 0.0)
    with pytest.raises(OverflowError):
        value_at("exp(t)", 1e6)


def test_generated_code_matches_python_arithmetic():
    fn = define(*straight_line(
        parse_expression("0.3*cos(2*t) - t/(1+t^2) + sqrt(t+4)")))
    for t in (0.0, 0.5, 2.5):
        assert fn(t) == pytest.approx(
            0.3 * math.cos(2 * t) - t / (1 + t ** 2) + math.sqrt(t + 4))


CORPUS = [
    "1", "t", "-t", "1+2", "1-2-3", "2*3/4", "2^3^2", "-2^2", "(1+t)*2",
    "sin(t)", "cos(2*t)", "tan(t/4)", "exp(-t)", "ln(1+t)", "sqrt(1+t^2)",
    "neg(t)", "0.5*sin(2*t)+1e-3", "1e-3", "1.5e2", ".5*t", "2.*t",
    "a*t+b", "t^2-2*t+1", "1/(1+t)", "-(1+t)", "-sin(t)", "t*-2",
    "2^-2", "(t+1)^(t+2)", "sin(cos(t))", "exp(t)*exp(-t)",
    "t/2/3", "t-2+3", "((t))", "3*(t-1)^2", "sqrt(exp(ln(1+t)))",
    "omega*t", "A*cos(w*t)+B*sin(w*t)", "1+2+3+4+5", "t*t*t",
    "0.1*t^3", "-t^-2", "(1-t)/(1+t)", "2*pi_c*t", "tan(t)^2",
    "1.25e-4*exp(2*t)", "t^0.5", "5", "-5e-1", "sin(t)*cos(t)",
    "ln(t+3)/ln(2+t)",
]


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip_corpus(src):
    tree = parse_expression(src)
    printed = pretty(tree)
    assert parse_expression(printed) == tree


def _trees(depth):
    leaf = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False).map(Num),
        st.just(Const("t")),
        st.sampled_from(["a", "b", "w0"]).map(Const),
    )
    if depth == 0:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda x: Binary(*x)),
        st.tuples(st.sampled_from(["neg", "sin", "cos", "tan", "exp", "ln",
                                   "sqrt"]), sub).map(lambda x: Unary(*x)),
    )


@settings(max_examples=150, deadline=None)
@given(tree=_trees(3))
def test_round_trip_random_trees(tree):
    assert parse_expression(pretty(tree)) == tree


# -- generated code ---------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": math.pow}


def walk(node, constants, t):
    """The reference interpreter: a recursive walk of the tree."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return t if node.name == "t" else float(constants[node.name])
    if isinstance(node, Unary):
        return FUNCTIONS[node.op](walk(node.arg, constants, t))
    left = walk(node.left, constants, t)
    return _BINARY[node.op](left, walk(node.right, constants, t))


def outcome(fn, *args):
    """The bits of ``fn(*args)`` (any NaN alike), or the type it raises."""
    try:
        value = fn(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def _any_trees(depth):
    leaf = st.one_of(ANY_FLOAT.map(Num), st.just(Const("t")),
                     st.sampled_from(["a", "b"]).map(Const))
    if depth == 0:
        return leaf
    sub = _any_trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(
            lambda x: Binary(*x)),
        st.tuples(st.sampled_from(sorted(FUNCTIONS)), sub).map(
            lambda x: Unary(*x)),
    )


@settings(max_examples=200, deadline=None)
@given(tree=_any_trees(4), a=ANY_FLOAT, b=ANY_FLOAT, t=ANY_FLOAT)
def test_generated_code_equals_the_tree_walk(tree, a, b, t):
    constants = {"a": a, "b": b}
    assert outcome(define(*straight_line(tree, constants)), t) == \
        outcome(walk, tree, constants, t)


@settings(max_examples=200, deadline=None)
@given(x=_any_trees(2), y=_any_trees(2), a=ANY_FLOAT, b=ANY_FLOAT,
       t=ANY_FLOAT)
@example(x=parse_expression("ln(t - 1)"), y=parse_expression("1/(t - t)"),
         a=0.0, b=0.0, t=0.0)
def test_repeated_subtrees_equal_the_tree_walk(x, y, a, b, t):
    # y occurs twice and is computed once, where it first occurs, after x:
    # the code raises what the walk raises first
    tree = Binary("+", Binary("*", x, y), Unary("sin", y))
    constants = {"a": a, "b": b}
    assert outcome(define(*straight_line(tree, constants)), t) == \
        outcome(walk, tree, constants, t)


@pytest.mark.parametrize("srcs", [
    ["sin(w*t)*sin(w*t) + sin(w*t)"],
    ["2*sin(w*t)", "sin(w*t) + 1", "sin(w*t)"],     # across roots
])
def test_a_repeated_operation_is_computed_once(srcs):
    trees = [parse_expression(src) for src in srcs]
    lines, operands = emit(trees, {"w": 1.5}, inputs=("t",))
    assert "".join(lines).count("sin(") == 1
    values = define(lines, f"[{', '.join(operands)}]")(0.7)
    assert [struct.pack("<d", v) for v in values] == \
        [struct.pack("<d", walk(tree, {"w": 1.5}, 0.7)) for tree in trees]


def test_single_use_operations_nest_in_one_line():
    lines, operand = straight_line(parse_expression("-2^t + sin(t*w) - 3"),
                                   {"w": -0.5}, prefix="_x")
    assert lines == ["_x0 = ((-_pow(2.0, t)) + sin(t * -0.5)) - 3.0"]
    assert operand == "_x0"
    assert straight_line(Num(-math.inf)) == ([], "-_inf")
    assert straight_line(Const("t")) == ([], "t")


def test_operations_without_t_fold_to_literals():
    # computed once, by the same function on the same operands
    assert straight_line(parse_expression("m*omega_c^2/8"),
                         {"m": 1.5, "omega_c": 3.0}) \
        == ([], repr(1.5 * math.pow(3.0, 2.0) / 8.0))
    assert straight_line(parse_expression("-C"), {"C": 0.5}) \
        == ([], "-0.5")
    lines, operand = straight_line(parse_expression("exp(-lam)*sin(t)/3"),
                                   {"lam": 0.25}, prefix="_x")
    assert lines == [f"_x0 = ({math.exp(-0.25)!r} * sin(t)) / 3.0"]
    assert operand == "_x0"
    # a zero keeps its sign
    assert straight_line(parse_expression("0*-1")) == ([], "-0.0")


@pytest.mark.parametrize("src, error", [
    ("1/0", ZeroDivisionError), ("exp(1000)", OverflowError),
    ("ln(0)", ValueError), ("(-8)^(1/3)", ValueError)])
def test_an_operation_without_t_that_raises_runs_with_the_code(src, error):
    # it raises where and when the code runs, as the tree walk would
    lines, _ = straight_line(parse_expression(src))
    assert lines
    with pytest.raises(error):
        value_at(src, 0.0)
    with pytest.raises(error):
        value_at(f"t + {src}", 0.0)


def test_an_operation_without_t_that_is_not_finite_runs_with_the_code():
    # and so does every operation over it
    assert straight_line(parse_expression("1e308*10 - 1")) \
        == (["_v0 = (1e+308 * 10.0) - 1.0"], "_v0")
    assert value_at("1e308*10 - 1", 0.0) == math.inf
    assert straight_line(parse_expression("1/(1e308*10)")) \
        == (["_v0 = 1.0 / (1e+308 * 10.0)"], "_v0")
    assert value_at("1/(1e308*10)", 0.0) == 0.0


def _fold(values, op):
    total = values[0]
    for v in values[1:]:
        total = op(total, v)
    return total


DEEP = {
    # chains far past the interpreter's recursion limit: parsing, the
    # constant check and the generated code all run without recursing
    "sum-3000": ("+".join(["t"] * 3000), _fold([0.75] * 3000, operator.add)),
    "pow-3000": ("^".join(["1"] * 3000), 1.0),
    "sin-3000": ("sin(" * 3000 + "t" + ")" * 3000,
                 _fold([0.75] + [None] * 3000, lambda x, _: math.sin(x))),
    "neg-3001": ("-" * 3001 + "t", -0.75),
    "paren-3000": ("(" * 3000 + "t" + ")" * 3000, 0.75),
    "mixed-1000": ("(-sin(t)*" * 1000 + "t" + ")" * 1000, None),
}


def test_deep_expressions_compile_and_evaluate():
    # a deep tree is never compared or printed: the nodes' __eq__ and
    # __repr__ recurse
    for name, (src, expected) in DEEP.items():
        value = define(*straight_line(parse_expression(src)))(0.75)
        if expected is None:   # (-sin(t)*(-sin(t)*(...*t))), inside out
            expected = 0.75
            for _ in range(1000):
                expected = -math.sin(0.75) * expected
        assert value == expected, name


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_trees_print_and_reparse(name):
    # the printed text and the generated code are compared, not the trees
    tree = parse_expression(DEEP[name][0])
    printed = pretty(tree)
    again = parse_expression(printed)
    assert pretty(again) == printed
    assert straight_line(again) == straight_line(tree)


def test_an_unknown_operation_over_a_deep_tree_is_a_type_error():
    deep = parse_expression(DEEP["neg-3001"][0])
    for render in (pretty, straight_line):
        with pytest.raises(TypeError, match="Binary with op '%'"):
            render(Binary("%", deep, Num(1.0)))
