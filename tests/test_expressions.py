"""Expression mini-language: grammar, offsets, round trips, compiled closures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadflow.errors import ParseError
from quadflow.expressions import (Binary, Const, Num, Unary, Var, free_names,
                                  parse_expression, pretty, to_callable)


def value_at(src, t):
    return to_callable(parse_expression(src))(t)


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
    assert tree == Unary("neg", Binary("^", Var(), Num(2.0)))


def test_named_constants_and_free_names():
    tree = parse_expression("omega*t + phi0")
    assert free_names(tree) == {"omega", "phi0"}
    assert to_callable(tree, {"omega": 1.5, "phi0": 0.25})(2.0) == 3.25
    with pytest.raises(KeyError):  # a missing constant fails at compile time
        to_callable(tree, {"omega": 1.5})


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


def test_to_callable_matches_python_arithmetic():
    fn = to_callable(parse_expression("0.3*cos(2*t) - t/(1+t^2) + sqrt(t+4)"))
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
        st.just(Var()),
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
