"""Coefficient schedules: the compiled evaluator, its error path, pickling."""

import math
import pickle
import struct

import numpy as np
import pytest

from quadflow.config import load_config
from quadflow.errors import InvalidSchedule
from quadflow.expressions import names, parse_expression
from quadflow.schedule import _PRESETS, PRESETS, CoefficientSchedule

TIMES = (0.0, 0.37, 1.5, 2.75, -0.5)

DRIVEN_CFG = """
[hamiltonian]
a6 = A*sin(w*t)
a9 = 0.5
a10 = 0.5
a11 = B*cos(t)
a14 = C
a15 = -C

[constants]
A = 0.5
w = 2.0
B = 0.1
C = 0.5

[run]
t_end = 4.0
"""


def bits(values):
    return [struct.pack("<d", v) for v in values]


def test_coefficients_are_a_list_of_floats():
    sched = CoefficientSchedule.from_expressions({6: "0.5*sin(2*t)", 9: "1"})
    a = sched.coefficients(0.25)
    assert type(a) is list and len(a) == 15
    assert all(type(v) is float for v in a)
    assert a[5] == 0.5 * math.sin(0.5) and a[8] == 1.0
    assert a.count(0.0) == 13


@pytest.mark.parametrize("src, t, detail", [
    # the parent's texts, byte for byte
    ("ln(t-1)", 0.0, "a7 undefined at t = 0.0: math domain error"),
    ("1/(t-t)", 0.0, "a7 undefined at t = 0.0: float division by zero"),
    ("exp(1000*t)", 1.0, "a7 undefined at t = 1.0: math range error"),
    ("1e200*1e200", 0.0, "a7 non-finite at t = 0.0"),
    # 1/(t-t) is computed once, after ln(t-1), which fails first
    ("ln(t-1)*(1/(t-t)) + 1/(t-t)", 0.0,
     "a7 undefined at t = 0.0: math domain error"),
])
def test_invalid_schedule_names_the_coefficient_and_time(src, t, detail):
    sched = CoefficientSchedule.from_expressions({3: "t", 7: src, 9: "0.5"})
    with pytest.raises(InvalidSchedule) as err:
        sched.coefficients(t)
    assert str(err.value) == detail
    assert err.value.coefficient == 7
    assert err.value.time == t


def test_undefined_constants_are_named_in_one_sorted_list():
    with pytest.raises(InvalidSchedule) as err:
        CoefficientSchedule.from_expressions(
            {3: "t", 7: "w*t + k0*sin(w) - k0", 9: "0.5"}, constants={"a": 1.0})
    assert str(err.value) == "a7 references undefined constants ['k0', 'w']"
    assert err.value.coefficient == 7


def test_an_undefined_coefficient_wins_over_an_earlier_non_finite_one():
    # every slot is evaluated before non-finite values are looked for
    sched = CoefficientSchedule.from_expressions({3: "1e200*1e200",
                                                  9: "ln(t-1)"})
    with pytest.raises(InvalidSchedule) as err:
        sched.coefficients(0.0)
    assert str(err.value) == "a9 undefined at t = 0.0: math domain error"


def test_finite_coefficients_whose_sum_overflows_are_returned():
    a = np.zeros(15)
    a[5] = a[8] = 1e308
    sched = CoefficientSchedule.from_expressions(
        dict(enumerate(map(repr, a.tolist()), 1)))
    assert sched.coefficients(0.0) == a.tolist()


def build(name, tmp_path):
    if name == "expressions":   # as a config file gives it
        p = tmp_path / "driven.cfg"
        p.write_text(DRIVEN_CFG)
        return load_config(p).schedule
    if name == "kanai_caldirola-decay":
        return CoefficientSchedule.preset("kanai_caldirola", m=0.7,
                                          omega=1.3, lam=-0.45, hbar=0.5)
    return CoefficientSchedule.preset(name)


@pytest.mark.parametrize("name", ["expressions", *PRESETS,
                                  "kanai_caldirola-decay"])
def test_schedule_pickles_with_the_same_bits(name, tmp_path):
    sched = build(name, tmp_path)
    back = pickle.loads(pickle.dumps(sched))
    assert (back.kind, back.params, back.hbar) == \
        (sched.kind, sched.params, sched.hbar)
    for t in TIMES:
        assert bits(back.coefficients(t)) == bits(sched.coefficients(t))


@pytest.mark.parametrize("name, params, coefficient", [
    ("harmonic1d", dict(omega=1e200), 6),
    ("landau", dict(omega_c=1e200), 6),
    ("landau", dict(E_x=1e300, e=1e10), 2),
    ("free", dict(m=1e-320), 9),
    ("kanai_caldirola", dict(omega=math.inf), 6),
    # exp(inf * 0) is NaN at the check at t = 0
    ("kanai_caldirola", dict(lam=math.inf), 6),
    # a6's math.pow raises, a2 only reads inf: the first that raises is named
    ("landau", dict(omega_c=1e200, E_x=1e300, e=1e10), 6),
])
def test_preset_product_that_is_not_finite_names_its_coefficient(
        name, params, coefficient):
    with pytest.raises(InvalidSchedule) as err:
        CoefficientSchedule.preset(name, **params)
    assert err.value.coefficient == coefficient
    assert str(err.value).startswith(f"{name} preset: a{coefficient} is "
                                     "not finite for ")


def test_kanai_caldirola_computes_its_expressions_with_math_exp():
    m, omega, lam = 0.7, 1.3, 0.45
    sched = CoefficientSchedule.preset("kanai_caldirola", m=m, omega=omega,
                                       lam=lam)
    for t in [*TIMES, *(k / 7 for k in range(-30, 90))]:
        a = sched.coefficients(t)
        assert bits([a[5], a[8]]) == bits([
            0.5 * m * omega ** 2 * math.exp(lam * t),
            math.exp(-lam * t) / (2 * m)])


def test_constructors_refuse_anything_but_15_coefficients():
    with pytest.raises(ValueError, match="exactly 15 coefficient slots"):
        CoefficientSchedule([((), "0.0")] * 14)
    with pytest.raises(ValueError, match="out of range: 16"):
        CoefficientSchedule.from_expressions({16: "1"})


def signed(values):
    return [None if v is None else (v, math.copysign(1.0, v)) for v in values]


def test_zeros_are_the_slots_that_compile_to_the_number_0():
    # an absent slot is 0.0; a slot without t folds to its number, unless
    # it raises or is not finite
    sched = CoefficientSchedule.from_expressions(
        {2: "0.4", 3: "2*C - 1", 6: "sin(2*t)", 8: "0*t", 9: "exp(1000)",
         10: "1e308*10", 14: "-C*0"}, {"C": 0.5})
    expected = [0.0, None, 0.0, 0.0, 0.0, None, 0.0, None, None, None, 0.0,
                0.0, 0.0, -0.0, 0.0]
    assert signed(sched.zeros) == signed(expected)
    vector = [0.0, -0.0, 1.5, -2.5e-300] + [0.0] * 11
    literals = dict(enumerate(map(repr, vector), 1))
    assert signed(CoefficientSchedule.from_expressions(literals).zeros) \
        == signed([0.0, -0.0, None, None] + [0.0] * 11)
    # landau's electric field folds to a zero
    assert CoefficientSchedule.preset("landau").zeros[1:3] == (0.0, 0.0)
    assert CoefficientSchedule.preset("landau", E_x=0.3).zeros[1:3] == \
        (None, 0.0)


@pytest.mark.parametrize("name", sorted(set(PRESETS) - {"kanai_caldirola"}))
def test_a_constant_preset_compiles_to_its_numbers(name):
    # every preset but kanai_caldirola is constant in t: each slot is one
    # literal, and the function returns one list of them
    sched = CoefficientSchedule.preset(name)
    assert all(not lines for lines, _ in sched._slots)
    kanai = CoefficientSchedule.preset("kanai_caldirola")
    assert [k for k, (lines, _) in enumerate(kanai._slots, 1) if lines] \
        == [6, 9]


def test_each_preset_row_reads_exactly_its_parameters():
    # a row's defaults name the constants its expressions read, t aside,
    # and a preset built with no parameters takes every default
    for name, (defaults, sources) in _PRESETS.items():
        read = set().union(*(names(parse_expression(src))
                             for src in sources.values()))
        assert read - {"t"} == set(defaults), name
        assert PRESETS[name] == tuple(defaults)
        assert CoefficientSchedule.preset(name).params == defaults
    assert {name: CoefficientSchedule.preset(name).params
            for name in PRESETS} == {
        "landau": dict(m=1.0, omega_c=1.0, E_x=0.0, E_y=0.0, e=1.0),
        "free": dict(m=1.0), "harmonic1d": dict(m=1.0, omega=1.0),
        "kanai_caldirola": dict(m=1.0, omega=1.0, lam=0.1), "zero": {}}


def test_params_are_the_constants_the_slots_read():
    sched = CoefficientSchedule.from_expressions(
        {6: "A*sin(w*t)", 9: "0.5"}, {"w": 2.0, "t": 9.0, "B": 1.0, "A": 0.5})
    assert sched.params == {"w": 2.0, "A": 0.5}
    landau = CoefficientSchedule.preset("landau", E_y=0.25, m=2.0)
    assert list(landau.params.items()) == [
        ("m", 2.0), ("omega_c", 1.0), ("E_x", 0.0), ("E_y", 0.25), ("e", 1.0)]
