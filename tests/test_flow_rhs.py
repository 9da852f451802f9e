"""The flow's compiled right-hand side against the unpruned equations.

``flow_rhs`` drops the terms that a schedule's structural zeros and the
alphas that stay at their start +0.0 make zero; on every state of the flow
it must give the bits of ``explicit_rhs``, zero signs included.  Which
alphas stay at 0 is found here independently, by evaluating
``explicit_rhs``.
"""

import math
import random

import numpy as np
import pytest

from quadflow import flow
from quadflow.flow import integrate
from quadflow.reduction import explicit_rhs, flow_rhs
from quadflow.schedule import PRESETS, CoefficientSchedule


def driven(extra=None):
    """The benchmark's driven schedule at its nominal parameters, plus the
    ``extra`` {slot: source}."""
    return CoefficientSchedule.from_expressions(
        {6: "A*sin(w*t)", 9: "0.5", 10: "0.5", 11: "B*cos(t)", 14: "C",
         15: "-C", **(extra or {})},
        constants=dict(A=0.5, w=2.0, B=0.1, C=0.5))


def signed(values):
    """Each value with its sign bit, so that 0.0 and -0.0 differ."""
    return [(v, math.copysign(1.0, v)) for v in values]


def coefficients(zeros, rng):
    """Coefficients with every zero slot's zero and random others."""
    return [rng.uniform(-2, 2) if z is None else z for z in zeros]


def still(zeros, rng):
    """The largest set of alphas (0-based) whose right-hand sides are zero
    while they are +0.0, their start, by evaluation."""
    held = set(range(15))
    while True:
        moving = set()
        for _ in range(3):
            alpha = [0.0 if k in held else rng.uniform(-2, 2)
                     for k in range(15)]
            rates = explicit_rhs(coefficients(zeros, rng), alpha)
            moving |= {k for k in held if rates[k] != 0}
        if not moving:
            return held
        held -= moving


def assert_bits_equal(zeros, rng, states=20):
    """flow_rhs against explicit_rhs on random states of the flow: the
    held alphas +0.0, every other entry a random number."""
    kernel = flow_rhs(zeros)
    held = still(zeros, rng)
    for _ in range(states):
        a = coefficients(zeros, rng)
        alpha = [0.0 if k in held else rng.uniform(-2, 2) for k in range(15)]
        assert signed(kernel(a, alpha)) == signed(explicit_rhs(a, alpha)), \
            zeros
    return held


def schedules():
    yield "driven", driven()
    yield "landau-field", CoefficientSchedule.preset("landau", E_x=0.3,
                                                     E_y=-0.2)
    for name in PRESETS:
        yield name, CoefficientSchedule.preset(name)


@pytest.mark.parametrize("name, sched", list(schedules()),
                         ids=[name for name, _ in schedules()])
def test_each_schedule_kernel_equals_explicit_rhs_bit_for_bit(name, sched):
    rng = random.Random(name)
    assert_bits_equal(sched.zeros, rng, states=200)
    # the varying slots at their own values along the flow
    kernel = flow_rhs(sched.zeros)
    held = still(sched.zeros, rng)
    for t in (0.0, 0.3, 1.7):
        a = sched.coefficients(t)
        alpha = [0.0 if k in held else rng.uniform(-2, 2) for k in range(15)]
        assert signed(kernel(a, alpha)) == signed(explicit_rhs(a, alpha))


def test_the_driven_kernel_drops_the_equations_of_alpha1_to_alpha5():
    # no linear terms: alpha1..alpha5 start at 0 and stay there, and every
    # other alpha moves
    sched = driven()
    rng = random.Random(5)
    assert still(sched.zeros, rng) == {0, 1, 2, 3, 4}
    # dropped, their entries are +0.0 whatever the input says
    kernel = flow_rhs(sched.zeros)
    for _ in range(20):
        rates = kernel([rng.uniform(-2, 2) for _ in range(15)],
                       [rng.uniform(-2, 2) for _ in range(15)])
        assert signed(rates[:5]) == [(0.0, 1.0)] * 5
        assert all(rates[5:])


def test_a_linear_slot_keeps_its_alphas_moving():
    # a1 moves alpha1 alone; a linear coefficient in x moves alpha2..5 too
    rng = random.Random(6)
    assert still(driven({1: "0.3"}).zeros, rng) == {1, 2, 3, 4}
    assert still(driven({2: "0.3"}).zeros, rng) == set()
    assert_bits_equal(driven({1: "0.3"}).zeros, rng)


def test_random_patterns_equal_explicit_rhs_bit_for_bit():
    # zero slots 0.0 or -0.0 (a literal such as -C*0 folds to -0.0)
    rng = random.Random(20261019)
    for _ in range(300):
        zeros = [rng.choice([0.0, -0.0]) if rng.random() < 0.5 else None
                 for _ in range(15)]
        assert_bits_equal(zeros, rng, states=5)


def test_the_empty_pattern_is_explicit_rhs_bit_for_bit():
    rng = random.Random(7)
    assert assert_bits_equal([None] * 15, rng, states=200) == set()


def test_the_flow_on_the_kernel_equals_the_flow_on_explicit_rhs(
        monkeypatch):
    # the pruned kernel steps through the same states, bit for bit
    def run():
        res = integrate(driven(), 4.0)
        return res.ts.tobytes(), res.alphas.tobytes(), res.breakdown, \
            res.n_rhs

    pruned = run()
    monkeypatch.setattr(flow, "flow_rhs", lambda zeros: explicit_rhs)
    assert run() == pruned


def test_a_dropped_term_no_longer_overflows():
    # a11 = 0 drops d14's term 2 exp(-2 (l12 + l13)) a11 (... + exp(4 l12)
    # l6), whose exp(4 * 180) overflows: explicit_rhs turns the stage into
    # NaN, the kernel does not
    a = [0.0] * 15
    a[8] = a[9] = a[13] = 0.5
    a[14] = -0.5
    alpha = [0.0] * 15
    alpha[11] = 180.0
    kernel = flow_rhs([None if v else 0.0 for v in a])
    assert all(map(math.isnan, explicit_rhs(a, alpha)))
    assert all(map(math.isfinite, kernel(a, alpha)))


def test_the_shared_exponentials_still_overflow():
    # e^{2 alpha12 - 2 alpha13} is evaluated as written in every kernel
    alpha = [0.0] * 15
    alpha[11] = 400.0
    sched = CoefficientSchedule.preset("free")
    rates = flow_rhs(sched.zeros)(sched.coefficients(0.0), alpha)
    assert all(map(math.isnan, rates))


def test_the_kernel_is_compiled_once_per_pattern():
    sched = CoefficientSchedule.preset("landau", m=2.0)
    assert flow_rhs(sched.zeros) \
        is flow_rhs(CoefficientSchedule.preset("landau", m=3.0).zeros)
    assert flow_rhs(sched.zeros) \
        is not flow_rhs(CoefficientSchedule.preset("landau", E_x=0.3).zeros)
    # 0.0 and -0.0 compare equal but are different zeros
    assert flow_rhs([-0.0] * 15) is not flow_rhs([0.0] * 15)


def test_the_kernel_takes_and_returns_lists_of_floats():
    sched = CoefficientSchedule.preset("landau")
    rates = flow_rhs(sched.zeros)(sched.coefficients(0.5),
                                  np.zeros(15).tolist())
    assert type(rates) is list and len(rates) == 15
    assert all(type(v) is float for v in rates)
