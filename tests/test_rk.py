"""The generated Dormand-Prince attempt: bit for bit against plain loops, and
each way an attempt is rejected."""

import math
import random

import pytest

from quadflow import rk
from quadflow.reduction import explicit_rhs


def _sum_in_order(terms):
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def reference_attempt(f, t, h, y, k1, rtol, atol):
    """The attempt as plain loops over the tableau, every sum in the order
    :func:`quadflow.rk._attempt_source` documents."""
    n = len(y)
    ks = [k1]
    for s in range(1, 7):
        state = [y[i] + h * _sum_in_order([w * k[i] for w, k
                                           in zip(rk._A[s], ks) if w])
                 for i in range(n)]
        k = f(t + rk._C[s] * h, state)
        if not all(map(math.isfinite, k)):
            return math.nan, None, None
        ks.append(k)
    if not all(map(math.isfinite, state)):
        return math.nan, None, None
    total = 0.0
    for i in range(n):
        delta = h * _sum_in_order([w * k[i] for w, k in zip(rk._E, ks) if w])
        r = delta / (atol + rtol * max(abs(y[i]), abs(state[i])))
        total += r * r
    return math.sqrt(total / n), state, tuple(ks)


def _scalar(t, y):
    (v,) = y
    return [math.cos(t) * v - v * v * v]


def _pendulum(t, y):
    return [y[1], -math.sin(y[0]) + 0.1 * math.cos(t)]


def _flow(seed):
    rng = random.Random(1000 + seed)
    a = [rng.uniform(-1.0, 1.0) for _ in range(15)]
    return lambda t, y: explicit_rhs(a, y)


@pytest.mark.parametrize("n, make_f", [(1, lambda seed: _scalar),
                                       (2, lambda seed: _pendulum),
                                       (15, _flow)], ids=["1", "2", "15"])
def test_the_attempt_equals_the_plain_loops_bit_for_bit(n, make_f):
    attempt = rk._attempt(n)
    for seed in range(20):
        rng = random.Random(seed)
        f = make_f(seed)
        t = rng.uniform(-1.0, 1.0)
        y = [rng.uniform(-0.5, 0.5) for _ in range(n)]
        h = 10 ** rng.uniform(-2.0, -0.5)
        k1 = f(t, y)
        err, z, ks = attempt(f, t, h, y, k1, 1e-10, 1e-9)
        ref_err, ref_z, ref_ks = reference_attempt(f, t, h, y, k1, 1e-10,
                                                   1e-9)
        assert math.isfinite(err) and err > 0
        assert (err, z, ks) == (ref_err, ref_z, ref_ks), seed


def _counting(f):
    calls = []

    def counted(t, y):
        calls.append(t)
        return f(t, y)
    return counted, calls


def test_a_non_finite_stage_ends_the_attempt_at_once():
    # the third stage (t + 0.3 h) is the first past t = 0.25: no stage after
    # it is evaluated
    f, calls = _counting(lambda t, y: [math.nan if t > 0.25 else 1.0, 1.0])
    assert rk._attempt(2)(f, 0.0, 1.0, [0.0, 0.0], [1.0, 1.0], 1e-10,
                          1e-10) == rk._REJECT
    assert calls == [0.2, 0.3]
    # one inf among finite entries is enough
    f, calls = _counting(lambda t, y: [1.0, math.inf])
    assert rk._attempt(2)(f, 0.0, 1.0, [0.0, 0.0], [1.0, 1.0], 1e-10,
                          1e-10) == rk._REJECT
    assert len(calls) == 1


def test_a_non_finite_fifth_order_state_rejects():
    # every stage is finite, but y + h (b . k) = 1.7e308 + 1e307 overflows
    f, calls = _counting(lambda t, y: [1e307])
    assert rk._attempt(1)(f, 0.0, 1.0, [1.7e308], [1e307], 1e-10,
                          1e-10) == rk._REJECT
    assert len(calls) == 6


def test_an_error_term_whose_square_overflows_rejects():
    # y' jumps from 0 to 1e100 at t = 0.5, so the scaled error term r is
    # about 6.5e297: float r ** 2 would raise OverflowError, r * r is inf
    def jump(t, y):
        return [1e100 if t > 0.5 else 0.0]

    err, z, ks = rk._attempt(1)(jump, 0.0, 1.0, [0.0], [0.0], 1e-300,
                                1e-300)
    assert math.isfinite(z[0]) and err == math.inf
    assert err == reference_attempt(jump, 0.0, 1.0, [0.0], [0.0], 1e-300,
                                    1e-300)[0]
    # the run rejects such attempts until the step reaches the floor at the
    # jump; it raises nothing
    res = rk.solve(jump, [0.0], 1.0, rtol=1e-300, atol=1e-300)
    assert res.status == "underflow"
    assert 0.5 - 1e-12 < res.t_stop <= 0.5
