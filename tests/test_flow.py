"""Flow integration: closed-form oracle, breakdown, schedule handling."""

import math
import random
import re
import warnings

import numpy as np
import pytest

from quadflow import flow, rk
from quadflow.errors import (InvalidSchedule, SingularNu, SingularTime,
                             StepBudget, StepUnderflow)
from quadflow.flow import (constant_field_closed_form, integrate,
                           write_alphas_csv)
from quadflow.observables import heisenberg_map
from quadflow.oracles import fundamental_matrix
from quadflow.reduction import assemble
from quadflow.schedule import CoefficientSchedule


def landau(E_x=0.0, E_y=0.0):
    return CoefficientSchedule.preset("landau", m=1.0, omega_c=1.0, E_x=E_x,
                                      E_y=E_y, e=1.0)


def driven(A=0.5, w=2.0, B=0.1, C=0.5):
    """The benchmark's driven schedule at its nominal parameters."""
    return CoefficientSchedule.from_expressions(
        {6: "A*sin(w*t)", 9: "0.5", 10: "0.5", 11: "B*cos(t)", 14: "C",
         15: "-C"}, constants=dict(A=A, w=w, B=B, C=C))


def test_zero_schedule_stays_at_origin():
    res = integrate(CoefficientSchedule.preset("zero"), 3.0)
    assert res.breakdown is None
    assert np.max(np.abs(res.alphas)) == 0.0


def test_pure_magnetic_quarter_period_values():
    res = integrate(landau(), math.pi / 2)
    al = res.alphas[-1]
    s2 = math.sqrt(2) / 2
    expected = np.zeros(15)
    expected[5] = expected[6] = 0.25            # (m wc / 4) tan(pi/4)
    expected[8] = expected[9] = s2 * s2         # cos*sin at pi/4
    expected[11] = math.log(s2)
    expected[13] = 0.5
    expected[14] = -1.0
    np.testing.assert_allclose(al, expected, atol=1e-8)


def test_integration_tracks_closed_form_with_electric_field():
    res = integrate(landau(E_x=0.3, E_y=-0.2), 2.8)
    ref = constant_field_closed_form(1.0, 1.0, 0.3, -0.2, 1.0, t=res.ts)
    assert np.max(np.abs(res.alphas - ref)) < 1e-6


def test_closed_form_zero_time_and_alpha2_value():
    assert np.max(np.abs(constant_field_closed_form(1.0, 1.0, 0.3, -0.2,
                                                    t=0.0))) == 0.0
    t, Ex, Ey, wc, e = 1.0, 0.3, -0.2, 1.0, 1.0
    a2 = (-e * Ey / (2 * wc) + e * Ex * t / 2
          + e / (2 * wc) * (Ex * math.sin(wc * t) + Ey * math.cos(wc * t)))
    got = constant_field_closed_form(1.0, wc, Ex, Ey, e, t=t)[1]
    assert abs(got - a2) < 1e-15
    res = integrate(landau(E_x=Ex, E_y=Ey), t)
    assert abs(res.alphas[-1, 1] - a2) < 1e-6


def test_closed_form_singular_time():
    with pytest.raises(SingularTime):
        constant_field_closed_form(1.0, 1.0, t=math.pi)
    # the detail holds plain floats, not numpy scalar reprs
    with pytest.raises(SingularTime, match=r"max \|omega_c\*t\| = 3\.5, "
                       r"cos\(omega_c\*t/2\) = -0\.178246055649492\d*$"):
        constant_field_closed_form(1.0, 1.0, t=3.5)
    with pytest.raises(SingularTime):
        constant_field_closed_form(1.0, 0.0, t=0.5)
    with pytest.raises(SingularTime):  # omega_c ** 3 underflows to zero
        constant_field_closed_form(1.0, 1e-300, 0.3, t=0.5)


@pytest.mark.parametrize("t", [3.5 * math.pi, -3.5 * math.pi, 4 * math.pi])
def test_closed_form_raises_past_the_first_branch(t):
    # cos(t/2) is positive again on (3 pi, 5 pi), but the tan/log branch
    # of the closed form ended at |omega_c t| = pi
    with pytest.raises(SingularTime):
        constant_field_closed_form(1.0, 1.0, t=t)
    with pytest.raises(SingularTime):
        constant_field_closed_form(1.0, 1.0, 0.3, -0.2, t=[0.5, t])


@pytest.mark.parametrize("omega_c", [1e-6, 1e-8, 1e-20])
def test_closed_form_keeps_its_accuracy_at_small_omega_c(omega_c):
    # the O(1/omega_c**k) terms must not cancel as omega_c -> 0
    sched = CoefficientSchedule.preset("landau", m=1.0, omega_c=omega_c,
                                       E_x=0.3, E_y=-0.2, e=1.0)
    res = integrate(sched, 2.5)
    ref = constant_field_closed_form(1.0, omega_c, 0.3, -0.2, 1.0, t=res.ts)
    assert np.max(np.abs(res.alphas - ref)) < 1e-6
    # the constant-force limit omega_c -> 0: alpha1 = e^2 E^2 t^3 / (6 m)
    t = res.ts[-1]
    assert ref[-1, 0] == pytest.approx(0.13 * t ** 3 / 6, rel=1e-12)


def test_breakdown_at_first_factorization_pole():
    # e^{2 alpha12} = cos^2(t / 2) falls to the chart bound at
    # 2 acos(sqrt(eps)), where the flow stops; the breakdown reports the
    # pole pi of that double root
    res = integrate(landau(), 3.5)
    assert res.breakdown is not None
    assert abs(res.breakdown.t_break - math.pi) < 1e-4
    assert res.breakdown.index == 12
    assert res.breakdown.reason == "chart-end"
    t_stop = 2 * math.acos(math.sqrt(flow._CHART_EPS))
    assert res.ts[-1] == pytest.approx(t_stop, abs=1e-9)
    assert res.ts[-1] < res.breakdown.t_break
    assert np.all(np.diff(res.ts) > 0)


def test_driven_schedule_breaks_down_by_chart_end_at_alpha12():
    res = integrate(driven(), 4.0)
    assert res.breakdown is not None
    assert res.breakdown.reason == "chart-end"
    assert res.breakdown.index == 12
    assert 1.2 < res.ts[-1] < res.breakdown.t_break < 4.0


def test_the_sentinel_forms_no_flow_rhs(monkeypatch):
    # the det(nu) sentinel reads nu alone: with the solve for mu = nu^-1 w
    # unavailable, a driven flow still runs to its chart-end
    def no_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    res = integrate(driven(), 4.0)
    assert res.breakdown.reason == "chart-end"


# the four driven inputs of the benchmark at seed 7: (A, w, B, C)
DRIVEN_SEED7 = [
    (0.4816689768502123, 2.0713557765319788, 0.09860691781803409,
     0.49017633716161685),
    (0.5033938278132276, 2.0549585047390506, 0.10118146047179884,
     0.493277161912882),
    (0.5240550701182386, 2.0331183315006958, 0.0995056144301944,
     0.5245856989430356),
    (0.5187015254338632, 1.9112113783012024, 0.10409089628109483,
     0.5055041674977728),
]


@pytest.mark.parametrize("params", DRIVEN_SEED7)
def test_a_driven_stop_writes_the_classical_map_and_reports_its_pole(params):
    # the last written row is the classical map to the verify tolerance,
    # and t_break is the root of S00 = e^{2 alpha12}, bisected on the
    # classical fundamental matrix
    sched = driven(*params)
    res = integrate(sched, 4.0)
    t_stop, t_break = float(res.ts[-1]), res.breakdown.t_break
    m = heisenberg_map(res.alphas[-1])
    S, d = fundamental_matrix(sched, t_stop)
    assert max(np.max(np.abs(m.S - S)), np.max(np.abs(m.d - d))) < 1e-6
    lo, hi = t_stop, t_break + 2 * (t_break - t_stop)
    assert fundamental_matrix(sched, hi)[0][0, 0] < 0 < S[0, 0]
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if fundamental_matrix(sched, mid)[0][0, 0] > 0:
            lo = mid
        else:
            hi = mid
    assert abs(t_break - 0.5 * (lo + hi)) < 1e-6


def _last_step_end(dense):
    # the last step's polynomial at x = 1
    return dense.y0[-1] + dense.h[-1] * dense.q[-1].sum(axis=1)


def test_integrate_runs_the_assemble_sentinel_on_every_accepted_step(
        monkeypatch):
    # quadflow.flow.assemble is the det(nu) sentinel (and the call site the
    # benchmark tracer wraps): it sees the end state of every accepted step
    # the chart clause passes, in stacks; on the driven flow the chart
    # clause refuses the last step's end first, so the sentinel refuses none
    rows, refused = [], []
    real = flow.assemble

    def counting(a, alpha):
        rows.extend(map(tuple, np.reshape(alpha, (-1, 15))))
        try:
            return real(a, alpha)
        except SingularNu:
            refused.append(1)
            raise

    monkeypatch.setattr(flow, "assemble", counting)
    for sched, t_end in ((landau(E_x=0.3, E_y=-0.2), 2.5), (driven(), 4.0)):
        rows.clear()
        res = integrate(sched, t_end)
        d = res.dense
        assert d.t0.size > 0
        # each step's end state is the next one's start, bit for bit; the
        # last one's is its polynomial at x = 1, to rounding
        assert set(map(tuple, d.y0[1:])) <= set(rows)
        end = _last_step_end(d)
        if res.breakdown is None:
            assert np.min(np.max(np.abs(np.array(rows) - end), axis=1)) \
                <= 1e-12 * max(1.0, np.max(np.abs(end)))
        else:
            assert flow._chart(end) < flow._CHART_EPS
            assert np.min(flow._chart(np.array(rows))) >= flow._CHART_EPS
    assert not refused


@pytest.mark.parametrize("sched, t_end", [(landau(), 3.5), (driven(), 4.0)])
def test_sentinel_halt_brackets_the_first_refused_state(sched, t_end):
    # with one-state checks, whatever stacks the flow checked: every
    # accepted end state before the last passes both clauses, the state at
    # the stop passes, and the last step's end state fails the chart clause
    res = integrate(sched, t_end)
    d = res.dense
    assert res.breakdown.reason == "chart-end"
    for alpha in [*d.y0[1:], res.interpolate(res.ts[-1])]:
        assert flow._chart(alpha) >= flow._CHART_EPS
        assemble(np.zeros(15), alpha)
    assert flow._chart(_last_step_end(d)) < flow._CHART_EPS


def test_coefficient_failing_past_the_sentinel_halt_keeps_the_breakdown():
    # the stepper runs past the first refused step until its chunk is
    # checked; a coefficient that is not finite from just past that step's
    # end on must not turn the driven breakdown into an InvalidSchedule
    plain = integrate(driven(), 4.0)
    t_end_step = float(plain.dense.t0[-1] + plain.dense.h[-1])
    sched = CoefficientSchedule.from_expressions(
        {6: "A*sin(w*t)", 9: "0.5", 10: "0.5",
         11: "B*cos(t) + 0*sqrt(T - t)", 14: "C", 15: "-C"},
        constants=dict(A=0.5, w=2.0, B=0.1, C=0.5, T=t_end_step + 1e-9))
    with pytest.raises(InvalidSchedule):
        sched.coefficients(t_end_step + 2e-9)
    res = integrate(sched, 4.0)
    assert res.breakdown == plain.breakdown
    np.testing.assert_array_equal(res.alphas, plain.alphas)


def test_schedule_is_evaluated_once_per_rhs_evaluation(monkeypatch):
    # the predicate reads no coefficients, so the schedule runs once per
    # right-hand side (the pole estimate's three among them) and never for
    # the bisection's probes
    calls = []
    real = CoefficientSchedule.coefficients

    def counting(self, t):
        calls.append(t)
        return real(self, t)

    monkeypatch.setattr(CoefficientSchedule, "coefficients", counting)
    broke = []
    for sched, t_end in ((landau(E_x=0.3, E_y=-0.2), 2.5), (driven(), 4.0)):
        calls.clear()
        res = integrate(sched, t_end)
        assert len(calls) == res.n_rhs > 0
        broke.append(res.breakdown is not None)
    assert broke == [False, True]   # the driven halt bisects the sentinel


def test_solve_halts_at_the_last_state_check_passes():
    # y' = 1 from 0 with check t < 0.3737: one accepted step straddles the
    # limit, and the run stops inside it instead of shrinking h to the floor
    res = rk.solve(lambda t, y: [1.0], [0.0], 1.0,
                   check=lambda ts, ys: int(np.sum(ts < 0.3737)))
    assert res.status == "refused"
    assert 0.3737 - 1e-12 <= res.t_stop < 0.3737
    assert res.y_stop[0] == pytest.approx(res.t_stop, abs=1e-15)
    np.testing.assert_array_equal(res.dense(res.t_stop), res.y_stop)
    # the run evaluates one chunk of steps, every attempt accepted, and
    # drops the ones past the refused step
    assert res.dense.t0.size == 22
    assert res.n_rhs == 2 + 6 * rk._CHUNK


def _unit_slope(t, y):
    return [1.0]


def _step_ends():
    # end times of the steps y' = 1 takes on [0, 1]: steps of 0.02, the cap
    # t_end / 50, after a ramp from 1e-4, so the 32-step chunks run 0-31,
    # 32-52
    res = rk.solve(_unit_slope, [0.0], 1.0)
    return res.dense.t0 + res.dense.h


@pytest.mark.parametrize("index", [31, 32])
def test_solve_halts_in_a_refused_step_at_a_chunk_boundary(index):
    # the 32nd step closes the first chunk and the 33rd opens the second
    ends = _step_ends()
    limit = 0.5 * (ends[index - 1] + ends[index])
    res = rk.solve(_unit_slope, [0.0], 1.0,
                   check=lambda ts, ys: int(np.sum(ts < limit)))
    assert res.status == "refused"
    assert res.dense.t0.size == index + 1
    np.testing.assert_array_equal(res.dense.t0 + res.dense.h,
                                  ends[:index + 1])
    assert limit - 1e-12 <= res.t_stop < limit
    # the first refused state is that step's end, y = t past the limit
    assert res.y_refused[0] == pytest.approx(ends[index], abs=1e-15)


def test_solve_returns_a_pending_refusal_when_f_raises_later():
    def f(t, y):
        if t > 0.45:
            raise ValueError("past the refusal")
        return [1.0]

    res = rk.solve(f, [0.0], 1.0,
                   check=lambda ts, ys: int(np.sum(ts < 0.3737)))
    assert res.status == "refused"
    assert 0.3737 - 1e-12 <= res.t_stop < 0.3737


def test_solve_reraises_an_error_of_f_when_nothing_is_refused():
    error = ValueError("not refused")

    def f(t, y):
        if t > 0.45:
            raise error
        return [1.0]

    with pytest.raises(ValueError) as excinfo:
        rk.solve(f, [0.0], 1.0,
                 check=lambda ts, ys: int(np.sum(ts < 0.6)))
    assert excinfo.value is error


def test_a_rejected_attempt_keeps_the_first_stage_of_the_next():
    # the last stage of an accepted step is the first of the next attempt
    # (FSAL), also after rejected attempts, whose last stages are discarded.
    # y' = -50 (y - cos t) rejects steps all along; the error stays at the
    # tolerance (a rejected attempt's last stage reused as the first gave
    # 2.4e-7)
    k = 50.0

    def exact(t):
        return (k * (k * math.cos(t) + math.sin(t))
                - k * k * math.exp(-k * t)) / (k * k + 1)

    res = rk.solve(lambda t, y: [-k * (y[0] - math.cos(t))], [0.0], 10.0,
                   rtol=1e-8, atol=1e-8)
    assert res.status == "done"
    ts = np.linspace(0.0, 10.0, 1001)
    assert np.max(np.abs(res.dense(ts)[:, 0] - np.vectorize(exact)(ts))) \
        < 2e-8
    # a squeeze a12 = -1e10 overflows a stage of each of the first six
    # attempts, the last stage each evaluates; reused as the first stage of
    # the next attempt, it left every later attempt non-finite: a
    # step-underflow at t = 0 instead of the chart-end at ln(1e3) / 2e10
    res = integrate(CoefficientSchedule.from_expressions(
        {6: "0.5", 9: "0.5", 12: "-1e10"}), 1.0)
    assert res.breakdown.reason == "chart-end"
    assert res.breakdown.index == 12
    assert res.breakdown.t_break == pytest.approx(math.log(1e3) / 2e10,
                                                  rel=1e-2)


def test_solve_accepts_finite_stages_whose_sum_overflows():
    # 32 entries of 6e306 sum past the float range, while every stage
    # combination of the tableau stays finite (with entries of 1e308 the
    # combinations would overflow themselves); y' = 6e306 is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rk.solve(lambda t, y: [6e306] * 32, np.zeros(32), 1.0,
                       atol=1e306)
    assert res.status == "done" and res.t_stop == 1.0
    np.testing.assert_allclose(res.y_stop, 6e306, rtol=1e-12)


def test_solve_rejects_a_stage_with_one_nan():
    # the second entry turns NaN past t = 0.5: every step across it is
    # rejected until h falls to the floor there
    res = rk.solve(lambda t, y: [1.0, math.nan if t > 0.5 else 1.0],
                   [0.0, 0.0], 1.0)
    assert res.status == "underflow"
    assert 0.5 - 1e-12 < res.t_stop <= 0.5
    assert np.all(np.isfinite(res.dense.q))
    # each rejected attempt stops at its first non-finite stage
    assert (res.n_rhs, res.dense.t0.size) == (548, 63)


def test_driven_sentinel_halt_is_certified_and_cheap(monkeypatch):
    # the flow stops on the last state the predicate passes, at the cost of
    # one bisection and the pole estimate's three right-hand sides, not of
    # a sawtooth of refused six-stage steps
    stops = []
    real_solve = rk.solve

    def solve(*args, **kwargs):
        stops.append(real_solve(*args, **kwargs))
        return stops[-1]

    monkeypatch.setattr(rk, "solve", solve)
    sched = driven()
    first, second = integrate(sched, 4.0), integrate(sched, 4.0)
    y_stop, t_stop = stops[0].y_stop, stops[0].t_stop
    assert first.breakdown.reason == "chart-end"
    assert first.ts[-1] == t_stop < first.breakdown.t_break
    assert flow._chart(y_stop) >= flow._CHART_EPS
    assemble(sched.coefficients(t_stop), y_stop)  # passes det(nu) = 1
    np.testing.assert_array_equal(first.interpolate(t_stop), y_stop)
    np.testing.assert_array_equal(first.alphas[-1], y_stop)
    assert first.n_rhs == stops[0].n_rhs + 3
    assert first.n_rhs <= 6.5 * first.dense.t0.size
    assert second.breakdown == first.breakdown
    assert second.n_rhs == first.n_rhs
    np.testing.assert_array_equal(second.ts, first.ts)
    np.testing.assert_array_equal(second.alphas, first.alphas)


@pytest.mark.parametrize("params", [
    {}, dict(A=0.51, w=1.96), dict(B=0.104, C=0.49),
    dict(A=0.49, w=2.04, C=0.51)])
def test_a_refused_stack_is_located_without_one_state_calls(monkeypatch,
                                                            params):
    # one check per stack locates its first refused row, so the only
    # one-row checks left are the bisection's probes; assemble sees one
    # row only for a probe that the chart clause passes
    one_row, checks, probes = [], [], []
    real_assemble, real_crossing = flow.assemble, rk._crossing
    real_solve = rk.solve

    def counting(a, alpha):
        if np.size(alpha) == 15:
            one_row.append(alpha)
        return real_assemble(a, alpha)

    def solve(*args, check, **kwargs):
        def counted(ts, ys):
            checks.append(len(ys))
            return check(ts, ys)
        return real_solve(*args, check=counted, **kwargs)

    def crossing(t0, h, y0, q, ok, span):
        def counted(t, y):
            probes.append(t)
            return ok(t, y)
        return real_crossing(t0, h, y0, q, counted, span)

    monkeypatch.setattr(flow, "assemble", counting)
    monkeypatch.setattr(rk, "solve", solve)
    monkeypatch.setattr(rk, "_crossing", crossing)
    res = integrate(driven(**params), 4.0)
    assert res.breakdown.reason == "chart-end"
    assert checks.count(1) == len(probes) > 0
    assert 0 < len(one_row) < len(probes)


def test_solve_ends_after_its_attempt_budget(monkeypatch):
    # y' = cos(1e4 t) is resolved in steps far shorter than the cap t_end /
    # 50; both accepted and rejected attempts count, and each costs six
    # RHS calls after the two of the start
    monkeypatch.setattr(rk, "_MAX_ATTEMPTS", 40)
    res = rk.solve(lambda t, y: [math.cos(1e4 * t)], [0.0], 1.0)
    assert res.status == "budget"
    assert 0 < res.dense.t0.size < 40
    assert res.t_stop == res.dense.t0[-1] + res.dense.h[-1] < 1.0
    assert res.n_rhs == 2 + 6 * 40
    # a schedule that oscillates beyond resolution is an error, not a
    # breakdown
    with pytest.raises(StepBudget, match="spent 40 step attempts"):
        integrate(driven(w=1e308), 4.0)


def test_a_smooth_flow_that_spends_its_budget_raises(monkeypatch):
    # a2 = sin(50 t) has no quadratic term, so its chart cannot break down;
    # a run too long for the budget reports the time it reached instead
    monkeypatch.setattr(rk, "_MAX_ATTEMPTS", 200)
    sched = CoefficientSchedule.from_expressions({2: "sin(50*t)"})
    with pytest.raises(StepBudget) as excinfo:
        integrate(sched, 400.0)
    detail = str(excinfo.value)
    assert excinfo.value.code == "step-budget"
    assert "spent 200 step attempts" in detail
    t_reached = float(detail.split("reached only t = ")[1].split()[0])
    assert 0.5 < t_reached < 400.0


def test_capped_attempts_spend_the_budget(monkeypatch):
    # y' = 1 ramps through steps of 1e-4, 1e-3 and 1e-2, and every attempt
    # after those is cut to the cap t_end / 50 = 0.02; each one counts, so
    # 40 attempts end the run short of t_end
    monkeypatch.setattr(rk, "_MAX_ATTEMPTS", 40)
    res = rk.solve(_unit_slope, [0.0], 1.0)
    assert res.status == "budget"
    assert res.dense.t0.size == 40
    assert (res.dense.h[3:] == 0.02).all()
    assert res.t_stop == pytest.approx(0.7511, abs=1e-12)
    assert res.n_rhs == 2 + 6 * 40


class _Unevaluated:
    """A schedule that fails the test if the flow ever evaluates it."""

    zeros = (None,) * 15

    def coefficients(self, t):
        raise AssertionError("the refused run called the right-hand side")


@pytest.mark.parametrize("settings, fragment", [
    (dict(rtol=math.nan), "rtol = nan and atol = 1e-10 must be"),
    (dict(atol=math.nan), "rtol = 1e-10 and atol = nan must be"),
    (dict(rtol=math.inf), "rtol = inf and atol = 1e-10 must be"),
    (dict(atol=math.inf), "rtol = 1e-10 and atol = inf must be"),
    (dict(t_end=math.inf), "t_end = inf must be positive and finite"),
    (dict(t_end=math.nan), "t_end = nan must be positive and finite"),
    (dict(samples=0), "samples = 0 must be an integer >= 1"),
    (dict(samples=-1), "samples = -1 must be an integer >= 1"),
    (dict(samples=2.5), "samples = 2.5 must be an integer >= 1"),
], ids=["rtol-nan", "atol-nan", "rtol-inf", "atol-inf", "t_end-inf",
        "t_end-nan", "samples-0", "samples-minus-1", "samples-2.5"])
def test_settings_out_of_range_are_refused_before_the_first_rhs_call(
        settings, fragment):
    # a NaN or infinite tolerance rejected every step (a misleading
    # StepUnderflow at t = 0), an infinite t_end ran to a false breakdown,
    # and a bad samples failed, or sampled t = 0 alone, after the whole run
    with pytest.raises(ValueError, match=re.escape(fragment)):
        integrate(_Unevaluated(), **{"t_end": 1.0, **settings})


@pytest.mark.parametrize("t_end", [math.nan, 0.0, -0.0, -1.0, -math.inf])
def test_solve_refuses_a_t_end_that_is_not_positive(t_end):
    # every run starts at t = 0
    with pytest.raises(ValueError,
                       match=re.escape(f"t_end = {t_end!r} must be positive")):
        rk.solve(lambda t, y: [1.0], [0.0], t_end)


def test_a_flow_that_no_step_resolves_raises_step_underflow():
    # the first stage overflows, so no step is accepted: the chart did not
    # end, the run is unresolved
    a = np.zeros(15)
    a[5], a[9] = 1e300, 2e300
    with pytest.raises(StepUnderflow, match="no step of the flow resolves "
                       "at t = 0.0 of t_end = 1.0") as excinfo:
        integrate(CoefficientSchedule.from_expressions(
            dict(enumerate(map(repr, a.tolist()), 1))), 1.0)
    assert excinfo.value.code == "step-underflow"


def _random_schedules(n=8, seed=2024):
    """Seeded schedules c + A sin(w t) on all 15 coefficients, a9, a10 > 0."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        c, A = rng.uniform(-1, 1, (2, 15))
        w = rng.uniform(0.5, 3.0, 15)
        c[8:10] = np.abs(A[8:10]) + rng.uniform(0.1, 1.0, 2)
        yield CoefficientSchedule.from_expressions(
            {k: f"c{k} + A{k}*sin(w{k}*t)" for k in range(1, 16)},
            constants={f"{name}{k + 1}": float(v[k]) for name, v in
                       (("c", c), ("A", A), ("w", w)) for k in range(15)})


CORPUS = [(CoefficientSchedule.preset(name), t_end) for name, t_end in (
    ("landau", 3.5), ("free", 2.5), ("harmonic1d", 3.0),
    ("kanai_caldirola", 2.0), ("zero", 2.5))] + [
    (sched, 4.0) for sched in _random_schedules()]


def test_every_corpus_breakdown_reads_its_refused_step(monkeypatch):
    # no corpus flow is unresolved (integrate would raise StepUnderflow);
    # each breakdown spans an accepted step, ends its samples at the stop,
    # and reads the first refused state, the refused step's end: the clause
    # of the predicate that refuses it, and the vanishing coordinate with
    # its pole at or past the stop (chart-end) or the argmax of its chart
    # coordinates at the stop (singular-nu)
    stops = []
    real_solve = rk.solve

    def solve(*args, **kwargs):
        stops.append(real_solve(*args, **kwargs))
        return stops[-1]

    monkeypatch.setattr(rk, "solve", solve)
    reasons = []
    for sched, t_end in CORPUS:
        res = integrate(sched, t_end)
        if res.breakdown is None:
            assert res.ts[-1] == t_end
            continue
        assert res.dense.t0.size >= 1
        assert res.ts[-1] == stops[-1].t_stop
        refused, end = stops[-1].y_refused, _last_step_end(res.dense)
        assert np.max(np.abs(refused - end)) <= 1e-12 * np.max(np.abs(end))
        if flow._chart(refused) < flow._CHART_EPS:
            assert res.breakdown.reason == "chart-end"
            assert res.breakdown.index == 12 + np.argmin(refused[11:13])
            assert res.breakdown.t_break > res.ts[-1]
        else:
            assert res.breakdown.reason == "singular-nu"
            assert res.breakdown.index == 6 + np.argmax(np.abs(refused)[5:])
            assert res.breakdown.t_break == res.ts[-1]
            with pytest.raises(SingularNu):
                assemble(np.zeros(15), refused)
        reasons.append(res.breakdown.reason)
    assert reasons.count("chart-end") == 9
    assert reasons.count("singular-nu") == 1


def test_kanai_caldirola_breakdown_reports_the_classical_pole():
    # the Kanai-Caldirola factorization ends where the damped oscillator's
    # S00 = e^{2 alpha12} has its root; the Riccati coordinate alpha6 has
    # its tan-type pole there
    sched = CoefficientSchedule.preset("kanai_caldirola", m=1.0, omega=2.0,
                                       lam=0.3)
    res = integrate(sched, 2.0)
    assert res.breakdown is not None
    assert res.breakdown.reason == "chart-end"
    assert res.breakdown.index == 12
    lo, hi = float(res.ts[-1]), 2 * res.breakdown.t_break - res.ts[-1]
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if fundamental_matrix(sched, mid)[0][0, 0] > 0:
            lo = mid
        else:
            hi = mid
    assert abs(res.breakdown.t_break - 0.5 * (lo + hi)) < 1e-6


@pytest.mark.parametrize("a12, t_end", [("-1", 4.0), ("-1 - 0.02*t", 5.0)])
def test_a_squeeze_below_the_chart_bound_reports_no_pole(a12, t_end):
    # alpha12 = -t (or -t - 0.01 t**2) has no pole, but e^{2 alpha12} falls
    # below the bound and the flow stops there: the bound is no certificate.
    # The rows are the flow, and t_break is the stop: alpha_ddot = 0 fits
    # no root, and the implied order of the second (about 114) fits none
    sched = CoefficientSchedule.from_expressions({9: "0.5", 10: "0.5",
                                                  12: a12})
    res = integrate(sched, t_end)
    t_stop = float(res.ts[-1])
    assert res.breakdown == flow.Breakdown(t_break=t_stop, index=12,
                                           reason="chart-end")
    np.testing.assert_allclose(res.alphas[:, 11],
                               -res.ts - (a12 != "-1") * 0.01 * res.ts ** 2,
                               rtol=1e-12, atol=1e-15)
    assert math.exp(2 * res.alphas[-1, 11]) == pytest.approx(
        flow._CHART_EPS, rel=1e-9)


def test_a_large_action_is_no_breakdown():
    # a free particle with a1 = 1e9 is a pure phase: alpha1 = a1 t grows
    # without bound, but the action is no chart coordinate
    sched = CoefficientSchedule.from_expressions({1: "1e9", 9: "0.5",
                                                  10: "0.5"})
    res = integrate(sched, 1.0)
    assert res.breakdown is None and res.ts[-1] == 1.0
    np.testing.assert_allclose(res.alphas[:, 0], 1e9 * res.ts, rtol=1e-12,
                               atol=0)


def test_a_light_free_particle_reaches_t_end():
    # alpha9 = t / 2m reaches 5e8 with no pole: e^{2 alpha12} =
    # e^{2 alpha13} = 1 along the flow, so the chart never ends
    res = integrate(CoefficientSchedule.preset("free", m=1e-9), 1.0)
    assert res.breakdown is None and res.ts[-1] == 1.0
    np.testing.assert_allclose(res.alphas[:, 8], res.ts / 2e-9, rtol=1e-12,
                               atol=0)


def test_a_strong_field_flow_reaches_t_end():
    # E = (1e4, -2e3) drives the action alpha1 past 1e8 at t = 2.1, well
    # before the chart ends at omega_c t = pi
    res = integrate(landau(E_x=1e4, E_y=-2e3), 2.5)
    assert res.breakdown is None and res.ts[-1] == 2.5
    ref = constant_field_closed_form(1.0, 1.0, 1e4, -2e3, 1.0, t=res.ts)
    assert np.max(np.abs(ref[:, 0])) > 1e8
    scale = np.maximum(np.max(np.abs(ref), axis=0), 1.0)
    assert np.max(np.abs(res.alphas - ref) / scale) < 1e-9


def test_the_same_phase_resolves_at_every_time_scale():
    # the step floor and the bisection width scale with the span below
    # t_end = 1, so omega_c t reaches 2.5 and stops at the chart bound,
    # 2 acos(sqrt(1e-3)) = 3.0783, whatever omega_c is
    stops = []
    for omega_c in (1.0, 1e3, 1e6, 1e9, 1e13, 1e15):
        sched = CoefficientSchedule.preset("landau", m=1.0, omega_c=omega_c)
        res = integrate(sched, 2.5 / omega_c)
        assert res.breakdown is None and res.ts[-1] == 2.5 / omega_c
        res = integrate(sched, 3.5 / omega_c)
        assert res.breakdown.reason == "chart-end"
        stops.append(res.ts[-1] * omega_c)
    assert stops[0] == pytest.approx(3.0783, abs=1e-4)
    np.testing.assert_allclose(stops, stops[0], rtol=1e-10, atol=0)



@pytest.mark.parametrize("preset", ["landau", "free"])
def test_a_run_lands_on_t_end_at_any_time_scale(preset):
    # a sum of steps of the cap t_end / 50 can fall a few ulps short of
    # t_end; the last step must take the sliver, not leave it to the floor
    rng = random.Random(11)
    sched = CoefficientSchedule.preset(preset)
    for t_end in [10 ** rng.uniform(-7, 1) for _ in range(60)]:
        res = integrate(sched, t_end, samples=1)
        assert res.breakdown is not None or res.ts[-1] == t_end, t_end

OSCILLATOR = {6: "0.5", 7: "0.3", 9: "0.5", 10: "0.5", 14: "0.2", 15: "-0.2"}


def test_a_uniform_force_leaves_the_breakdown_where_it_was():
    # a uniform force moves the trajectory alpha2..alpha5 and the action,
    # which reaches 2.4e13, but not the chart: the forced oscillator breaks
    # down where the unforced one does, on the same coordinate
    plain = integrate(CoefficientSchedule.from_expressions(OSCILLATOR), 3.0)
    sched = CoefficientSchedule.from_expressions({**OSCILLATOR, 2: "1e7",
                                                  3: "-3e6"})
    res = integrate(sched, 3.0, samples=40)
    assert plain.breakdown.index == res.breakdown.index == 12
    assert res.breakdown.t_break == pytest.approx(plain.breakdown.t_break,
                                                  rel=1e-6)
    assert np.max(np.abs(res.alphas[:, 0])) > 1e13
    # every row of the regular part is the classical map
    keep = (res.ts > 0) & (res.ts <= 0.8 * res.breakdown.t_break)
    maps = heisenberg_map(res.alphas[keep])
    for t, S, d in zip(res.ts[keep].tolist(), maps.S, maps.d):
        S_cl, d_cl = fundamental_matrix(sched, t)
        assert np.max(np.abs(S - S_cl)) < 1e-8 * np.max(np.abs(S_cl))
        assert np.max(np.abs(d - d_cl)) < 1e-8 * np.max(np.abs(d_cl))


def test_linear_potential_subalgebra_decouples():
    sched = CoefficientSchedule.from_expressions(
        {1: "0.3", 2: "sin(t)", 3: "0.5*cos(2*t)", 4: "t", 5: "0.2"})
    res = integrate(sched, 1.5)
    assert res.breakdown is None
    assert np.max(np.abs(res.alphas[:, 5:])) == 0.0
    assert np.max(np.abs(res.alphas[:, :5])) > 0.01


def test_tightening_tolerances_reduces_error():
    # the step cap must not dominate, or the error saturates below
    # tolerance: the run aims at t_end 100, whose cap of 2 never binds,
    # breaks down at 3.08 and is compared on [0, 2]
    errs = []
    ts = np.linspace(0.0, 2.0, 201)
    for tol in (1e-3, 1e-6, 1e-9):
        res = integrate(landau(E_x=0.3), 100.0, rtol=tol, atol=tol)
        ref = constant_field_closed_form(1.0, 1.0, 0.3, 0.0, 1.0, t=ts)
        errs.append(np.max(np.abs(res.interpolate(ts) - ref)))
    assert errs[0] > errs[1] > errs[2]


def test_time_reversal_returns_to_origin():
    # the schedule -a(T - s) undoes a(t): run after it, from the identity,
    # its Heisenberg map composes with the forward one to the identity,
    # S_rev S_fwd = I and S_rev d_fwd + d_rev = 0
    sched = CoefficientSchedule.from_expressions(
        {2: "0.4", 6: "0.3*sin(2*t)", 9: "0.5", 10: "0.5", 14: "0.2*t"})
    reverse = CoefficientSchedule.from_expressions(
        {2: "-0.4", 6: "-0.3*sin(2*(0.5 - t))", 9: "-0.5", 10: "-0.5",
         14: "-0.2*(0.5 - t)"})
    T = 0.5
    fwd = heisenberg_map(integrate(sched, T).alphas[-1])
    rev = heisenberg_map(integrate(reverse, T).alphas[-1])
    np.testing.assert_allclose(rev.S @ fwd.S, np.eye(4), rtol=0, atol=1e-9)
    np.testing.assert_allclose(rev.S @ fwd.d + rev.d, np.zeros(4), rtol=0,
                               atol=1e-9)


def test_piecewise_handoff_matches_single_run():
    # constant coefficients: the flow is autonomous, so the map over 0.6 is
    # the map over 0.3 composed with itself
    whole = heisenberg_map(integrate(landau(E_x=0.2), 0.6).alphas[-1])
    half = heisenberg_map(integrate(landau(E_x=0.2), 0.3).alphas[-1])
    np.testing.assert_allclose(half.S @ half.S, whole.S, rtol=0, atol=1e-9)
    np.testing.assert_allclose(half.S @ half.d + half.d, whole.d, rtol=0,
                               atol=1e-9)


def test_domain_error_in_schedule_surfaces_as_invalid_schedule():
    sched = CoefficientSchedule.from_expressions({6: "ln(cos(t))"})
    with pytest.raises(InvalidSchedule) as err:
        integrate(sched, 2.0)  # cos(t) < 0 past pi/2
    assert err.value.coefficient == 6
    assert err.value.time is not None and err.value.time > 1.5


def test_invalid_arguments():
    with pytest.raises(ValueError):
        integrate(landau(), -1.0)
    with pytest.raises(ValueError):
        integrate(landau(), float("nan"))
    with pytest.raises(ValueError):
        integrate(landau(), 1.0, rtol=-1e-10)


def test_dense_output_matches_samples():
    res = integrate(landau(E_x=0.1), 1.2)
    mid = 0.37
    direct = integrate(landau(E_x=0.1), mid).alphas[-1]
    np.testing.assert_allclose(res.interpolate(mid), direct, atol=1e-8)
    assert res.dense.t0[0] == 0.0
    assert res.ts[-1] == pytest.approx(1.2)


def test_interpolate_refuses_times_outside_the_span():
    res = integrate(landau(), 3.9)   # breaks down at the pole t = pi
    assert res.ts[-1] < 3.9
    for t in (3.9, -1e-9, [0.5, 3.9], float("nan")):
        with pytest.raises(ValueError, match="integrated span"):
            res.interpolate(t)
    np.testing.assert_array_equal(res.interpolate(res.ts[-1]),
                                  res.alphas[-1])
    assert res.interpolate([0.0, 1.0]).shape == (2, 15)


def test_dense_array_call_equals_per_point_calls():
    res = integrate(landau(E_x=0.3, E_y=-0.2), 2.5)
    ts = np.concatenate([np.linspace(-0.5, 3.0, 97), res.dense.t0,
                         res.ts[-1:]])
    batch = res.dense(ts)
    assert batch.shape == (ts.size, 15)
    for t, row in zip(ts, batch):
        np.testing.assert_array_equal(res.dense(t), row)


def test_dense_output_picks_the_bisection_step():
    d = integrate(landau(E_x=0.1), 1.2).dense
    n = d.t0.size

    def on_step(k, t):
        one = (v[k:k + 1] for v in (d.t0, d.h, d.y0, d.q))
        return rk.DenseSolution(*one)(t)

    end = d.t0[-1] + d.h[-1]
    cases = [(d.t0[0] - 0.3, 0),            # before the start
             (d.t0[0], 0),                  # at the start
             (d.t0[3], 2),                  # on a boundary: the earlier step
             (d.t0[3] + 0.5 * d.h[3], 3),   # inside a step
             (end, n - 1),                  # at the end
             (end + 0.5, n - 1)]            # past the end
    for t, k in cases:
        np.testing.assert_array_equal(d(t), on_step(k, t))
    assert len(d.segments) == n


def _within(cap):
    """A check passing the leading rows whose every |y_i| is at most cap."""
    def check(ts, ys):
        over = np.max(np.abs(ys), axis=1) > cap
        return int(np.argmax(over)) if over.any() else len(ys)
    return check


def test_dense_output_at_cap_stop_is_the_crossing_state():
    # y' = y^2, y(0) = 1 blows up at t = 1 as y = 1 / (1 - t)
    res = rk.solve(lambda t, y: [v * v for v in y], [1.0], 2.0,
                   check=_within(1e3))
    assert res.status == "refused"
    np.testing.assert_array_equal(res.dense(res.t_stop), res.y_stop)
    assert 0.99e3 < res.y_stop[0] <= 1e3
    assert res.y_stop[0] == pytest.approx(1 / (1 - res.t_stop), rel=1e-6)
    res = integrate(CoefficientSchedule.preset("kanai_caldirola", m=1.0,
                                               omega=2.0, lam=0.3), 2.0)
    assert res.breakdown.reason == "chart-end"
    np.testing.assert_array_equal(res.dense(res.ts[-1]), res.alphas[-1])
    # the chart's bisection on the last step, written out: det(nu) passes
    # every probe, so the stop is the last probe on the chart, bit for bit
    last = rk.DenseSolution(*(v[-1:] for v in (res.dense.t0, res.dense.h,
                                               res.dense.y0, res.dense.q)))
    t_lo, t_hi = res.dense.t0[-1], res.dense.t0[-1] + res.dense.h[-1]
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        if flow._chart(last(t_mid)) < flow._CHART_EPS:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo < 1e-12 * max(1.0, abs(t_hi)):
            break
    assert res.ts[-1] == t_lo
    assert t_lo == pytest.approx(0.8246918790583199, rel=1e-13)
    np.testing.assert_array_equal(res.alphas[-1], last(t_lo))


@pytest.mark.parametrize("sched, t_end, kwargs", [
    (landau(), 3.5, dict(rtol=1e-4)),
    (CoefficientSchedule.preset("harmonic1d", m=1.0, omega=1.0), 3.0, {}),
    (CoefficientSchedule.preset("kanai_caldirola", m=1.0, omega=2.0,
                                lam=0.3), 2.0, {}),
], ids=["landau-rtol-1e-4", "harmonic1d", "kanai_caldirola"])
def test_a_chart_end_writes_no_row_off_the_chart(tmp_path, sched, t_end,
                                                 kwargs):
    # the run stops at the last state on the chart, so every row of
    # alphas.csv and the dense solution at the stop keep
    # min(e^{2 alpha12}, e^{2 alpha13}) >= eps; the last row is at the bound
    eps = flow._CHART_EPS
    res = integrate(sched, t_end, **kwargs)
    assert res.breakdown.reason == "chart-end"
    path = tmp_path / "alphas.csv"
    write_alphas_csv(res, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows[-1, 0] == res.ts[-1] < res.breakdown.t_break
    assert eps <= np.min(flow._chart(rows[:, 1:])) < 1.01 * eps
    assert flow._chart(res.dense(res.ts[-1])) >= eps


@pytest.mark.parametrize("first", ["chart", "det(nu)"])
def test_the_first_failing_row_of_a_stack_names_the_reason(monkeypatch,
                                                           first):
    # on the corpus flow that det(nu) ends, the sentinel refuses row k of a
    # 32-row stack, whose e^{2 alpha12} falls row by row; a chart bound
    # between rows k - 1 and k fails row k in the chart clause, which runs
    # first, and one between rows k and k + 1 fails row k + 1 after the
    # refusal.  The reason is the clause that refused the first refused
    # row, whatever the bisection's probes meet
    refusals, rows = [], []
    real = flow.assemble

    def recording(a, alpha):
        rows.extend(np.reshape(alpha, (-1, 15)))
        try:
            return real(a, alpha)
        except SingularNu as refusal:
            refusals.append((np.array(alpha), refusal.row))
            raise

    monkeypatch.setattr(flow, "assemble", recording)
    sched, t_end = CORPUS[6]
    plain = integrate(sched, t_end)
    assert plain.breakdown.reason == "singular-nu"
    stack, k = refusals[0]
    chart = flow._chart(stack)
    assert 1 <= k < len(stack) - 1 and np.all(np.diff(chart) < 0)
    j = k if first == "chart" else k + 1
    eps = math.sqrt(chart[j - 1] * chart[j])
    assert np.min(flow._chart(plain.dense.y0)) > eps
    rows.clear()
    monkeypatch.setattr(flow, "_CHART_EPS", eps)
    res = integrate(sched, t_end)
    assert np.min(flow._chart(res.alphas)) >= eps
    if first == "chart":
        assert res.breakdown.reason == "chart-end"
        assert res.breakdown.index in (12, 13)
        assert res.ts[-1] < plain.ts[-1]
        # rows off the chart never reach assemble
        assert np.min(flow._chart(np.array(rows))) >= eps
    else:
        assert res.breakdown == plain.breakdown
        np.testing.assert_array_equal(res.alphas, plain.alphas)


def test_alphas_csv_row_count_and_precision(tmp_path):
    res = integrate(landau(), 1.0, samples=200)
    path = tmp_path / "alphas.csv"
    write_alphas_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t"] + [f"alpha{i}" for i in range(1, 16)]
    assert len(lines) == 202  # header + 201 sample rows
    values = [float(v) for v in lines[-1].split(",")]
    assert values[0] == pytest.approx(1.0, abs=0)
    # full double precision round-trip
    assert values[6] == res.alphas[-1][5]
