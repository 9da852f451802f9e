"""Flow integration: closed-form oracle, breakdown, schedule handling."""

import math
import warnings

import numpy as np
import pytest

from quadflow import flow, rk
from quadflow.errors import InvalidSchedule, SingularNu, SingularTime
from quadflow.flow import (constant_field_closed_form, integrate,
                           write_alphas_csv)
from quadflow.reduction import assemble
from quadflow.schedule import CoefficientSchedule


def landau(E_x=0.0, E_y=0.0):
    return CoefficientSchedule.landau(m=1.0, omega_c=1.0, E_x=E_x, E_y=E_y,
                                      e=1.0)


def driven(A=0.5, w=2.0, B=0.1, C=0.5):
    """The benchmark's driven schedule at its nominal parameters."""
    return CoefficientSchedule.from_expressions(
        {6: "A*sin(w*t)", 9: "0.5", 10: "0.5", 11: "B*cos(t)", 14: "C",
         15: "-C"}, constants=dict(A=A, w=w, B=B, C=C))


def test_zero_schedule_stays_at_origin():
    res = integrate(CoefficientSchedule.zero(), 3.0)
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
    sched = CoefficientSchedule.landau(m=1.0, omega_c=omega_c, E_x=0.3,
                                       E_y=-0.2, e=1.0)
    res = integrate(sched, 2.5)
    ref = constant_field_closed_form(1.0, omega_c, 0.3, -0.2, 1.0, t=res.ts)
    assert np.max(np.abs(res.alphas - ref)) < 1e-6
    # the constant-force limit omega_c -> 0: alpha1 = e^2 E^2 t^3 / (6 m)
    t = res.ts[-1]
    assert ref[-1, 0] == pytest.approx(0.13 * t ** 3 / 6, rel=1e-12)


def test_breakdown_at_first_factorization_pole():
    res = integrate(landau(), 3.5)
    assert res.breakdown is not None
    assert abs(res.breakdown.t_break - math.pi) < 1e-3
    assert res.breakdown.index in (6, 7, 12, 15)  # divergent components
    assert res.breakdown.reason in ("magnitude-overflow", "step-underflow")
    assert res.ts[-1] <= res.breakdown.t_break + 1e-12
    assert np.all(np.diff(res.ts) > 0)


def test_driven_schedule_breaks_down_by_step_underflow_at_alpha15():
    res = integrate(driven(), 4.0)
    assert res.breakdown is not None
    assert res.breakdown.reason == "step-underflow"
    assert res.breakdown.index == 15
    assert 1.2 < res.breakdown.t_break < 4.0


def _last_step_end(dense):
    # the last step's polynomial at x = 1
    return dense.y0[-1] + dense.h[-1] * dense.q[-1].sum(axis=1)


def test_integrate_runs_the_assemble_sentinel_on_every_accepted_step(
        monkeypatch):
    # quadflow.flow.assemble is the det(nu) sentinel (and the call site the
    # benchmark tracer wraps): it sees the end state of every accepted step,
    # in stacks, and its refusals drive the driven breakdown
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
        assert np.min(np.max(np.abs(np.array(rows) - end), axis=1)) \
            <= 1e-12 * max(1.0, np.max(np.abs(end)))
    assert refused  # the driven flow's approach to its pole trips det(nu)


@pytest.mark.parametrize("sched, t_end", [(landau(), 3.5), (driven(), 4.0)])
def test_sentinel_halt_brackets_the_first_refused_state(sched, t_end):
    # with the one-state assemble, whatever stacks the flow checked: every
    # accepted end state before the last passes, the state at t_break
    # passes, and the last step's end state fails
    res = integrate(sched, t_end)
    d = res.dense
    assert res.breakdown.reason == "step-underflow"
    for alpha in d.y0[1:]:
        assemble(np.zeros(15), alpha)
    assemble(np.zeros(15), res.interpolate(res.breakdown.t_break))
    with pytest.raises(SingularNu):
        assemble(np.zeros(15), _last_step_end(d))


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
    # the det(nu) sentinel reads no coefficients, so the schedule runs once
    # per right-hand side and never for the bisection's probes
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
    res = rk.solve(lambda t, y: [1.0], 0.0, [0.0], 1.0, max_step=1.0,
                   check=lambda ts, ys: int(np.sum(ts < 0.3737)))
    assert res.status == "underflow"
    assert 0.3737 - 1e-12 <= res.t_stop < 0.3737
    assert res.y_stop[0] == pytest.approx(res.t_stop, abs=1e-15)
    np.testing.assert_array_equal(res.dense(res.t_stop), res.y_stop)
    assert res.n_rhs <= 6 * res.dense.t0.size + 2


@pytest.mark.parametrize("limit, status, t_cross", [
    (0.3737, "underflow", 0.3737),   # the sentinel fails first
    (0.6, "cap", 0.5),               # the cap is crossed first
])
def test_solve_halts_at_the_earlier_of_cap_and_check(limit, status, t_cross):
    # the last step runs from t = 0.1111 to t = 1, so the cap (y = t = 0.5)
    # and the check both fail at its end
    res = rk.solve(lambda t, y: [1.0], 0.0, [0.0], 1.0, max_step=1.0,
                   cap=0.5, check=lambda ts, ys: int(np.sum(ts < limit)))
    assert res.dense.t0[-1] < 0.3737
    assert res.dense.t0[-1] + res.dense.h[-1] == 1.0
    assert res.status == status
    assert abs(res.t_stop - t_cross) <= 1e-12


def _unit_slope(t, y):
    return [1.0]


def _step_ends():
    # end times of the steps y' = 1 takes on [0, 1]: steps of 0.01 after a
    # ramp from 1e-4, so the 32-step chunks run 0-31, 32-63, ...
    res = rk.solve(_unit_slope, 0.0, [0.0], 1.0, max_step=0.01)
    return res.dense.t0 + res.dense.h


def test_solve_prefers_an_earlier_refusal_to_a_later_cap_in_one_chunk():
    seen = []

    def check(ts, ys):
        seen.extend(ts.tolist())
        return int(np.sum(ts < 0.3737))

    refused, over = np.searchsorted(_step_ends(), [0.3737, 0.5])
    assert 32 <= refused < over < 64   # both in the second chunk
    res = rk.solve(_unit_slope, 0.0, [0.0], 1.0, max_step=0.01, cap=0.5,
                   check=check)
    assert max(seen) > 0.5    # the cap step ran before the refusal was seen
    assert res.status == "underflow"
    assert 0.3737 - 1e-12 <= res.t_stop < 0.3737
    assert res.dense.t0[-1] + res.dense.h[-1] > 0.3737 > res.dense.t0[-1]


@pytest.mark.parametrize("index", [31, 32])
def test_solve_halts_in_a_refused_step_at_a_chunk_boundary(index):
    # the 32nd step closes the first chunk and the 33rd opens the second
    ends = _step_ends()
    limit = 0.5 * (ends[index - 1] + ends[index])
    res = rk.solve(_unit_slope, 0.0, [0.0], 1.0, max_step=0.01,
                   check=lambda ts, ys: int(np.sum(ts < limit)))
    assert res.status == "underflow"
    assert res.dense.t0.size == index + 1
    np.testing.assert_array_equal(res.dense.t0 + res.dense.h,
                                  ends[:index + 1])
    assert limit - 1e-12 <= res.t_stop < limit


def test_solve_returns_a_pending_refusal_when_f_raises_later():
    def f(t, y):
        if t > 0.45:
            raise ValueError("past the refusal")
        return [1.0]

    res = rk.solve(f, 0.0, [0.0], 1.0, max_step=0.01,
                   check=lambda ts, ys: int(np.sum(ts < 0.3737)))
    assert res.status == "underflow"
    assert 0.3737 - 1e-12 <= res.t_stop < 0.3737


def test_solve_reraises_an_error_of_f_when_nothing_is_refused():
    error = ValueError("not refused")

    def f(t, y):
        if t > 0.45:
            raise error
        return [1.0]

    with pytest.raises(ValueError) as excinfo:
        rk.solve(f, 0.0, [0.0], 1.0, max_step=0.01,
                 check=lambda ts, ys: int(np.sum(ts < 0.6)))
    assert excinfo.value is error


def test_solve_accepts_finite_stages_whose_sum_overflows():
    # 32 entries of 6e306 sum past the float range, while every stage
    # combination of the tableau stays finite (with entries of 1e308 the
    # combinations would overflow themselves); y' = 6e306 is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rk.solve(lambda t, y: [6e306] * 32, 0.0, np.zeros(32), 1.0,
                       atol=1e306)
    assert res.status == "done" and res.t_stop == 1.0
    np.testing.assert_allclose(res.y_stop, 6e306, rtol=1e-12)


def test_solve_rejects_a_stage_with_one_nan():
    # the second entry turns NaN past t = 0.5: every step across it is
    # rejected until h falls to the floor there
    res = rk.solve(lambda t, y: [1.0, math.nan if t > 0.5 else 1.0], 0.0,
                   [0.0, 0.0], 1.0)
    assert res.status == "underflow"
    assert 0.5 - 1e-12 < res.t_stop <= 0.5
    assert np.all(np.isfinite(res.dense.q))


def test_driven_sentinel_halt_is_certified_and_cheap(monkeypatch):
    # the flow stops on the last state the det(nu) sentinel passes, at the
    # cost of one bisection, not of a sawtooth of refused six-stage steps
    stops = []
    real_solve = rk.solve

    def solve(*args, **kwargs):
        stops.append(real_solve(*args, **kwargs))
        return stops[-1]

    monkeypatch.setattr(rk, "solve", solve)
    sched = driven()
    first, second = integrate(sched, 4.0), integrate(sched, 4.0)
    y_stop = stops[0].y_stop
    t_break = first.breakdown.t_break
    assert first.breakdown.reason == "step-underflow"
    assemble(sched.coefficients(t_break), y_stop)  # passes det(nu) = 1
    np.testing.assert_array_equal(first.interpolate(t_break), y_stop)
    np.testing.assert_array_equal(first.alphas[-1], y_stop)
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
    # one assemble call per stack locates its first refused row, so the
    # only one-row calls left are the bisection's probes
    one_row, probes = [], []
    real_assemble, real_crossing = flow.assemble, rk._crossing

    def counting(a, alpha):
        if np.size(alpha) == 15:
            one_row.append(alpha)
        return real_assemble(a, alpha)

    def crossing(t0, h, y0, q, ok):
        def counted(t, y):
            probes.append(t)
            return ok(t, y)
        return real_crossing(t0, h, y0, q, counted)

    monkeypatch.setattr(flow, "assemble", counting)
    monkeypatch.setattr(rk, "_crossing", crossing)
    res = integrate(driven(**params), 4.0)
    assert res.breakdown.reason == "step-underflow"
    assert len(one_row) == len(probes) > 0


def test_solve_ends_after_its_attempt_budget(monkeypatch):
    # y' = cos(1e4 t) is resolved in steps far shorter than max_step, so
    # both accepted and rejected attempts count; each costs six RHS calls
    # after the two of the start
    monkeypatch.setattr(rk, "_MAX_ATTEMPTS", 40)
    res = rk.solve(lambda t, y: [math.cos(1e4 * t)], 0.0, [0.0], 1.0)
    assert res.status == "underflow"
    assert res.t_stop < 1.0
    assert 0 < res.dense.t0.size < 40
    assert res.n_rhs == 2 + 6 * 40
    # a schedule that oscillates beyond resolution ends as a breakdown
    res = integrate(driven(w=1e308), 4.0)
    assert res.breakdown.reason == "step-underflow"
    assert res.breakdown.t_break == res.ts[-1] < 4.0


def test_steps_that_max_step_cuts_do_not_spend_the_budget(monkeypatch):
    # 100 steps of length max_step, past a budget of 40: the run is long,
    # not unresolvable, so it reaches t_end with no breakdown
    monkeypatch.setattr(rk, "_MAX_ATTEMPTS", 40)
    res = rk.solve(lambda t, y: [1.0], 0.0, [0.0], 1.0, max_step=0.01)
    assert res.status == "done"
    assert res.t_stop == 1.0
    assert res.dense.t0.size >= 100
    res = integrate(landau(), 1.0, max_step=0.01)
    assert res.breakdown is None
    assert res.ts[-1] == 1.0
    assert res.n_rhs > 6 * 40


def test_halt_before_the_first_step_names_the_fastest_component():
    # no step is accepted, so the state at the stop is alpha(0) = 0; the
    # breakdown names the largest |alpha_dot(0)| (alpha10 here), not alpha1
    a = np.zeros(15)
    a[5], a[9] = 1e300, 2e300
    with np.errstate(over="ignore", invalid="ignore"):
        res = integrate(CoefficientSchedule.from_constant_vector(a), 1.0)
    assert res.dense.t0.size == 0
    assert res.breakdown.t_break == 0.0
    assert res.breakdown.reason == "step-underflow"
    assert res.breakdown.index == 10


def test_magnitude_cap_breakdown_reports_riccati_component():
    # Kanai-Caldirola factorization has a tan-type pole; the quadratic
    # potential parameter crosses the cap first
    sched = CoefficientSchedule.kanai_caldirola(m=1.0, omega=2.0, lam=0.3)
    res = integrate(sched, 2.0)
    assert res.breakdown is not None
    assert res.breakdown.reason == "magnitude-overflow"
    assert res.breakdown.index == 6
    assert abs(res.dense(res.breakdown.t_break)[5]) >= 0.99e8


def test_linear_potential_subalgebra_decouples():
    sched = CoefficientSchedule.from_expressions(
        {1: "0.3", 2: "sin(t)", 3: "0.5*cos(2*t)", 4: "t", 5: "0.2"})
    res = integrate(sched, 1.5)
    assert res.breakdown is None
    assert np.max(np.abs(res.alphas[:, 5:])) == 0.0
    assert np.max(np.abs(res.alphas[:, :5])) > 0.01


def test_tightening_tolerances_reduces_error():
    # max_step must not dominate, or the error saturates below tolerance
    errs = []
    for tol in (1e-3, 1e-6, 1e-9):
        res = integrate(landau(E_x=0.3), 2.0, rtol=tol, atol=tol,
                        max_step=2.0)
        ref = constant_field_closed_form(1.0, 1.0, 0.3, 0.0, 1.0, t=res.ts)
        errs.append(np.max(np.abs(res.alphas - ref)))
    assert errs[0] > errs[1] > errs[2]


def test_time_reversal_returns_to_origin():
    sched = CoefficientSchedule.from_expressions(
        {2: "0.4", 6: "0.3*sin(2*t)", 9: "0.5", 10: "0.5", 14: "0.2*t"})
    T = 0.5
    fwd = integrate(sched, T)
    back = integrate(sched.negated_reverse(T), T,
                     initial_alpha=fwd.alphas[-1])
    assert np.max(np.abs(back.alphas[-1])) < 1e-6


def test_piecewise_handoff_matches_single_run():
    whole = integrate(landau(E_x=0.2), 0.6)
    first = integrate(landau(E_x=0.2), 0.3)
    second = integrate(landau(E_x=0.2), 0.3, initial_alpha=first.alphas[-1])
    # constant coefficients: the flow is autonomous, so state handoff
    # composes exactly
    np.testing.assert_allclose(second.alphas[-1], whole.alphas[-1],
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
    with pytest.raises(ValueError):
        integrate(landau(), 1.0, initial_alpha=np.zeros(3))


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


def test_dense_output_at_cap_stop_is_the_crossing_state():
    # y' = y^2, y(0) = 1 blows up at t = 1 as y = 1 / (1 - t)
    res = rk.solve(lambda t, y: (y * y).tolist(), 0.0, [1.0], 2.0, cap=1e3)
    assert res.status == "cap"
    np.testing.assert_array_equal(res.dense(res.t_stop), res.y_stop)
    assert res.y_stop[0] > 1e3
    assert res.y_stop[0] == pytest.approx(1 / (1 - res.t_stop), rel=1e-6)
    flow = integrate(CoefficientSchedule.kanai_caldirola(m=1.0, omega=2.0,
                                                         lam=0.3), 2.0)
    assert flow.breakdown.reason == "magnitude-overflow"
    np.testing.assert_array_equal(flow.dense(flow.breakdown.t_break),
                                  flow.alphas[-1])
    # the cap-only bisection on the last step, written out: the sentinel's
    # crossing search must leave the cap halt's time and state bit for bit
    last = rk.DenseSolution(*(v[-1:] for v in (flow.dense.t0, flow.dense.h,
                                               flow.dense.y0, flow.dense.q)))
    t_lo, t_hi = flow.dense.t0[-1], flow.dense.t0[-1] + flow.dense.h[-1]
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        if np.max(np.abs(last(t_mid))) > 1e8:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo < 1e-12 * max(1.0, abs(t_hi)):
            break
    assert flow.breakdown.t_break == t_hi
    assert flow.breakdown.t_break == pytest.approx(0.8252577130737292,
                                                   rel=1e-13)
    np.testing.assert_array_equal(flow.alphas[-1], last(t_hi))


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
