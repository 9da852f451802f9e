"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the table.  Every
tolerance is fixed here, not configurable.
"""

import math
import time

import numpy as np
from scipy.integrate import simpson

import quadflow as qf
from quadflow.expressions import (define, parse_expression, pretty,
                                  straight_line)
from quadflow.oracles import GaussianState, apply_kernel, landau_kernel
from quadflow.propagator import degenerate_kernel, generic_kernel
from quadflow.reduction import assemble, reference_odes

M, OMEGA_C, CHARGE = 1.0, 1.0, 1.0
E_X, E_Y = 0.3, -0.2
HBAR = 1.0


def _report(num, label, detail):
    print(f"[PASS] criterion {num:2d} ({label}): {detail}")


def _random_schedules(n, rng):
    mk = qf.CoefficientSchedule
    # constant schedules: each slot is the repr of its float, every bit kept
    schedules = [mk.from_expressions(
        dict(enumerate(map(repr, rng.uniform(-1, 1, 15).tolist()), 1)))
        for _ in range(n - 4)]
    schedules.append(mk.from_expressions(
        {2: "0.5*sin(t)", 6: "0.4*cos(2*t)", 9: "0.5", 10: "0.5"}))
    schedules.append(mk.from_expressions(
        {8: "0.3*t", 9: "0.4", 10: "0.6", 11: "0.2*sin(t)"}))
    schedules.append(mk.preset("kanai_caldirola", m=1.0, omega=1.0, lam=0.2))
    schedules.append(mk.from_expressions(
        {12: "0.3*cos(t)", 14: "0.5", 15: "-0.5", 9: "0.5", 10: "0.5",
         3: "0.7"}))
    return schedules


def test_criterion_01_algebra_exactness():
    start = time.perf_counter()
    report = qf.validate_algebra()
    elapsed = time.perf_counter() - start
    assert report.ok, report
    assert report.antisymmetry_ok and report.jacobi_ok and report.central_ok
    assert elapsed < 5.0
    _report(1, "algebra exactness",
            f"antisymmetry + Jacobi over all index tuples, exact rationals, "
            f"{elapsed:.2f} s")


def test_criterion_02_adjoint_fidelity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(2, 16):
        for alpha in rng.uniform(-1.0, 1.0, 100):
            d = float(np.max(np.abs(qf.adjoint_matrix(i, alpha)
                                    - qf.adjoint_closed_form(i, alpha))))
            worst = max(worst, d)
    assert worst < 1e-12
    _report(2, "adjoint fidelity",
            f"exp-of-adjoint vs closed forms, 14 x 100 draws, "
            f"max {worst:.2e} < 1e-12")


def test_criterion_03_det_nu_is_unity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        state = assemble(rng.uniform(-1, 1, 15), rng.uniform(-1, 1, 15))
        worst = max(worst, abs(float(np.linalg.det(state.nu)) - 1.0))
    assert worst < 1e-9
    _report(3, "det nu = 1", f"1000 random alpha, max |det-1| {worst:.2e} "
                             f"< 1e-9")


def test_criterion_04_pipeline_equals_explicit_equations():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(-1, 1, 15)
        alpha = rng.uniform(-1, 1, 15)
        diff = assemble(a, alpha).mu - reference_odes(a, alpha)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert worst < 1e-10
    _report(4, "pipeline vs explicit ODEs",
            f"1000 random states, max {worst:.2e} < 1e-10")


def test_criterion_05_constant_field_closed_form():
    sched = qf.CoefficientSchedule.preset("landau", m=M, omega_c=OMEGA_C,
                                          E_x=E_X, E_y=E_Y, e=CHARGE)
    res = qf.integrate(sched, 2.8, rtol=1e-10, atol=1e-10)
    assert res.breakdown is None
    closed = qf.constant_field_closed_form(M, OMEGA_C, E_X, E_Y, CHARGE,
                                           t=res.ts)
    worst = float(np.max(np.abs(res.alphas - closed)))
    assert worst < 1e-6
    _report(5, "constant-field closed form",
            f"all 15 parameters on [0, 2.8], max {worst:.2e} < 1e-6")


def test_criterion_06_breakdown_detection():
    res = qf.integrate(
        qf.CoefficientSchedule.preset("landau", m=M, omega_c=OMEGA_C), 3.5)
    assert res.breakdown is not None
    gap = abs(res.breakdown.t_break - math.pi)
    assert gap < 1e-3
    _report(6, "breakdown detection",
            f"|t_break - pi| = {gap:.2e} < 1e-3 "
            f"(component {res.breakdown.index}, {res.breakdown.reason})")


def test_criterion_07_symplecticity_along_flows():
    rng = np.random.default_rng(104)
    worst = 0.0
    for sched in _random_schedules(20, rng):
        res = qf.integrate(sched, 0.5)
        assert res.breakdown is None
        for alpha in res.alphas:
            worst = max(worst, qf.heisenberg_map(alpha).symplectic_defect())
    assert worst < 1e-8
    _report(7, "symplecticity",
            f"20 random schedules on [0, 0.5], max defect {worst:.2e} < 1e-8")


def test_criterion_08_classical_oracle_agreement():
    rng = np.random.default_rng(105)
    scheds = [qf.CoefficientSchedule.preset("landau", m=M, omega_c=OMEGA_C,
                                            E_x=E_X, E_y=E_Y, e=CHARGE)]
    scheds += _random_schedules(10, rng)
    worst_map = 0.0
    worst_shift = 0.0
    for sched in scheds:
        t_end = 0.5
        res = qf.integrate(sched, t_end)
        m = qf.heisenberg_map(res.alphas[-1])
        S_cl, d_cl = qf.fundamental_matrix(sched, t_end)
        worst_map = max(worst_map, float(np.max(np.abs(m.S - S_cl))),
                        float(np.max(np.abs(m.d - d_cl))))
        al = res.alphas[-1]
        shift = np.array([al[3], al[4], -al[1], -al[2]])
        worst_shift = max(worst_shift, float(np.max(np.abs(d_cl - shift))))
    assert worst_map < 1e-6
    assert worst_shift < 1e-6
    _report(8, "classical oracle",
            f"(S, d) vs fundamental matrix max {worst_map:.2e} < 1e-6; "
            f"shift identity max {worst_shift:.2e} < 1e-6")


def test_criterion_09_action_equals_alpha1():
    sched = qf.CoefficientSchedule.preset("landau", m=M, omega_c=OMEGA_C,
                                          E_x=E_X, E_y=E_Y, e=CHARGE)
    res = qf.integrate(sched, 2.5)
    ls = np.array([
        qf.classical_lagrangian(sched.coefficients(t), alpha,
                                reference_odes(sched.coefficients(t), alpha))
        for t, alpha in zip(res.ts, res.alphas)])
    action = float(simpson(ls, x=res.ts))
    gap = abs(action - res.alphas[-1][0])
    assert gap < 1e-8
    _report(9, "action integral",
            f"|alpha1 - integral L dt| = {gap:.2e} < 1e-8")


def test_criterion_10_propagator_branches():
    rng = np.random.default_rng(106)
    worst_rel = 0.0
    for wct in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        t = wct / OMEGA_C
        al = qf.constant_field_closed_form(M, OMEGA_C, E_X, E_Y, CHARGE, t=t)
        kd = degenerate_kernel(al, HBAR)
        kl = landau_kernel(M, OMEGA_C, HBAR, al, t)
        for _ in range(5):
            x, y, xp, yp = rng.uniform(-2, 2, 4)
            gd = kd(x, y, xp, yp)
            gl = kl(x, y, xp, yp)
            worst_rel = max(worst_rel, abs(gd - gl) / abs(gl))
    assert worst_rel < 1e-9

    base = rng.uniform(-0.3, 0.3, 15)
    base[8], base[9], base[10] = 0.31, 0.27, 0.0
    x, y, xp, yp = 0.4, -0.6, 0.9, 0.2
    gd = degenerate_kernel(base, HBAR)(x, y, xp, yp)
    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        al2 = base.copy()
        al2[10] = s
        errs.append(abs(generic_kernel(al2, HBAR)(x, y, xp, yp) - gd))
    assert errs[0] > errs[1] > errs[2]
    _report(10, "propagator branches",
            f"degenerate vs constant-field formula max rel {worst_rel:.2e} "
            f"< 1e-9; generic -> degenerate errors "
            f"{errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e}")


def test_criterion_11_wavepacket_cross_check():
    t = math.pi / 2
    al = qf.constant_field_closed_form(M, OMEGA_C, t=t)
    kern = landau_kernel(M, OMEGA_C, HBAR, al, t)
    state = GaussianState.separable([1.0, 0.5, 0.3, -0.2], 1.0, 1.0,
                                    hbar=HBAR)
    out = apply_kernel(kern, state, extent=10.0, points=128, hbar=HBAR)
    mean_pred, _ = qf.heisenberg_map(al).push_gaussian(state.mean,
                                                       state.covariance)
    mean_err = float(np.max(np.abs(out.mean - mean_pred)))
    norm_err = abs(out.norm - 1.0)
    assert mean_err < 1e-3
    assert norm_err < 1e-3
    _report(11, "wavepacket cross-check",
            f"128^2 grid: mean err {mean_err:.2e} < 1e-3, "
            f"norm err {norm_err:.2e} < 1e-3")


def test_criterion_12_parser_contract():
    import pytest

    assert define(*straight_line(parse_expression("0.5*sin(2*t)+1e-3")))(
        0.0) == 1e-3
    assert define(*straight_line(parse_expression("2^3^2")))(0.0) == 512.0
    with pytest.raises(qf.ParseError) as err:
        parse_expression("sin t")
    assert err.value.offset == 4

    from test_expressions import CORPUS

    assert len(CORPUS) >= 50
    for src in CORPUS:
        tree = parse_expression(src)
        assert parse_expression(pretty(tree)) == tree
    _report(12, "parser contract",
            f"3 grammar examples, byte-exact offsets, "
            f"{len(CORPUS)}-expression round-trip corpus")
