"""Integration of the transformation-parameter flow alpha_dot = mu(a(t), alpha).

The flow starts from alpha(0) = 0 (the evolution operator is the identity at
t = 0) and is advanced with the embedded 5(4) pair from :mod:`.rk` at tight
default tolerances.  The factorization has coordinate singularities - for
the pure-magnetic-field case alpha_6 grows like tan(omega_c t / 2) and
diverges at omega_c t = pi - so breakdown is a result, not an exception.

The right-hand side is the transcribed flow equations on Python floats,
compiled for the schedule's structural zeros (:func:`.reduction.flow_rhs`:
loading a config compiles it, and ``integrate`` asks for it again): the
terms that the zero coefficients and the alphas that stay at 0 make zero
are gone, so a Hamiltonian without linear terms never evaluates the
equations of alpha1..alpha5, and the one code
generator of :mod:`.expressions` computes each repeated operation once
and nests the others inline.  Its values are those of
:func:`.reduction.explicit_rhs` bit for bit.  At every stage it
gets the list the schedule's compiled function returns and the list of
floats the stepper's attempt passes, a function compiled for 15 entries
when this module is imported.  The attempt checks each stage as it returns, and a
non-finite entry (an overflowing term makes the whole stage NaN) rejects the
step before another stage is evaluated.  One predicate decides where the
chart ends.  Its first clause is the chart itself: S00 = e^{2 alpha_12} and
the Schur complement e^{2 alpha_13} of the Heisenberg map vanish where the
factorization ends (every other alpha is a rational function of the map with
those two in its denominators), so a state is refused when it is not finite
or min(e^{2 alpha_12}, e^{2 alpha_13}) < ``_CHART_EPS``.  Its second, on the
rows the first passes, is the conditioning sentinel det(nu) = 1 in the
matrix pipeline (:func:`.reduction.assemble`), whose one call names the
first row it refuses.  The predicate reads alpha alone and does not steer
the stepper until it refuses, so the stepper hands it the end states of
accepted steps in stacks of up to 32.  The first refused step is kept, the
steps past it are dropped, and the crossing is bisected on its dense
polynomial; the flow stops at the last state that passes, the last written
row.  The :class:`Breakdown` reads the first refused state, that step's end.
An unresolved flow is no breakdown: a spent step budget raises
:class:`.StepBudget`, a step that cannot be resolved at all (below the
step-size floor, 60 rejections in a row) :class:`.StepUnderflow`.

:func:`constant_field_closed_form` holds the analytic solution for constant
perpendicular magnetic plus in-plane electric fields; it is the oracle the
acceptance suite integrates against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import rk
from .digits import g17_rows
from .errors import SingularNu, SingularTime, StepBudget, StepUnderflow
from .reduction import assemble, flow_rhs
from .schedule import N_GENERATORS, CoefficientSchedule

__all__ = ["Breakdown", "FlowResult", "integrate",
           "constant_field_closed_form", "write_alphas_csv"]


class Breakdown(NamedTuple):
    """The chart ended.  ``index`` and ``reason`` read the first state the
    predicate refused, that step's end: chart-end names the coordinate,
    12 or 13, whose e^{2 alpha} fell below ``_CHART_EPS``, and ``t_break``
    is its pole estimate, after the stop ``ts[-1]``, or the stop where
    the coordinate fits no root (a squeeze has none); singular-nu
    (det(nu) != 1) names the largest chart coordinate |alpha_6..15|, and
    ``t_break`` is the stop."""

    t_break: float
    index: int            # 1-based
    reason: str           # "chart-end" | "singular-nu"


class FlowResult(NamedTuple):
    ts: np.ndarray              # (samples + 1,) uniform on [0, t_stop]
    alphas: np.ndarray          # (n, 15) alpha at each sample time
    breakdown: Breakdown | None
    dense: rk.DenseSolution
    n_rhs: int

    def interpolate(self, t):
        """Dense-output evaluation of alpha(t) within the integrated span.

        Raises ValueError for any t outside [0, ``ts[-1]``]: past the span
        the last step's polynomial is an extrapolation, not the flow.
        """
        t_arr = np.asarray(t, dtype=float)
        if not np.all((t_arr >= 0.0) & (t_arr <= self.ts[-1])):
            raise ValueError(f"t outside the integrated span "
                             f"[0, {float(self.ts[-1])!r}]")
        return self.dense(t)


_NO_COEFFICIENTS = np.zeros(N_GENERATORS)
# alphas CSV rows per ``%`` operation: bounds the block's transient strings
_BLOCK = 256
# the least e^{2 alpha12}, e^{2 alpha13} the chart keeps
_CHART_EPS = 1e-3
# the stepper's attempt for the 15 alphas compiles here, with the imports,
# not inside the first run
rk._attempt(N_GENERATORS)


@np.errstate(over="ignore")
def _chart(alphas):
    """min(e^{2 alpha12}, e^{2 alpha13}) over the last axis."""
    return np.min(np.exp(2 * alphas[..., 11:13]), axis=-1)


def _pole(rhs, dense, t, i):
    """The pole of coordinate ``i`` (0-based) ahead of the stop t, and the
    number of ``rhs`` calls made.  Near a root of order k of e^{2 alpha},
    alpha goes as (k/2) log(t_p - t), so t_p = t + alpha_dot / alpha_ddot
    and k = -2 alpha_dot**2 / alpha_ddot.  alpha_ddot is the second-order
    backward difference of alpha_dot along ``dense``, inside the span, with
    a step of 1e-3 of the distance 1 / (2 |alpha_dot|) to a simple root.  A
    coordinate that only decays fits no root (a constant squeeze has
    alpha_ddot = 0; a faster one implies k > 6), so the pole falls back to t
    unless k is within 0.1 of a whole order 1..4 and t_p is finite and
    >= t."""
    v0 = rhs(t, dense(t).tolist())[i]
    dt = min(5e-4 / abs(v0), 0.25 * t) if math.isfinite(v0) and v0 else 0.0
    if not dt:
        return t, 1
    v1, v2 = (rhs(s, dense(s).tolist())[i] for s in (t - dt, t - 2 * dt))
    accel = (3 * v0 - 4 * v1 + v2) / (2 * dt)
    order = -2 * v0 * v0 / accel if accel else math.inf
    t_pole = t + v0 / accel if 0.5 < order < 4.5 \
        and abs(order - round(order)) < 0.1 else t
    return (t_pole if t <= t_pole < math.inf else t), 3


def integrate(schedule: CoefficientSchedule, t_end: float, *, rtol=1e-10,
              atol=1e-10, samples=200) -> FlowResult:
    """Integrate the flow from alpha(0) = 0, the identity, to ``t_end``;
    raises StepBudget if the step budget runs out first and StepUnderflow
    if no step resolves.  ``rk.solve`` refuses ``t_end``, ``rtol`` and
    ``atol`` before the first right-hand side call.

    Parameters
    ----------
    schedule : coefficient functions a(t); non-finite evaluations raise
        InvalidSchedule
    samples : number of uniform intervals, an integer >= 1; ``ts`` holds
        samples + 1 times spanning [0, t_stop]

    Returns
    -------
    FlowResult over at least one accepted step; if breakdown occurred,
    samples stop at the last state the predicate passes, ``ts[-1]`` <=
    ``t_break``.
    """
    if not (isinstance(samples, (int, np.integer)) and samples >= 1):
        raise ValueError(f"samples = {samples!r} must be an integer >= 1")
    kernel = flow_rhs(schedule.zeros)

    def rhs(t, alpha):
        # InvalidSchedule propagates; an overflowing term is a NaN stage
        return kernel(schedule.coefficients(t), alpha)

    def conditioned(ts, alphas):
        # rows before the first off the chart go to one assemble call, which
        # names the first it refuses (det(nu) != 1 past double precision);
        # it reads alpha alone: zero coefficients
        on = np.isfinite(alphas).all(axis=1) & (_chart(alphas) >= _CHART_EPS)
        n = len(alphas) if on.all() else int(np.argmin(on))
        try:
            if n:
                assemble(_NO_COEFFICIENTS, alphas[:n])
        except SingularNu as refusal:
            return refusal.row
        return n

    res = rk.solve(rhs, [0.0] * N_GENERATORS, t_end, rtol=rtol, atol=atol,
                   check=conditioned)
    if res.status == "budget":
        raise StepBudget(f"the flow spent {rk._MAX_ATTEMPTS} step attempts "
                         f"and reached only t = {res.t_stop!r} of t_end = "
                         f"{t_end!r}")
    if res.status == "underflow":
        raise StepUnderflow(f"no step of the flow resolves at t = "
                            f"{res.t_stop!r} of t_end = {t_end!r}")

    breakdown, n_rhs = None, res.n_rhs
    if res.status == "refused":
        # accepted states are finite, so the refused one fails a clause
        refused = res.y_refused
        if _chart(refused) < _CHART_EPS:
            i = 11 + int(np.argmin(refused[11:13]))
            t_pole, calls = _pole(rhs, res.dense, res.t_stop, i)
            breakdown = Breakdown(t_break=t_pole, index=i + 1,
                                  reason="chart-end")
            n_rhs += calls
        else:
            chart = np.abs(refused[5:])   # alpha6..alpha15
            breakdown = Breakdown(t_break=res.t_stop, reason="singular-nu",
                                  index=6 + int(np.argmax(chart)))

    # uniform sample grid over the integrated span (samples + 1 rows in the
    # CSV contract); the dense interpolant carries the per-step resolution
    ts = np.linspace(0.0, res.t_stop, samples + 1)
    return FlowResult(ts=ts, alphas=res.dense(ts), breakdown=breakdown,
                      dense=res.dense, n_rhs=n_rhs)


# x**3 * (c_0 + c_1 x**2 + ...) for |x| < 1/2, where the direct forms of
# x - sin(x) and sin(x) - x cos(x) cancel: the Taylor coefficients
# (-1)^n / (2n+3)! and (-1)^n (2n+2) / (2n+3)!, n = 0..8
_WT_MINUS_SIN = [(-1) ** n / math.factorial(2 * n + 3) for n in range(9)]
_SIN_MINUS_WT_COS = [(-1) ** n * (2 * n + 2) / math.factorial(2 * n + 3)
                     for n in range(9)]


def _odd_series(x, coeffs, direct):
    """``direct`` where |x| >= 1/2, the odd Taylor series below that."""
    small = np.abs(x) < 0.5
    xs = np.where(small, x, 0.0)   # large x would overflow the unused series
    return np.where(small, xs ** 3 * np.polyval(coeffs[::-1], xs * xs), direct)


def constant_field_closed_form(m, omega_c, E_x=0.0, E_y=0.0, e=1.0, t=0.0):
    """Analytic transformation parameters for the constant-field Hamiltonian.

    Valid on the first factorization branch omega_c*t in (-pi, pi); raises
    SingularTime at and beyond the tan/log singularity, for every
    |omega_c*t| >= pi (and where cos(omega_c*t/2) <= 1e-12 just below it).

    Accepts scalar or array ``t``; returns shape (..., 15).  A zero (or
    underflowing) m*omega_c**k, k = 1..3, raises SingularTime as well.
    """
    if not all(m * omega_c ** k for k in (1, 2, 3)):
        raise SingularTime(f"closed form undefined: m*omega_c**k vanishes for "
                           f"m = {m!r}, omega_c = {omega_c!r}")
    t_arr = np.asarray(t, dtype=float)
    th = 0.5 * omega_c * t_arr                 # half cyclotron phase
    c, s = np.cos(th), np.sin(th)
    wt = omega_c * t_arr
    if np.any((c <= 1e-12) | (np.abs(wt) >= math.pi)):
        raise SingularTime(
            "closed form undefined at/beyond |omega_c*t| = pi: "
            f"max |omega_c*t| = {float(np.max(np.abs(wt)))!r}, "
            f"cos(omega_c*t/2) = {float(np.min(c))!r}")
    sin_wt = np.sin(wt)
    one_m_cos = 2 * np.sin(0.5 * wt) ** 2                  # 1 - cos(wt)
    wt_m_sin = _odd_series(wt, _WT_MINUS_SIN, wt - sin_wt)  # wt - sin(wt)
    out = np.zeros(t_arr.shape + (N_GENERATORS,))
    E2 = E_x ** 2 + E_y ** 2
    # (sin(wt) - wt*cos(wt)) / omega_c**3 etc. are grouped so that no two
    # O(1/omega_c**k) terms cancel: small omega_c*t keeps full accuracy
    out[..., 0] = e * (e * E2) / (2 * m * omega_c ** 3) * _odd_series(
        wt, _SIN_MINUS_WT_COS, sin_wt - wt * np.cos(wt))
    out[..., 1] = (0.5 * e * E_x * (t_arr + sin_wt / omega_c)
                   - e * E_y / (2 * omega_c) * one_m_cos)
    out[..., 2] = (e * E_x / (2 * omega_c) * one_m_cos
                   + 0.5 * e * E_y * (t_arr + sin_wt / omega_c))
    out[..., 3] = e / (m * omega_c ** 2) * (E_y * wt_m_sin - E_x * one_m_cos)
    out[..., 4] = -e / (m * omega_c ** 2) * (E_x * wt_m_sin + E_y * one_m_cos)
    tan_th = s / c
    out[..., 5] = out[..., 6] = 0.25 * m * omega_c * tan_th   # alpha6, alpha7
    # alpha8 = 0
    out[..., 8] = out[..., 9] = c * s / (m * omega_c)         # alpha9, alpha10
    # alpha11 = 0
    out[..., 11] = np.log(c)                                  # alpha12
    # alpha13 = 0
    out[..., 13] = c * s                                      # alpha14
    out[..., 14] = -tan_th                                    # alpha15
    return out


def write_alphas_csv(result: FlowResult, path):
    """CSV with header t,alpha1,...,alpha15 and one row per sample, every
    field ``%.17g``; up to ``_BLOCK`` rows are formatted by one ``%`` on
    the digits of their fields (:func:`.digits.g17_rows`)."""
    header = "t," + ",".join(f"alpha{i}" for i in range(1, N_GENERATORS + 1))
    after = [","] * N_GENERATORS + ["\n"]
    table = np.column_stack([result.ts, result.alphas])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _BLOCK):
            fh.write(g17_rows(table[start:start + _BLOCK], after))
