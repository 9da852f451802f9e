"""Integration of the transformation-parameter flow alpha_dot = mu(a(t), alpha).

The flow starts from alpha(0) = 0 (the evolution operator is the identity at
t = 0) and is advanced with the embedded 5(4) pair from :mod:`.rk` at tight
default tolerances.  The factorization has coordinate singularities - for
the pure-magnetic-field case alpha_6 grows like tan(omega_c t / 2) and
diverges at omega_c t = pi - so breakdown is a first-class result, not an
exception: integration halts when any |alpha_i| exceeds ``magnitude_cap``
or when the step size underflows, and reports the offending component and a
bracketed breakdown time.

The right-hand side is the transcribed flow equations on Python floats
(:func:`.reduction.explicit_rhs`), fed the list the schedule's compiled
function returns, and the stepper checks each stage on those floats.  The
matrix pipeline (:func:`.reduction.assemble`) checks the end state of every
accepted step: its det(nu) = 1 check is the conditioning sentinel.  det(nu)
depends on alpha alone, so the sentinel reads no coefficients and the
schedule is evaluated once per right-hand side; and its answer does not
steer the stepper until it refuses, so the stepper hands it the end states
in stacks of up to 32, one ``assemble`` call each, which names the first
refused state.  That step is kept, the steps past it are dropped, and the
sentinel's crossing is bisected on that step's dense polynomial; the flow
halts at the last state it passes, a step-underflow breakdown, since no
step can be certified beyond it.

:func:`constant_field_closed_form` holds the analytic solution for constant
perpendicular magnetic plus in-plane electric fields; it is the oracle the
acceptance suite integrates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rk
from .algebra import N_GENERATORS
from .errors import SingularNu, SingularTime
from .reduction import assemble, explicit_rhs
from .schedule import CoefficientSchedule

__all__ = ["Breakdown", "FlowResult", "integrate",
           "constant_field_closed_form", "write_alphas_csv"]


@dataclass(frozen=True)
class Breakdown:
    t_break: float
    index: int            # offending generator index, 1-based
    reason: str           # "magnitude-overflow" | "step-underflow"


@dataclass
class FlowResult:
    ts: np.ndarray              # (n,) sample times, strictly increasing
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
        if not self.dense.t0.size:   # halted before any step: the span is {0}
            return np.tile(self.alphas[-1], np.shape(t) + (1,))
        return self.dense(t)


_NO_COEFFICIENTS = np.zeros(N_GENERATORS)


def integrate(schedule: CoefficientSchedule, t_end: float, *, rtol=1e-10,
              atol=1e-10, max_step=None, magnitude_cap=1e8, samples=200,
              initial_alpha=None) -> FlowResult:
    """Integrate the flow from t = 0 to ``t_end``.

    Parameters
    ----------
    schedule : coefficient functions a(t); non-finite evaluations raise
        InvalidSchedule
    samples : number of uniform intervals; ``ts`` holds samples + 1 times
        spanning [0, t_stop] (a single 0.0 if the flow halts before its
        first step)
    magnitude_cap : |alpha_i| bound beyond which the factorization is
        declared broken down
    initial_alpha : optional 15-vector for piecewise continuation (defaults
        to zeros, the identity factorization)

    Returns
    -------
    FlowResult; if breakdown occurred, samples stop at ``t_break``.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    alpha0 = np.zeros(N_GENERATORS) if initial_alpha is None \
        else np.asarray(initial_alpha, dtype=float).copy()
    if alpha0.shape != (N_GENERATORS,):
        raise ValueError("initial_alpha must be a 15-vector")

    def rhs(t, alpha):
        # InvalidSchedule propagates; an overflowing term is a NaN stage
        return explicit_rhs(schedule.coefficients(t), alpha.tolist())

    def conditioned(ts, alphas):
        # assemble's det(nu) = 1 assertion is the conditioning sentinel: once
        # the matrix entries outrun double precision the factorization data
        # is meaningless, so the flow halts at the last state it passes.
        # det(nu) depends on alpha alone, so the coefficients are zeros.
        # One call checks the stack and names its first refused row
        try:
            assemble(_NO_COEFFICIENTS, alphas)
        except SingularNu as refusal:
            return refusal.row
        return len(alphas)

    res = rk.solve(rhs, 0.0, alpha0, t_end, rtol=rtol, atol=atol,
                   max_step=max_step, cap=magnitude_cap, check=conditioned)

    breakdown = None
    if res.status != "done":
        # the largest component at the stop; a halt before the first step
        # stops at alpha0, so there the fastest-moving one, by |alpha_dot|
        offending = res.y_stop if res.dense.t0.size else explicit_rhs(
            schedule.coefficients(res.t_stop), res.y_stop.tolist())
        breakdown = Breakdown(
            t_break=res.t_stop, index=int(np.argmax(np.abs(offending))) + 1,
            reason={"cap": "magnitude-overflow",
                    "underflow": "step-underflow"}[res.status])

    # uniform sample grid over the integrated span (samples + 1 rows in the
    # CSV contract); the dense interpolant carries the per-step resolution
    if res.dense.t0.size:
        ts = np.linspace(0.0, res.t_stop, samples + 1)
        alphas = res.dense(ts)
    else:                                         # halted before any step
        ts, alphas = np.array([0.0]), alpha0[None]
    return FlowResult(ts=ts, alphas=alphas, breakdown=breakdown,
                      dense=res.dense, n_rhs=res.n_rhs)


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
    out[..., 0] = e ** 2 * E2 / (2 * m * omega_c ** 3) * _odd_series(
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
    field ``%.17g``."""
    header = "t," + ",".join(f"alpha{i}" for i in range(1, N_GENERATORS + 1))
    row = ",".join(["%.17g"] * (N_GENERATORS + 1)) + "\n"
    table = np.column_stack([result.ts, result.alphas]).tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(map(row.__mod__, map(tuple, table)))
