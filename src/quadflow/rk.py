"""Embedded Dormand-Prince 5(4) stepper with PI step-size control.

Propagates the 5th-order solution, estimates the local error from the
embedded 4th-order weights, and controls the step with the standard
proportional-integral rule (error exponent 0.2 - 0.75*beta, beta = 0.04).
Each accepted step stores the quartic dense-output polynomial, so solutions
can be evaluated anywhere without re-integration.

The state is a list of Python floats, and so is every argument and result
of ``f``.  A step attempt is one straight-line function on n named float
locals, generated and compiled once per state size n (:func:`_attempt`),
with no numpy call; a non-finite stage, state or error norm rejects the
step.  The dense output of all accepted steps is one product at the end.

``check(ts, ys)``, the one halting predicate, returns how many leading rows
of a stack pass.  It never steers the stepper before it refuses, so it sees
the end states of accepted steps in numpy stacks: they wait until
``_CHUNK`` of them are pending or the loop ends.  The first refused step
wins over everything after it: the steps past it are dropped, and an
exception of ``f`` raised past it is too.  The run stops (status
``refused``) at the last state ``check`` passes inside that step, bisected
on its dense polynomial; the steps before it are the ones a check after
every step would have taken, bit for bit.  Otherwise a run ends ``done`` at
``t_end``; ``underflow`` when the controller pushes the step size below the
resolvable floor or rejects 60 steps in a row; or ``budget`` after
``_MAX_ATTEMPTS`` step attempts, accepted or rejected.  Both leave the run
unresolved at its last accepted state, which may be ``y0``: the dense
solution is empty.

A run starts at t = 0, no step is longer than t_end / 50, and both time
thresholds are relative.  With s = min(1, t_end), the run's span capped at
1, the floor is 16 eps max(|t|, s), never below the smallest normal double
(which also refuses a zero step), and the bisection stops at a width of
1e-12 max(|t|, s).  So a short run resolves the phase a long one does:
landau with omega_c = 1e13 reaches t_end = 2.5e-13 as omega_c = 1 reaches
2.5.  A step that would leave less than the floor before t_end takes the
rest of the run, so a run lands on t_end exactly.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import chain
from typing import NamedTuple

import numpy as np

__all__ = ["RKResult", "DenseSolution", "solve"]

# Dormand-Prince 5(4) tableau.  Stage s + 1 (s = 1..6) is f at t + _C[s] h
# and y + h (_A[s] . (k1, ..., ks)); row 6 holds the fifth-order weights,
# so the seventh stage is f at the new state, the next step's first (FSAL)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# b - b_hat: weights of the embedded error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)
# quartic dense-output coefficients (Shampine's interpolant for this pair)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# accepted end states per call of ``check``
_CHUNK = 32
# step attempts, accepted or rejected, before a run ends as "budget"
# (DOPRI5's NMAX, Hairer, Norsett & Wanner, Solving ODEs I)
_MAX_ATTEMPTS = 100_000
# the smallest normal double: no shorter step is resolvable (nor a zero one)
_TINY = sys.float_info.min


class DenseSolution(NamedTuple):
    """Piecewise-quartic interpolant over the accepted steps.

    Row k of the stacked arrays is accepted step k: its start ``t0``, its
    length ``h``, its start state ``y0`` and its (n, 4) dense-output matrix
    ``q``.  A time at or before the first start uses step 0 and a time past
    the end uses the last step.
    """

    t0: np.ndarray
    h: np.ndarray
    y0: np.ndarray
    q: np.ndarray

    @property
    def segments(self) -> list:
        """One ``(t0, h, y0, q)`` tuple per accepted step."""
        return list(zip(self.t0, self.h, self.y0, self.q))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = np.minimum(np.searchsorted(self.t0 + self.h, t.ravel()),
                       self.t0.size - 1)
        y = _quartic(self.t0[k], self.h[k], self.y0[k], self.q[k], t.ravel())
        return y.reshape(t.shape + y.shape[-1:])


def _quartic(t0, h, y0, q, t):
    """y0 + h * q @ (x, x^2, x^3, x^4) with x = (t - t0) / h, row by row."""
    x = ((t - t0) / h).tolist()
    # scalar powers: numpy's array x ** 3 and x ** 4 round differently
    p = np.array([[v, v * v, v ** 3, v ** 4] for v in x])
    return y0 + h[:, None] * (q @ p[:, :, None])[:, :, 0]


class RKResult(NamedTuple):
    dense: DenseSolution
    status: str              # "done" | "refused" | "underflow" | "budget"
    t_stop: float            # final valid time
    y_stop: np.ndarray       # state at t_stop
    n_rhs: int
    y_refused: np.ndarray | None = None   # the first state check refused


# an attempt's result for a non-finite stage or state: err = nan rejects
_REJECT = (math.nan, None, None)


def _weighted(weights, i):
    """``w1 * k1_i + w2 * k2_i + ...`` over the nonzero weights, in order."""
    return " + ".join(f"{w!r} * k{j}_{i}"
                      for j, w in enumerate(weights, 1) if w)


def _attempt_source(n):
    """Source of ``attempt(f, t, h, y, k1, rtol, atol)`` for n floats.

    Stage s + 1 evaluates f on the list ``[y_i + h * (a_1 k1_i + ... +
    a_s ks_i)]``, each sum over the tableau row's nonzero weights, left to
    right; the seventh stage's list is the fifth-order state.  A stage with
    a non-finite entry returns ``_REJECT`` before the next stage is
    evaluated, and so does a non-finite fifth-order state.  Otherwise the
    error norm is sqrt((r_0 r_0 + r_1 r_1 + ...) / n), summed in that order,
    where r_i = h * (e_1 k1_i + ...) / (atol + rtol * max(|y_i|, |z_i|))
    and z is the new state; float ``*`` and ``/`` overflow to inf, which
    rejects the step, where ``**`` would raise.  Returns ``(err, z, (k1,
    ..., k7))``.
    """
    def unpack(name, prefix):
        names = "".join(f"{prefix}{i}, " for i in range(n)).rstrip(" ")
        return f"    {names} = {name}"

    def finite(name):
        # a finite sum has finite terms; the term test only runs to tell
        # finite terms whose sum overflows from a non-finite one
        return [f"    if not (isfinite(sum({name}))"
                f" or all(map(isfinite, {name}))):", "        return _REJECT"]

    lines = ["def attempt(f, t, h, y, k1, rtol, atol):",
             unpack("y", "y"), unpack("k1", "k1_")]
    for s in range(1, 7):
        state = ", ".join(f"y{i} + h * ({_weighted(_A[s], i)})"
                          for i in range(n))
        k = f"k{s + 1}"
        if s < 6:
            lines.append(f"    {k} = f(t + {_C[s]!r} * h, [{state}])")
        else:
            lines += [f"    z = [{state}]", f"    {k} = f(t + h, z)"]
        lines += [*finite(k), unpack(k, f"{k}_")]
    lines += [*finite("z"), unpack("z", "z")]
    for i in range(n):
        # a conditional: max(abs(.), abs(.)) costs about 0.1 us more
        lines += [f"    a = abs(y{i})", f"    b = abs(z{i})",
                  f"    r = h * ({_weighted(_E, i)}) / "
                  f"(atol + rtol * (a if a > b else b))",
                  "    s = r * r" if i == 0 else "    s += r * r"]
    lines.append(f"    return sqrt(s / {n}), z, (k1, k2, k3, k4, k5, k6, k7)")
    return "\n".join(lines) + "\n"


@functools.cache
def _attempt(n):
    """One Dormand-Prince attempt on states of ``n`` floats, compiled once
    per n: see :func:`_attempt_source`."""
    scope = {}
    exec(compile(_attempt_source(n), f"<quadflow.rk attempt, n = {n}>",
                 "exec"),
         {"isfinite": math.isfinite, "sqrt": math.sqrt, "_REJECT": _REJECT},
         scope)
    return scope["attempt"]


def _rms(values):
    """sqrt(mean(v * v)), summed left to right."""
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total / len(values))


def _initial_step(f, y0, f0, cap, rtol, atol):
    # a huge f0 overflows the scaled norms to inf (float * and / do not
    # raise), which yields h = 0 and the underflow outcome
    scale = [atol + rtol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, cap)
    if h0 == 0:  # a span that underflows: no step resolves
        return 0.0
    f1 = f(h0, [v + h0 * d for v, d in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, cap)


def _crossing(t0, h, y0, q, ok, span):
    """Bisect inside one accepted step, whose start passes ``ok`` and whose
    end fails it, to a width of 1e-12 * max(|t|, span), where ``span`` is
    the run's length, capped at 1 (see :func:`solve`).

    Returns ``(t, y)`` at the last passing time found, evaluated on the
    step's polynomial.
    """
    step = np.array([t0]), np.array([h]), y0[None], q[None]

    def y_at(t):
        return _quartic(*step, np.array([t]))[0]

    t_lo, t_hi = t0, t0 + h
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        if ok(t_mid, y_at(t_mid)):
            t_lo = t_mid
        else:
            t_hi = t_mid
        if t_hi - t_lo < 1e-12 * max(abs(t_hi), span):
            break
    return t_lo, y_at(t_lo)


def solve(f, y0, t_end, rtol=1e-10, atol=1e-10, check=None) -> RKResult:
    """Integrate y' = f(t, y) from y(0) = ``y0`` to t_end in steps of at
    most t_end / 50; raises ValueError, before the first call of ``f``,
    unless t_end, rtol and atol are positive and finite.

    Parameters
    ----------
    f : callable (t, y) -> a new list of floats, for a list ``y`` of
        len(y0) Python floats (every call gets one); may return non-finite
        values, which reject the current step.  The lists it returns are
        kept as the step's stages, not copied.
    check : optional callable (ts, ys) -> the number of leading rows that
        pass, for an (n,) array of times and an (n, len(y0)) stack of
        states; called on the end states of accepted steps, in stacks of up
        to ``_CHUNK``, and on the bisection's probes, one row each.  The
        first refused row (``y_refused``) halts the run at the last state
        ``check`` passes inside its step.
    """
    y = np.asarray(y0, dtype=float).tolist()
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end = {t_end!r} must be positive and finite")
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError(f"rtol = {rtol!r} and atol = {atol!r} must be "
                         "positive and finite")
    cap = t_end / 50
    attempt = _attempt(len(y))
    n_rhs = 0

    def rhs(t, y):
        nonlocal n_rhs
        n_rhs += 1
        return f(t, y)

    t = 0.0
    k1 = rhs(t, y)
    h = _initial_step(rhs, y, k1, cap, rtol, atol)

    steps = []  # (t0, h, y0, stages) per accepted step
    pending = []  # (t + h, y_new) of the last accepted steps, not checked
    refused = None  # (index into steps, end state) of the first refused

    def first_refused():
        # check the pending end states in one stack
        if check is None or not pending:
            return None
        ts, ys = zip(*pending)
        ys = np.array(ys)
        passed = check(np.array(ts), ys)
        pending.clear()
        return None if passed == len(ts) else \
            (len(steps) - len(ts) + passed, ys[passed])

    facold = 1e-4
    status = "done"
    # thresholds scale with |t|, or with the run's span below t_end = 1
    span = min(1.0, t_end)
    floor = 16 * np.finfo(float).eps
    rejections = 0  # consecutive; a long streak means no h can be certified
    attempts = 0
    try:
        while t < t_end:
            h = min(h, cap, t_end - t)
            least = floor * max(abs(t), span)
            # no sliver of a step before t_end (DOPRI5's rule, below the
            # floor): a sum of capped steps may fall a few ulps short of it
            if t_end - (t + h) < least:
                h = t_end - t
            if h < max(least, _TINY) or rejections > 60:
                status = "underflow"
                break
            if attempts == _MAX_ATTEMPTS:
                status = "budget"
                break
            attempts += 1
            # a non-finite stage or state returns err = nan
            err, y_new, stages = attempt(rhs, t, h, y, k1, rtol, atol)
            if not math.isfinite(err):
                h *= 0.25
                rejections += 1
                continue
            if err > 1.0:
                # rejected: plain proportional shrink, no PI memory update
                factor = max(_MIN_FACTOR, _SAFETY * err ** (-_EXPO))
                h *= min(1.0, factor)
                rejections += 1
                continue
            # accepted; check sees the end state later, with its chunk, and
            # its answer never changes the steps taken before a refusal
            rejections = 0
            steps.append((t, h, y, stages))
            pending.append((t + h, y_new))
            if len(pending) == _CHUNK:
                refused = first_refused()
                if refused is not None:
                    break
            # PI controller (accepted step)
            fac11 = err ** _EXPO if err > 0 else 1e-10
            factor = min(_MAX_FACTOR,
                         max(_MIN_FACTOR, _SAFETY * facold ** _BETA / fac11))
            facold = max(err, 1e-4)
            t, y = t + h, y_new
            h *= factor
            k1 = stages[6]  # FSAL
    except Exception:
        # an error of f past a refused state is not part of the run
        refused = first_refused()
        if refused is None:
            raise
    if refused is None:
        refused = first_refused()
    if refused is not None:
        # the first refused step is the last one kept
        del steps[refused[0] + 1:]

    n = len(y)
    t0s, hs, y0s, ks = zip(*steps) if steps else ((), (), (), ())
    # each step's dense-output matrix K^T P, all steps in one product
    flat = chain.from_iterable(chain.from_iterable(ks))
    stages = np.fromiter(flat, float, 7 * n * len(ks))
    dense = DenseSolution(np.array(t0s), np.array(hs),
                          np.array(y0s).reshape(-1, n),
                          stages.reshape(-1, 7, n).transpose(0, 2, 1) @ _P)
    if refused is not None:
        # halt inside the first refused step at the last state check
        # passes; the step keeps its full length: its polynomial is only
        # valid with the h it was built with, and t_stop marks the end
        def ok(t_mid, y_mid):
            return check(np.array([t_mid]), y_mid[None]) == 1

        status = "refused"
        t, y = _crossing(t0s[-1], hs[-1], dense.y0[-1], dense.q[-1], ok,
                         span)
    return RKResult(dense=dense, status=status, t_stop=t,
                    y_stop=np.array(y, dtype=float), n_rhs=n_rhs,
                    y_refused=refused and refused[1])
