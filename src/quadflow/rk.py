"""Embedded Dormand-Prince 5(4) stepper with PI step-size control.

Propagates the 5th-order solution, estimates the local error from the
embedded 4th-order weights, and controls the step with the standard
proportional-integral rule (error exponent 0.2 - 0.75*beta, beta = 0.04).
Each accepted step stores the quartic dense-output polynomial, so solutions
can be evaluated anywhere without re-integration.

``check(ts, ys)``, the one halting predicate, returns how many leading rows
of a stack pass.  It never steers the stepper before it refuses, so it sees
the end states of accepted steps in stacks: they wait until ``_CHUNK`` of
them are pending or the loop ends.  The first refused step wins over
everything after it: the steps past it are dropped, and an exception of
``f`` raised past it is too.  The run stops (status ``refused``) at the last
state ``check`` passes inside that step, bisected on its dense polynomial;
the steps before it are the ones a check after every step would have taken,
bit for bit.  Otherwise a run ends ``done`` at ``t_end``; ``underflow`` when
the controller pushes the step size below the resolvable floor or rejects
60 steps in a row (non-finite stage values or error norms reject a step
rather than raising); or ``budget`` after ``_MAX_ATTEMPTS`` step attempts,
accepted or rejected, whose length the controller chose (shorter than both
``max_step`` and the rest of the run).  Both leave the run unresolved at
its last accepted state, which may be ``y0``: the dense solution is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["RKResult", "DenseSolution", "solve"]

# Dormand-Prince 5(4) tableau
# stage times t + c h are Python floats, like everything f sees
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b - b_hat: weights of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
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
# controller-sized step attempts, accepted or rejected, before a run ends
# as "budget" (DOPRI5's NMAX, Hairer, Norsett & Wanner, Solving ODEs I)
_MAX_ATTEMPTS = 100_000


@dataclass
class DenseSolution:
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


@dataclass
class RKResult:
    dense: DenseSolution
    status: str              # "done" | "refused" | "underflow" | "budget"
    t_stop: float            # final valid time
    y_stop: np.ndarray       # state at t_stop
    n_rhs: int
    y_refused: np.ndarray | None = None   # the first state check refused


# an overflowing scale accepts the step, an overflowing ratio rejects it
@np.errstate(over="ignore", invalid="ignore")
def _error_norm(delta, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return math.sqrt(float(np.mean((delta / scale) ** 2)))


def _initial_step(f, t0, y0, f0, t_end, rtol, atol, max_step):
    scale = atol + rtol * np.abs(y0)
    # a huge f0 overflows the scaled norms to inf, which yields h = 0 and
    # the underflow outcome; that is a result, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
        d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        h0 = min(h0, t_end - t0, max_step)
        if h0 == 0:  # a span or max_step that underflows: no step resolves
            return 0.0
        y1 = y0 + h0 * f0
        f1 = np.asarray(f(t0 + h0, y1))
        d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0, max_step)


def _crossing(t0, h, y0, q, ok):
    """Bisect inside one accepted step, whose start passes ``ok`` and whose
    end fails it, to a width of 1e-12 * max(1, |t|).

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
        if t_hi - t_lo < 1e-12 * max(1.0, abs(t_hi)):
            break
    return t_lo, y_at(t_lo)


def solve(f, t0, y0, t_end, rtol=1e-10, atol=1e-10, max_step=None,
          check=None) -> RKResult:
    """Integrate y' = f(t, y) from t0 to t_end.

    Parameters
    ----------
    f : callable (t, y) -> list of floats; may return non-finite values,
        which reject the current step
    check : optional callable (ts, ys) -> the number of leading rows that
        pass, for an (n,) array of times and an (n, len(y0)) stack of
        states; called on the end states of accepted steps, in stacks of up
        to ``_CHUNK``, and on the bisection's probes, one row each.  The
        first refused row (``y_refused``) halts the run at the last state
        ``check`` passes inside its step.
    """
    y0 = np.asarray(y0, dtype=float)
    if t_end <= t0:
        raise ValueError("t_end must exceed t0")
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    if max_step is None:
        max_step = (t_end - t0) / 50
    n_rhs = 0

    def rhs(t, y):
        nonlocal n_rhs
        n_rhs += 1
        return f(t, y)

    t, y = float(t0), y0.copy()
    k1 = np.array(rhs(t, y), dtype=float)
    h = _initial_step(rhs, t, y, k1, t_end, rtol, atol, max_step)

    steps = []  # (t0, h, y0, q) per accepted step
    pending = []  # (t + h, y_new) of the last accepted steps, not checked
    refused = None  # (index into steps, end state) of the first refused

    def first_refused():
        # check the pending end states in one stack
        if check is None or not pending:
            return None
        ts, ys = zip(*pending)
        passed = check(np.array(ts), np.array(ys))
        pending.clear()
        return None if passed == len(ts) else \
            (len(steps) - len(ts) + passed, ys[passed])

    facold = 1e-4
    status = "done"
    K = np.empty((7, y.size))
    rejections = 0  # consecutive; a long streak means no h can be certified
    attempts = 0
    try:
        while t < t_end:
            # only a step the controller sized counts against the budget;
            # one that max_step or t_end cut never ends a run
            sized = h < min(max_step, t_end - t)
            h = min(h, max_step, t_end - t)
            if h < 16 * np.finfo(float).eps * max(abs(t), 1.0) \
                    or rejections > 60:
                status = "underflow"
                break
            if attempts == _MAX_ATTEMPTS:
                status = "budget"
                break
            attempts += sized
            K[0] = k1
            err = math.nan  # a non-finite stage, state or error norm rejects
            for s in range(1, 7):
                row = rhs(t + _C[s] * h, y + h * (K[:s].T @ _A[s]))
                K[s] = row
                # a finite sum has finite terms; the array test only runs to
                # tell finite terms whose sum overflows from a non-finite one
                if not (math.isfinite(sum(row)) or np.all(np.isfinite(K[s]))):
                    break
            else:
                y_new = y + h * (K.T @ _B)
                if np.all(np.isfinite(y_new)):
                    err = _error_norm(h * (K.T @ _E), y, y_new, rtol, atol)
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
            steps.append((t, h, y, K.T @ _P))
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
            # FSAL; a copy, since the next attempt overwrites K[6] even
            # when it is rejected
            k1 = K[6].copy()
    except Exception:
        # an error of f past a refused state is not part of the run
        refused = first_refused()
        if refused is None:
            raise
    if refused is None:
        refused = first_refused()

    if refused is not None:
        # halt inside the first refused step at the last state check
        # passes; the step keeps its full length: its polynomial is only
        # valid with the h it was built with, and t_stop marks the end
        del steps[refused[0] + 1:]

        def ok(t_mid, y_mid):
            return check(np.array([t_mid]), y_mid[None]) == 1

        status, (t, y) = "refused", _crossing(*steps[-1], ok)

    t0s, hs, y0s, qs = zip(*steps) if steps else ((), (), (), ())
    dense = DenseSolution(np.array(t0s), np.array(hs),
                          np.array(y0s).reshape(-1, y.size),
                          np.array(qs).reshape(-1, y.size, 4))
    return RKResult(dense=dense, status=status, t_stop=t, y_stop=y,
                    n_rhs=n_rhs, y_refused=refused and refused[1])
