"""Time-dependent coefficient schedules a_1(t)..a_15(t) for the flow.

Coefficient slots follow the generator order: a1 (constant), a2 x, a3 y,
a4 p_x, a5 p_y, a6 x^2, a7 y^2, a8 xy, a9 p_x^2, a10 p_y^2, a11 p_x p_y,
a12 (x p_x + p_x x), a13 (y p_y + p_y y), a14 x p_y, a15 y p_x.

Schedules come either from parsed expressions (see :mod:`.expressions`) or
from named presets:

* ``landau(m, omega_c, E_x, E_y, e)`` - charged particle in a constant
  perpendicular magnetic field and in-plane electric field (symmetric
  gauge): a2 = e*E_x, a3 = e*E_y, a6 = a7 = m*omega_c^2/8, a9 = a10 = 1/(2m),
  a14 = -a15 = omega_c/2.
* ``free(m)`` - a9 = a10 = 1/(2m).
* ``harmonic1d(m, omega)`` - 1D oscillator along x: a6 = m*omega^2/2,
  a9 = 1/(2m).
* ``kanai_caldirola(m, omega, lam)`` - damped oscillator along x with
  exponentially scaled mass: a9 = exp(-lam*t)/(2m), a6 = m*omega^2*exp(lam*t)/2.
"""

from __future__ import annotations

import numpy as np

from . import expressions as ex
from .algebra import N_GENERATORS
from .errors import InvalidSchedule

__all__ = ["PRESETS", "CoefficientSchedule"]

# preset name -> the parameters its constructor takes besides hbar
PRESETS = {
    "landau": ("m", "omega_c", "E_x", "E_y", "e"),
    "free": ("m",),
    "harmonic1d": ("m", "omega"),
    "kanai_caldirola": ("m", "omega", "lam"),
    "zero": (),
}


def _check_mass(m):
    # every massive preset carries the kinetic coefficient 1/(2m)
    if m == 0:
        raise InvalidSchedule("preset parameter m = 0: the kinetic "
                              "coefficients 1/(2m) are undefined")


class CoefficientSchedule:
    """The 15 coefficient functions plus hbar.

    Evaluation returns a plain float 15-vector; any non-finite or undefined
    value raises :class:`InvalidSchedule` naming the coefficient and time.
    """

    def __init__(self, funcs, hbar=1.0, kind="custom", params=None):
        if len(funcs) != N_GENERATORS:
            raise ValueError("need exactly 15 coefficient functions")
        self._funcs = list(funcs)
        self.hbar = float(hbar)
        self.kind = kind
        self.params = dict(params or {})

    # -- construction ---------------------------------------------------

    @classmethod
    def from_constant_vector(cls, a, hbar=1.0, kind="custom", params=None):
        a = np.asarray(a, dtype=float)
        if a.shape != (N_GENERATORS,):
            raise ValueError("coefficient vector must have 15 entries")
        funcs = [(lambda v: (lambda t: v))(v) for v in a]
        return cls(funcs, hbar=hbar, kind=kind, params=params)

    @classmethod
    def from_expressions(cls, sources, constants=None, hbar=1.0):
        """Build from {index or 'a<index>': source-or-tree}; missing slots are 0.

        Unknown names are rejected up front (every expression must evaluate
        over the run interval).
        """
        constants = dict(constants or {})
        trees = {}
        for key, src in sources.items():
            idx = int(str(key).lstrip("a")) if not isinstance(key, int) else key
            if not 1 <= idx <= N_GENERATORS:
                raise ValueError(f"coefficient index out of range: {key!r}")
            tree = src if not isinstance(src, str) else ex.parse_expression(src)
            unknown = ex.free_names(tree) - set(constants)
            if unknown:
                raise InvalidSchedule(
                    f"a{idx} references undefined constants {sorted(unknown)}",
                    coefficient=idx)
            trees[idx] = tree
        funcs = []
        for i in range(1, N_GENERATORS + 1):
            if i in trees:
                funcs.append(ex.to_callable(trees[i], constants))
            else:
                funcs.append(lambda t: 0.0)
        return cls(funcs, hbar=hbar, kind="expressions")

    @classmethod
    def zero(cls, hbar=1.0):
        return cls.from_constant_vector(np.zeros(N_GENERATORS), hbar=hbar,
                                        kind="zero")

    @classmethod
    def landau(cls, m=1.0, omega_c=1.0, E_x=0.0, E_y=0.0, e=1.0, hbar=1.0):
        _check_mass(m)
        a = np.zeros(N_GENERATORS)
        a[1] = e * E_x              # a2
        a[2] = e * E_y              # a3
        a[5] = a[6] = m * omega_c ** 2 / 8
        a[8] = a[9] = 1.0 / (2 * m)
        a[13] = omega_c / 2         # a14
        a[14] = -omega_c / 2        # a15
        params = dict(m=m, omega_c=omega_c, E_x=E_x, E_y=E_y, e=e)
        return cls.from_constant_vector(a, hbar=hbar, kind="landau",
                                        params=params)

    @classmethod
    def free(cls, m=1.0, hbar=1.0):
        _check_mass(m)
        a = np.zeros(N_GENERATORS)
        a[8] = a[9] = 1.0 / (2 * m)
        return cls.from_constant_vector(a, hbar=hbar, kind="free",
                                        params=dict(m=m))

    @classmethod
    def harmonic1d(cls, m=1.0, omega=1.0, hbar=1.0):
        _check_mass(m)
        a = np.zeros(N_GENERATORS)
        a[5] = m * omega ** 2 / 2   # a6
        a[8] = 1.0 / (2 * m)        # a9
        return cls.from_constant_vector(a, hbar=hbar, kind="harmonic1d",
                                        params=dict(m=m, omega=omega))

    @classmethod
    def kanai_caldirola(cls, m=1.0, omega=1.0, lam=0.1, hbar=1.0):
        _check_mass(m)
        # a6 and a9 use np.exp (math.exp rounds differently); an overflow
        # is a non-finite coefficient, which evaluation reports, not a warning
        quiet = np.errstate(over="ignore", invalid="ignore")
        funcs = [lambda t: 0.0] * N_GENERATORS
        funcs[5] = quiet(lambda t: 0.5 * m * omega ** 2 * np.exp(lam * t))
        funcs[8] = quiet(lambda t: np.exp(-lam * t) / (2 * m))
        return cls(funcs, hbar=hbar, kind="kanai_caldirola",
                   params=dict(m=m, omega=omega, lam=lam))

    @classmethod
    def preset(cls, name, hbar=1.0, **params):
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; "
                             f"choose from {sorted(PRESETS)}")
        return getattr(cls, name)(hbar=hbar, **params)

    # -- evaluation -------------------------------------------------------

    def coefficients(self, t: float) -> np.ndarray:
        out = np.empty(N_GENERATORS)
        for i, fn in enumerate(self._funcs):
            try:
                out[i] = fn(t)
            except (ValueError, ZeroDivisionError, OverflowError, KeyError) as exc:
                raise InvalidSchedule(
                    f"a{i + 1} undefined at t = {t!r}: {exc}",
                    coefficient=i + 1, time=t) from exc
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            k = int(bad[0]) + 1
            raise InvalidSchedule(f"a{k} non-finite at t = {t!r}",
                                  coefficient=k, time=t)
        return out

    def negated_reverse(self, t_total: float) -> "CoefficientSchedule":
        """The schedule s -> -a(t_total - s), which undoes this one's flow."""
        funcs = [(lambda fn: (lambda s: -fn(t_total - s)))(fn)
                 for fn in self._funcs]
        return CoefficientSchedule(funcs, hbar=self.hbar,
                                   kind=f"reversed-{self.kind}")
