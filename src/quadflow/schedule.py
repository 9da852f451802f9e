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

A preset's parameter products are evaluated once, when it is built; one
that overflows or is not finite raises :class:`InvalidSchedule` naming the
coefficient.  Every schedule compiles to one straight-line function of t
(generated source, see :mod:`.expressions`), and
:meth:`CoefficientSchedule.coefficients` returns its 15 values as a list of
floats.
"""

from __future__ import annotations

import math

import numpy as np

from . import expressions as ex
from .adjoint import N_GENERATORS
from .errors import ConfigError, InvalidSchedule

__all__ = ["PRESETS", "CoefficientSchedule"]

# preset name -> the parameters its constructor takes besides hbar
PRESETS = {
    "landau": ("m", "omega_c", "E_x", "E_y", "e"),
    "free": ("m",),
    "harmonic1d": ("m", "omega"),
    "kanai_caldirola": ("m", "omega", "lam"),
    "zero": (),
}

# the names schedule code reads besides t: kanai_caldirola's np.exp, whose
# overflow is a non-finite coefficient that evaluation reports, not a warning
_NAMESPACE = {**ex.NAMESPACE, "_float": float,
              "_np_exp": np.errstate(over="ignore", invalid="ignore")(np.exp)}
_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _check_mass(m):
    # every massive preset carries the kinetic coefficient 1/(2m)
    if m == 0:
        raise InvalidSchedule("preset parameter m = 0: the kinetic "
                              "coefficients 1/(2m) are undefined")


def _products(kind, params, products):
    """Evaluate a preset's {slot: parameter product} on Python floats; a
    product that overflows or is not finite names its coefficient."""
    values = {}
    for k, product in sorted(products.items()):
        try:
            values[k] = product()
        except OverflowError:
            values[k] = math.inf
        if not math.isfinite(values[k]):
            given = ", ".join(f"{key} = {v!r}" for key, v in params.items())
            raise InvalidSchedule(f"{kind} preset: a{k} is not finite for "
                                  f"{given}", coefficient=k)
    return values


class CoefficientSchedule:
    """The 15 coefficient functions plus hbar, compiled to one function.

    ``slots`` holds each coefficient's generated code, a ``(lines,
    operand)`` pair of :func:`.expressions.straight_line`; the ``prologue``
    lines run first and may rebind ``t``.  One ``compile`` turns them into
    a function that returns the 15 values as a list; a schedule pickles by
    this source.  Evaluation returns that list of floats; any non-finite or
    undefined value raises :class:`InvalidSchedule` naming the coefficient
    and time.
    """

    def __init__(self, slots, hbar=1.0, kind="custom", params=None,
                 prologue=()):
        if len(slots) != N_GENERATORS:
            raise ValueError("need exactly 15 coefficient slots")
        self._slots = tuple(slots)
        self._prologue = tuple(prologue)
        self.hbar = float(hbar)
        self.kind = kind
        self.params = dict(params or {})
        body = [*self._prologue,
                *(line for lines, _ in self._slots for line in lines)]
        operands = ", ".join(operand for _, operand in self._slots)
        self._fn = ex.define(body, f"[{operands}]", _NAMESPACE)

    def __reduce__(self):
        return CoefficientSchedule, (self._slots, self.hbar, self.kind,
                                     self.params, self._prologue)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_constant_vector(cls, a, hbar=1.0, kind="custom", params=None):
        a = np.asarray(a, dtype=float)
        if a.shape != (N_GENERATORS,):
            raise ValueError("coefficient vector must have 15 entries")
        return cls([((), ex.literal(v)) for v in a.tolist()], hbar=hbar,
                   kind=kind, params=params)

    @classmethod
    def from_expressions(cls, sources, constants=None, hbar=1.0):
        """Build from {index: source string}, index 1..15; missing slots are 0.

        Each source is parsed and compiled in one pass over its tree.  An
        unknown named constant is rejected up front (every expression must
        evaluate over the run interval).
        """
        slots = [((), "0.0")] * N_GENERATORS
        for idx, src in sources.items():
            if not 1 <= idx <= N_GENERATORS:
                raise ValueError(f"coefficient index out of range: {idx!r}")
            tree = ex.parse_expression(src)
            try:
                slots[idx - 1] = ex.straight_line(tree, constants,
                                                  prefix=f"_a{idx}_")
            except KeyError as exc:
                raise InvalidSchedule(
                    f"a{idx} references undefined constants {exc.args[0]}",
                    coefficient=idx) from None
        return cls(slots, hbar=hbar, kind="expressions")

    @classmethod
    def _constant_preset(cls, kind, hbar, params, products):
        """A preset whose coefficients are {slot: parameter product}."""
        values = _products(kind, params, products)
        return cls([((), ex.literal(values.get(k, 0.0)))
                    for k in range(1, N_GENERATORS + 1)],
                   hbar=hbar, kind=kind, params=params)

    @classmethod
    def zero(cls, hbar=1.0):
        return cls._constant_preset("zero", hbar, {}, {})

    @classmethod
    def landau(cls, m=1.0, omega_c=1.0, E_x=0.0, E_y=0.0, e=1.0, hbar=1.0):
        _check_mass(m)
        params = dict(m=m, omega_c=omega_c, E_x=E_x, E_y=E_y, e=e)
        return cls._constant_preset("landau", hbar, params, {
            2: lambda: e * E_x, 3: lambda: e * E_y,
            6: lambda: m * omega_c ** 2 / 8, 7: lambda: m * omega_c ** 2 / 8,
            9: lambda: 1.0 / (2 * m), 10: lambda: 1.0 / (2 * m),
            14: lambda: omega_c / 2, 15: lambda: -omega_c / 2})

    @classmethod
    def free(cls, m=1.0, hbar=1.0):
        _check_mass(m)
        return cls._constant_preset("free", hbar, dict(m=m), {
            9: lambda: 1.0 / (2 * m), 10: lambda: 1.0 / (2 * m)})

    @classmethod
    def harmonic1d(cls, m=1.0, omega=1.0, hbar=1.0):
        _check_mass(m)
        params = dict(m=m, omega=omega)
        return cls._constant_preset("harmonic1d", hbar, params, {
            6: lambda: m * omega ** 2 / 2, 9: lambda: 1.0 / (2 * m)})

    @classmethod
    def kanai_caldirola(cls, m=1.0, omega=1.0, lam=0.1, hbar=1.0):
        _check_mass(m)
        params = dict(m=m, omega=omega, lam=lam)
        # a6 = (0.5 m omega^2) e^{lam t} and a9 = e^{-lam t} / (2m), with
        # np.exp (math.exp rounds differently) taken to a float
        c6 = _products("kanai_caldirola", params,
                       {6: lambda: 0.5 * m * omega ** 2})[6]
        slots = [((), "0.0")] * N_GENERATORS
        slots[5] = ([f"_a6_0 = {ex.literal(lam)} * t",
                     f"_a6_1 = {ex.literal(c6)} * _float(_np_exp(_a6_0))"],
                    "_a6_1")
        slots[8] = ([f"_a9_0 = {ex.literal(-lam)} * t",
                     f"_a9_1 = _float(_np_exp(_a9_0)) / {ex.literal(2 * m)}"],
                    "_a9_1")
        return cls(slots, hbar=hbar, kind="kanai_caldirola", params=params)

    @classmethod
    def preset(cls, name, hbar=1.0, **params):
        """Preset ``name`` from the ``params`` given; an unknown name, or a
        parameter the preset does not take, raises :class:`ConfigError`."""
        if name not in PRESETS:
            raise ConfigError(f"unknown preset {name!r}")
        extra = set(params) - set(PRESETS[name])
        if extra:
            raise ConfigError(f"keys {sorted(extra)} not valid for preset "
                              f"{name!r}")
        return getattr(cls, name)(hbar=hbar, **params)

    # -- evaluation -------------------------------------------------------

    def coefficients(self, t: float) -> list:
        """The 15 coefficients at ``t``, a list of floats."""
        try:
            values = self._fn(t)
        except _DOMAIN_ERRORS:
            self._raise_undefined(t)
            raise
        if math.isfinite(sum(values)):
            return values
        # a non-finite value, or finite values whose sum overflows
        for k, v in enumerate(values, 1):
            if not math.isfinite(v):
                raise InvalidSchedule(f"a{k} non-finite at t = {t!r}",
                                      coefficient=k, time=t)
        return values

    def _raise_undefined(self, t):
        """Compile and evaluate slot by slot; raise for the first failure."""
        for k, (lines, operand) in enumerate(self._slots, 1):
            try:
                ex.define([*self._prologue, *lines], operand, _NAMESPACE)(t)
            except _DOMAIN_ERRORS as exc:
                raise InvalidSchedule(f"a{k} undefined at t = {t!r}: {exc}",
                                      coefficient=k, time=t) from exc

    def negated_reverse(self, t_total: float) -> "CoefficientSchedule":
        """The schedule s -> -a(t_total - s), which undoes this one's flow."""
        return CoefficientSchedule(
            [(lines, f"-{operand}") for lines, operand in self._slots],
            hbar=self.hbar, kind=f"reversed-{self.kind}",
            prologue=[f"t = {ex.literal(t_total)} - t", *self._prologue])
