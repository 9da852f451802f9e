"""Time-dependent coefficient schedules a_1(t)..a_15(t) for the flow.

Coefficient slots follow the generator order: a1 (constant), a2 x, a3 y,
a4 p_x, a5 p_y, a6 x^2, a7 y^2, a8 xy, a9 p_x^2, a10 p_y^2, a11 p_x p_y,
a12 (x p_x + p_x x), a13 (y p_y + p_y y), a14 x p_y, a15 y p_x.

Schedules come either from parsed expressions (see :mod:`.expressions`) or
from :meth:`CoefficientSchedule.preset`.  Each preset is one row of
``_PRESETS``: its parameters with their defaults, and expressions over ``t``
and them that compile as a config's do.  With their defaults:

* ``landau(m=1, omega_c=1, E_x=0, E_y=0, e=1)`` - a charge in a constant
  perpendicular magnetic field and in-plane electric field (symmetric gauge);
* ``free(m=1)`` - a free particle; ``harmonic1d(m=1, omega=1)`` - an
  oscillator along x; ``kanai_caldirola(m=1, omega=1, lam=0.1)`` - a damped
  one with exponentially scaled mass; ``zero()`` - every coefficient 0.

A schedule's ``params`` are the named constants its slots read, with their
values (a preset's are its parameters).
A preset is evaluated once at t = 0 when built; a value that is undefined
or not finite there raises :class:`InvalidSchedule` naming the coefficient.
Every schedule compiles to one function of t, each slot generated on its
own by :func:`.expressions.emit`, which computes an operation without t
once, when it compiles, and a repeated operation on t once per call, and
nests the others inline.  :meth:`CoefficientSchedule.coefficients`
returns its 15 values as a list of floats.  A slot that compiles to the
number 0, an absent one included, is a structural zero
(:attr:`CoefficientSchedule.zeros`); loading a config compiles the flow's
right-hand side for them (:func:`.reduction.flow_rhs`).
"""

from __future__ import annotations

import math

from . import expressions as ex
from .errors import ConfigError, InvalidSchedule

__all__ = ["N_GENERATORS", "PRESETS", "CoefficientSchedule"]

N_GENERATORS = 15   # the slots a1..a15, one per generator of the algebra

# preset name -> ({parameter: default}, {slot: expression}); each expression
# fixes its order of operations, so keep them as written
_PRESETS = {
    "landau": ({"m": 1.0, "omega_c": 1.0, "E_x": 0.0, "E_y": 0.0, "e": 1.0},
               {2: "e*E_x", 3: "e*E_y", 6: "m*omega_c^2/8",
                7: "m*omega_c^2/8", 9: "1/(2*m)", 10: "1/(2*m)",
                14: "omega_c/2", 15: "-omega_c/2"}),
    "free": ({"m": 1.0}, {9: "1/(2*m)", 10: "1/(2*m)"}),
    "harmonic1d": ({"m": 1.0, "omega": 1.0},
                   {6: "m*omega^2/2", 9: "1/(2*m)"}),
    "kanai_caldirola": ({"m": 1.0, "omega": 1.0, "lam": 0.1},
                        {6: "0.5*m*omega^2*exp(lam*t)",
                         9: "exp(-lam*t)/(2*m)"}),
    "zero": ({}, {}),
}
# preset name -> the parameters it takes besides hbar
PRESETS = {name: tuple(defaults) for name, (defaults, _) in _PRESETS.items()}
_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


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
        self._fn = ex.define(body, f"[{operands}]")

    def __reduce__(self):
        return CoefficientSchedule, (self._slots, self.hbar, self.kind,
                                     self.params, self._prologue)

    @property
    def zeros(self) -> tuple:
        """Each slot's structural zero: 0.0 or -0.0 where the slot's code is
        that float literal with no lines (an absent slot, a coefficient that
        folds to zero, or either of them negated), None where it is
        anything else."""
        zeros = []
        for lines, operand in self._slots:
            digits = operand.lstrip("-")
            negated = (len(operand) - len(digits)) % 2
            zeros.append(None if lines or digits != "0.0"
                         else -0.0 if negated else 0.0)
        return tuple(zeros)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_expressions(cls, sources, constants=None, hbar=1.0):
        """Build from {index: source string}, index 1..15; missing slots are 0.

        Each source is parsed and compiled in one pass over its tree.  An
        unknown named constant is rejected up front (every expression must
        evaluate over the run interval).  ``params`` keeps the ``constants``
        read; ``t`` is the time, so a constant named ``t`` is never read.
        """
        slots = [((), "0.0")] * N_GENERATORS
        read = set()
        for idx, src in sources.items():
            if not 1 <= idx <= N_GENERATORS:
                raise ValueError(f"coefficient index out of range: {idx!r}")
            tree = ex.parse_expression(src)
            read |= ex.names(tree) - {"t"}
            try:
                slots[idx - 1] = ex.straight_line(tree, constants,
                                                  prefix=f"_a{idx}_")
            except KeyError as exc:
                raise InvalidSchedule(
                    f"a{idx} references undefined constants {exc.args[0]}",
                    coefficient=idx) from None
        return cls(slots, hbar=hbar, kind="expressions",
                   params={name: value for name, value in
                           (constants or {}).items() if name in read})

    @classmethod
    def preset(cls, name, hbar=1.0, **params):
        """Preset ``name``: ``params`` over its defaults, compiled from its
        expressions and checked at t = 0.  An unknown name, or a parameter
        the preset does not take, raises :class:`ConfigError`."""
        if name not in _PRESETS:
            raise ConfigError(f"unknown preset {name!r}")
        defaults, sources = _PRESETS[name]
        extra = set(params) - set(defaults)
        if extra:
            raise ConfigError(f"keys {sorted(extra)} not valid for preset "
                              f"{name!r}")
        params = {**defaults, **params}
        # every massive preset carries the kinetic coefficient 1/(2m)
        if params.get("m") == 0:
            raise InvalidSchedule("preset parameter m = 0: the kinetic "
                                  "coefficients 1/(2m) are undefined")
        sched = cls.from_expressions(sources, params, hbar)
        sched.kind = name
        try:
            sched.coefficients(0.0)
        except InvalidSchedule as exc:
            given = ", ".join(f"{key} = {v!r}" for key, v in params.items())
            raise InvalidSchedule(f"{name} preset: a{exc.coefficient} is not "
                                  f"finite for {given}",
                                  coefficient=exc.coefficient) from None
        return sched

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
                ex.define([*self._prologue, *lines], operand)(t)
            except _DOMAIN_ERRORS as exc:
                raise InvalidSchedule(f"a{k} undefined at t = {t!r}: {exc}",
                                      coefficient=k, time=t) from exc

    def negated_reverse(self, t_total: float) -> "CoefficientSchedule":
        """The schedule s -> -a(t_total - s), which undoes this one's flow."""
        return CoefficientSchedule(
            [(lines, f"-{operand}") for lines, operand in self._slots],
            hbar=self.hbar, kind=f"reversed-{self.kind}",
            prologue=[f"t = {ex.literal(t_total)} - t", *self._prologue])
