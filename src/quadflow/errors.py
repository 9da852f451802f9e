"""Exception types shared across quadflow."""


class QuadflowError(Exception):
    """Base class for all quadflow errors."""

    code = "error"


class InvalidSchedule(QuadflowError):
    """A coefficient function produced a non-finite or undefined value."""

    code = "invalid-schedule"

    def __init__(self, message, coefficient=None, time=None):
        super().__init__(message)
        self.coefficient = coefficient
        self.time = time


class SingularNu(QuadflowError):
    """det(nu) strayed from 1: the conditioning sentinel's refusal of a
    state whose factorization data outran double precision (or an assembly
    bug).  ``row`` is the flat C-order index of the first refused state of
    the stack, 0 for one state."""

    code = "singular-nu"

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class StepBudget(QuadflowError):
    """A step budget ran out before the target time: the flow's before
    ``t_end`` (unresolved, but no breakdown), or the classical oracle's in
    ``verify``."""

    code = "step-budget"


class StepUnderflow(QuadflowError):
    """No step of the flow resolves: unresolved, but no breakdown."""

    code = "step-underflow"


class BranchUnavailable(QuadflowError):
    """Generic propagator branch cannot be evaluated at these parameters."""

    code = "branch-unavailable"


class DegenerateGeometry(QuadflowError):
    """Kernel is distributional (delta factors survive); not pointwise-evaluable."""

    code = "degenerate-geometry"


class SingularTime(QuadflowError):
    """Closed form evaluated at a singular time (prefactor diverges)."""

    code = "singular-time"


class GridUnderresolved(QuadflowError):
    """Quadrature grid fails a coverage or Nyquist diagnostic."""

    code = "grid-underresolved"

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


class ParseError(QuadflowError):
    """Expression syntax error, with byte offset and expected-token set."""

    code = "parse-error"

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
        self.expected = tuple(expected)


class ConfigError(QuadflowError):
    """Malformed or inconsistent run configuration."""

    code = "config-error"
