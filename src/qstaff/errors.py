"""Exception types shared across the toolkit, and the one check that turns
a number from outside the package into a float.

Every public entry point passes the numbers it is given (rates, prices,
budgets, staffing levels) through real() or positive(): a bool, a value
that is not a numbers.Real, such as a string, and an int beyond float
range raise DomainError there, so no OverflowError, TypeError or
silently accepted True escapes a solver. The file reader maps that
DomainError to a ValidationError at the field's pointer.
"""
import math
from numbers import Real


class StaffingError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(StaffingError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class UnstableSystemError(DomainError):
    """A stationary delay probability was requested with lambda >= n."""


class QuadratureError(StaffingError):
    """The continuous delay-curve kernel got an unusable intermediate value.

    Raised when the incomplete gamma function Q(n, lambda) behind
    ``erlang_c_continuous`` comes back non-positive or non-finite;
    ``diagnostics`` holds the offending value and its arguments.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class BracketError(StaffingError):
    """Root bracketing exhausted the configured beta range."""


class KeyScenarioTieError(StaffingError):
    """A scenario tail probability equals epsilon exactly.

    The key-scenario selection rule requires strict inequalities; a tie
    means the caller must perturb epsilon or the probabilities.
    """


class InfeasibleError(StaffingError):
    """No feasible staffing exists within the configured search region."""


class EnumerationCapError(StaffingError):
    """Key-scenario enumeration would exceed the configured candidate cap."""


class ValidationError(StaffingError, ValueError):
    """A scenario file or CLI input failed validation.

    ``pointer`` locates the offending field, e.g. ``scenarios[3].probability``.
    """

    def __init__(self, message, pointer=None):
        super().__init__(message if pointer is None else f"{pointer}: {message}")
        self.pointer = pointer


def real(value, what):
    """value as a float; DomainError, naming it what, for a bool, a value
    that is not a real number, or an int beyond float range."""
    if type(value) is float:    # the common case, without the slow ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Real)):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} must be a real number within float range, "
                          f"got {value!r}") from None


def positive(value, what):
    """real(value, what), which must also be finite and above zero."""
    x = real(value, what)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{what} must be a positive real, got {value!r}")
    return x
