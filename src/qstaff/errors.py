"""Exception types shared across the toolkit, and the checks that turn
input from outside the package into floats, ints and per-station tuples.

Every public entry point passes the numbers it is given (rates, prices,
budgets, staffing levels) through real(), positive() or at_least(),
epsilon through check_epsilon(), delta through check_delta(), its integers
(key and station indices, server and replication counts) through
integer(), its per-station vectors (prices, safety factors, staffing
levels, key indices) through per_station(), the vectors that set a count
(scenario rates and probabilities, arrival rates) through sequence(), and
the objects it reads attributes from (scenario sets, cost functions,
simulator configs) through of_type(). A bool, a string, a fractional
index, an int beyond float range, a value out of range, a vector of the
wrong length, a vector that is no sequence and an object of the wrong
class raise DomainError there, so no OverflowError, TypeError,
AttributeError or silently accepted True escapes a solver. The file reader
maps that DomainError to a ValidationError at the field's pointer.
"""
import math
from numbers import Integral, Real

__all__ = ["StaffingError", "DomainError", "UnstableSystemError", "QuadratureError",
           "BracketError", "KeyScenarioTieError", "InfeasibleError",
           "EnumerationCapError", "ValidationError"]


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


def check_epsilon(epsilon):
    """epsilon as a float strictly inside (0, 1); DomainError otherwise."""
    eps = real(epsilon, "epsilon")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"epsilon must lie strictly inside (0, 1), got {epsilon!r}")
    return eps


def check_delta(delta):
    """QoS weight delta as a positive finite float; DomainError otherwise."""
    return positive(delta, "delta")


def at_least(value, what, minimum):
    """real(value, what), which must also be finite and at least minimum."""
    x = real(value, what)
    if not minimum <= x < math.inf:
        raise DomainError(f"{what} must be a finite real >= {minimum:g}, got {value!r}")
    return x


def integer(value, what, minimum=0, below=None):
    """value as an int, at least minimum and, if below is given, less than
    below; DomainError, naming it what, for a bool, a value that is not an
    integer (a float, even 1.0, or a string), an int beyond float range,
    or one out of range. Numpy integers pass."""
    if type(value) is not int:  # the common case, without the slow ABC check
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise DomainError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if not minimum <= real(value, what) < (math.inf if below is None else below):
        span = f">= {minimum}" if below is None else f"from {minimum} to {below - 1}"
        raise DomainError(f"{what} must be an integer {span}, got {value!r}")
    return value


def of_type(value, what, cls):
    """value, if it is an instance of cls; DomainError, naming it what,
    otherwise."""
    if not isinstance(value, cls):
        raise DomainError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def sequence(values, what):
    """values as a tuple; DomainError, naming it what, unless values is a
    sequence (anything tuple() takes). Its length is not checked."""
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"expected a sequence of {what}, got {values!r}") from None


def per_station(values, stations, check, what, *args):
    """check(v, f"station {i} {what}", *args) for each station i's value v,
    as a tuple; DomainError, naming it what, unless values is a sequence of
    one value per station, whose length is checked before any value."""
    values = sequence(values, f"one {what} per station")
    if len(values) != stations:
        raise DomainError(
            f"need one {what} per station, got {len(values)} for {stations} stations")
    return tuple(check(v, f"station {i} {what}", *args) for i, v in enumerate(values))
