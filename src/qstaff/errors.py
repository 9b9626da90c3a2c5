"""Exception types shared across the toolkit."""


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
