"""Exception types shared across the solver library."""

__all__ = ["LiqshockError", "ValidationError", "ConfigError", "NumericalError",
           "SingularSystemError", "OracleConvergenceError", "SolveFailure"]


class LiqshockError(Exception):
    """Base class for all library errors."""


class ValidationError(LiqshockError, ValueError):
    """Invalid parameters, grids, or configuration."""


class ConfigError(ValidationError):
    """Malformed run-configuration text.

    ``entries`` lists one ``(line_number, key, message)`` tuple per offending
    line so callers can report every problem at once.
    """

    def __init__(self, entries):
        self.entries = list(entries)
        lines = "; ".join(f"line {n}: {key}: {msg}" for n, key, msg in self.entries)
        super().__init__(f"invalid config ({lines})")


class NumericalError(LiqshockError, RuntimeError):
    """Failure inside a numerical routine."""


class SingularSystemError(NumericalError):
    """Zero pivot met while eliminating a tridiagonal system."""


class OracleConvergenceError(NumericalError):
    """An iterative reference solver failed to converge."""


class SolveFailure(NumericalError):
    """A time-marching run failed; records the failing step."""

    def __init__(self, step_index, message):
        self.step_index = step_index
        super().__init__(f"time step {step_index}: {message}")
