"""Exception types shared across the solver library."""

__all__ = ["LiqshockError", "ValidationError", "NumericalError",
           "SingularSystemError", "OracleConvergenceError", "SolveFailure"]


class LiqshockError(Exception):
    """Base class for all library errors."""


class ValidationError(LiqshockError, ValueError):
    """Invalid parameters, grids, or configuration."""


class NumericalError(LiqshockError, RuntimeError):
    """Failure inside a numerical routine."""


class SingularSystemError(NumericalError):
    """Zero pivot met while eliminating a tridiagonal system."""


class OracleConvergenceError(NumericalError):
    """An iterative reference solver failed to converge."""


class SolveFailure(NumericalError):
    """A time-marching run failed; records the failing step.

    ``diagnostics`` holds the run's ``SolveDiagnostics`` up to the failing
    step, the reaction restriction maximum included; it is ``None`` when
    the run's plan refused it before any level."""

    diagnostics = None

    def __init__(self, step_index, message):
        self.step_index = step_index
        super().__init__(f"time step {step_index}: {message}")


def _raise_first(problems: dict[str, str]):
    """Raise the first of ``problems`` (key: message, in the order the
    checks report them) as a ValidationError; a "model" problem spans
    several keys and reads as its message alone."""
    for key, msg in problems.items():
        raise ValidationError(msg if key == "model" else f"{key} {msg}")
