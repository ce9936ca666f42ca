"""Exception types shared across the package."""


class FlexconnError(Exception):
    """Base class for all package-specific errors."""


class GraphStructureError(FlexconnError, ValueError):
    """Raised when a multigraph violates a structural invariant."""


class TooLargeError(FlexconnError):
    """Raised when an exhaustive operation is asked to run above its size limit."""


def check_size(what: str, size: int, limit: int, name: str = "n") -> None:
    """The one size refusal: TooLargeError("instance too large for WHAT
    (NAME=SIZE > LIMIT)") when size is above limit."""
    if size > limit:
        raise TooLargeError(f"instance too large for {what} ({name}={size} > {limit})")


class InvalidInstanceError(FlexconnError, ValueError):
    """An instance violates one of its invariants.

    ``code`` identifies which invariant failed: "params", "costs",
    "infeasible-edges".
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ParseError(FlexconnError, ValueError):
    """Malformed instance file; ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FieldRangeError(ParseError):
    """A parsed value is syntactically fine but outside its allowed range."""


class GenerationError(FlexconnError, ValueError):
    """Random instance generation cannot satisfy the requested parameters."""


class LpSolveError(FlexconnError):
    """The LP subsolver failed; carries the row set for diagnosis."""

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = list(rows) if rows is not None else []


class IterationLimitError(FlexconnError):
    """The cutting-plane loop exceeded its iteration cap."""

    def __init__(self, message: str, iterations: int, last_value: float | None = None):
        super().__init__(message)
        self.iterations = iterations
        self.last_value = last_value


class RoundingFailedError(FlexconnError):
    """Every rounding attempt was rejected; carries per-attempt diagnostics."""

    def __init__(self, message: str, attempts: list):
        super().__init__(message)
        self.attempts = attempts
