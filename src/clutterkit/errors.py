"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A configured budget (intermediate blocker sets, search steps) was exceeded."""


class ParseError(ValueError):
    """Malformed input text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleInstanceError(ValueError):
    """A covering instance leaves some universe element uncovered."""


class NotInClassError(ValueError):
    """The clutter fails the matching-minor-freeness required by a bound."""
