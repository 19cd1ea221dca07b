"""Exception types shared across the package."""


class TrustSatError(Exception):
    """Base class for all trustsat errors."""


class ValidationError(TrustSatError, ValueError):
    """Invalid input data or parameters."""


class DuplicateEdge(ValidationError):
    pass


class SelfLoop(ValidationError):
    pass


class TrustOutOfRange(ValidationError):
    pass


class NodeOutOfRange(ValidationError):
    pass


class ParseError(ValidationError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class TooLarge(ValidationError):
    pass


class NoNonRaters(ValidationError):
    pass


class AlphaUnsupported(ValidationError):
    pass


class StaleDelta(ValidationError):
    pass


class InfeasibleTarget(ValidationError):
    pass


class SingularInfluence(TrustSatError):
    """The influence table does not exist: I - W over the non-raters is
    singular, as when a rater-free class of nodes trusts only itself, all
    at trust exactly 1."""


class NoRoot(TrustSatError):
    """A bracketing root search found no sign change."""


class NotConverged(TrustSatError):
    """An iterative solve ran out of iterations before meeting its
    tolerance, so its scores are not the fixed point."""
