"""Exception types shared across the package."""


class BetaholeError(Exception):
    """Base class for all package errors."""


class PreconditionError(BetaholeError):
    """An operation was called outside its documented domain."""


class InvariantError(BetaholeError):
    """An internal invariant failed; this is a bug, not bad input.

    Raised explicitly, so the check also runs under ``python -O``."""


class InadmissibleAlpha(PreconditionError):
    """The given sequence is not a valid quasi-greedy expansion of 1."""


class NotInRange(BetaholeError):
    """A sequence is not in the range of the requested substitution.

    ``position`` is the digit index where the block parse failed.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class NoCandidate(BetaholeError):
    """No admissible completion exists (v* search with empty candidate set)."""


class EmptyShift(BetaholeError):
    """The subshift defined by the given bounds contains no sequences."""
