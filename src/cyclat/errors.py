"""Shared exception types.

The CLI maps these onto exit codes, so raising the right one matters:
ParseError -> 64 (unusable request), PreconditionError -> 65 (bad input),
SearchExhausted -> 75 (a randomized search ran out of budget; another
--seed or a larger --kmax may succeed), InternalInvariantError -> 2 (a
checked identity failed, i.e. a bug).
"""


class CyclatError(Exception):
    """Base class for everything raised deliberately by this package."""


class ParseError(CyclatError):
    """A module-shape expression or CLI request could not be parsed."""


class PreconditionError(CyclatError):
    """Input violates a documented requirement of the operation."""


class NotNoncyclotomic(PreconditionError):
    """The module fails the kernel condition that invariant bases require."""


class InternalInvariantError(CyclatError):
    """An identity that must hold by construction failed to verify.

    Never the caller's fault: either a bug in this package or an object
    that was mutated in a way the algorithms do not support.
    """


class SearchExhausted(CyclatError):
    """A randomized search hit its budget without finding a certificate.

    Deliberately distinct from a negative answer; the object searched for
    may well exist.  `attempts` counts the candidate bases tried and `k` is
    the largest number of regular blocks the search stabilized by.
    """

    def __init__(self, message: str, attempts: int, k: int):
        super().__init__(message)
        self.attempts = attempts
        self.k = k
