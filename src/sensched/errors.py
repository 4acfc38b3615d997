"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError (and subclasses) -> 1,
VerificationError -> 2, SearchSpaceError / exhausted budgets -> 3.
SearchSpaceError is raised for an oracle space above its limit, an
isolation coverage with more than PAIR_LIMIT target pairs or EDGE_LIMIT
coverage edges, and a max-cut check on too many nodes.
"""


class SenschedError(Exception):
    """Base class for all package errors."""


class InputError(SenschedError):
    """Invalid argument, unknown id, or malformed input data."""


class ParseError(InputError):
    """Malformed instance or labeling file; carries the offending line number.

    `line_no` is None when no line is at fault (a required key is missing),
    and the message then carries no line prefix.
    """

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class BatteryViolation(InputError):
    """A labeling activates some device in more slots than its battery allows."""

    def __init__(self, offenders: list[str], sigma: int):
        self.offenders = list(offenders)
        self.sigma = sigma
        super().__init__(
            f"battery limit {sigma} exceeded by: {', '.join(self.offenders)}"
        )


class VerificationError(SenschedError):
    """A run-time consistency check between two computations of one quantity failed."""


class SearchSpaceError(SenschedError):
    """Exhaustive computation refused because the search space is too large."""
