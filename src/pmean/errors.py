"""Exception types shared across the package."""


class PmeanError(Exception):
    """Base class for all package-specific errors."""


class SizeLimitExceeded(PmeanError):
    """An enumerating backend was asked to handle more goods than its cap."""


class BudgetExceeded(PmeanError):
    """An exact search would exceed its budget of subset-DP cells or partitions."""


class PreconditionViolated(PmeanError):
    """An operation's stated precondition does not hold for the given input."""


class NotPerfect(PmeanError):
    """A matching passed where a perfect matching is required."""


class EmptyInput(PmeanError):
    """An aggregate was requested over an empty collection."""


class BracketInvalid(PmeanError):
    """A root bracket lost its sign condition."""
