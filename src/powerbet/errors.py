"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`PowerbetError`,
which itself derives from ``ValueError`` so callers that only care about
"bad input" can catch the builtin.  Kelly's ``beta = 0`` and every divergence
order in [0, inf], 1 included, are ordinary inputs, so no class here stands for
them, and a zero bet is an extended-real ``-inf`` value, not an error.
"""


class PowerbetError(ValueError):
    """Base class for all errors raised by this package."""


class LengthMismatchError(PowerbetError):
    """Paired vectors or tables do not have matching shapes."""


class NonPositiveProbabilityError(PowerbetError):
    """A winning probability is zero or negative where positivity is required."""


class NonPositiveOddsError(PowerbetError):
    """A payout is zero, negative or not finite, or the payouts are so small
    that their reciprocals, whose sum sets the track constant, overflow."""


class InvalidDistributionError(PowerbetError):
    """A distribution has negative or non-finite entries, an invalid shape,
    or does not sum to one."""


class NotNormalizedError(InvalidDistributionError):
    """A probability vector does not sum to one within tolerance; like every
    other breach of the input rule, an :class:`InvalidDistributionError`."""


class UnsupportedOrderError(PowerbetError):
    """The requested divergence order is NaN or negative: outside [0, inf]."""


class BetaOutOfRangeError(PowerbetError):
    """The risk parameter is outside the domain of the requested operation."""


class NotApplicableError(PowerbetError):
    """The operation's precondition does not hold: its market regime or allocation kind."""


class GridTooLargeError(PowerbetError):
    """The requested simplex grid would exceed the enumeration guard."""


class NotEvaluableError(PowerbetError):
    """A check or simulation is not defined for its arguments: the KKT
    conditions at ``beta >= 1``, or a bad Monte Carlo count or seed."""
