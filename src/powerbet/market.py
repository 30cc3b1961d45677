"""Race markets and the quantities derived purely from odds.

Odds are stored as "o-for-1" total payout: a unit stake on horse ``i``
returns ``o_i`` if it wins and nothing otherwise.  The track constant
``c = 1 / sum(1/o_i)`` classifies the market (subfair ``c < 1``, fair
``c = 1``, superfair ``c > 1``) and induces the bookie-implied
distribution ``r_i = c / o_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    InvalidDistributionError,
    LengthMismatchError,
    NonPositiveOddsError,
    NonPositiveProbabilityError,
    NotNormalizedError,
)

# Input probability vectors may deviate from unit sum by this much; they are
# renormalized exactly after validation.  User-entered decimals rarely sum
# to exactly 1.
NORMALIZATION_TOL = 1e-9

# Equality band around c = 1 for the fairness classification.  c = 1 is a
# measure-zero case that users construct intentionally with exact
# reciprocals, so the band is tight.
FAIRNESS_TOL = 1e-12


def _as_floats(values, name: str, error=InvalidDistributionError) -> np.ndarray:
    """``values`` as a float array; ragged rows or non-numbers raise ``error``."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise error(f"{name} must be an array of numbers") from None


def _as_float_vector(values, name: str, error=InvalidDistributionError) -> np.ndarray:
    arr = _as_floats(values, name, error)
    if arr.ndim != 1:
        raise InvalidDistributionError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _normalized(values, name: str, ndim: int = 1, rows=False, cash: float = 0.0):
    """The input rule for every probability-like argument: returns
    ``(values / total, total)``, the first read-only.

    ``values`` must be a nonempty ``ndim``-D array of finite entries >= 0
    whose total is within :data:`NORMALIZATION_TOL` of one.  The total is
    ``cash`` plus the sum of all entries; with ``rows`` it is instead each
    row's own sum, taken over every row (``True``) or over the rows a
    boolean mask selects, and only the selected rows are returned.
    """
    arr = _as_floats(values, name)
    if arr.ndim != ndim or arr.size < 1:
        raise InvalidDistributionError(
            f"{name} must be a nonempty {ndim}-D array, got shape {arr.shape}"
        )
    if not (arr.min() >= 0.0 and arr.max() < np.inf):  # NaN fails both
        raise InvalidDistributionError(f"{name} entries must be finite and >= 0")
    if rows is False:
        total = cash + float(arr.sum())
        bad = total if abs(total - 1.0) > NORMALIZATION_TOL else None
    else:
        if rows is not True:
            if rows.shape != arr.shape[:1]:
                raise LengthMismatchError(
                    f"{name} has {arr.shape[0]} rows but there are {rows.size} signals"
                )
            arr = arr[rows]
        total = arr.sum(axis=1, keepdims=True)
        off = np.abs(total - 1.0) > NORMALIZATION_TOL
        bad = float(np.extract(off, total)[0]) if off.any() else None
    if bad is not None:
        what = f"a row of {name}" if rows is not False else f"cash plus {name}" if cash else name
        raise NotNormalizedError(
            f"{what} sums to {bad!r}, deviating from 1 by more than {NORMALIZATION_TOL}"
        )
    out = arr / total
    out.flags.writeable = False
    return out, total


def _checked_odds(odds: np.ndarray) -> np.ndarray:
    """A read-only copy of a float vector of payouts, each finite and > 0,
    whose reciprocals have the finite sum the track constant needs."""
    if not (odds.min() > 0.0 and odds.max() < np.inf):
        raise NonPositiveOddsError("all odds must be finite and > 0")
    with np.errstate(over="ignore"):
        if not np.sum(1.0 / odds) < np.inf:
            raise NonPositiveOddsError("odds are too small: their reciprocals overflow as a sum")
    return _freeze(odds)


def _require_same_length(market: RaceMarket | SideInfoMarket, bets: np.ndarray) -> None:
    """Raise unless ``bets`` has one entry per horse, in one row per signal
    for a side-info market."""
    shape = market.joint.shape if isinstance(market, SideInfoMarket) else market.odds.shape
    if bets.shape != shape:
        raise LengthMismatchError(f"allocation has shape {bets.shape} but the market has {shape}")


@dataclass(frozen=True)
class RaceMarket:
    """An m-horse race: strictly positive winning probabilities and odds.

    ``probs`` must sum to one within :data:`NORMALIZATION_TOL`; it is
    renormalized exactly on construction.  Instances are immutable and
    safe to share across threads.
    """

    probs: np.ndarray
    odds: np.ndarray

    def __post_init__(self) -> None:
        probs = _as_float_vector(self.probs, "probs")
        odds = _as_float_vector(self.odds, "odds", NonPositiveOddsError)
        if probs.shape != odds.shape:
            raise LengthMismatchError(
                f"probs has length {probs.size} but odds has length {odds.size}"
            )
        if probs.size < 1:
            raise LengthMismatchError("a race needs at least one horse")
        if not (probs.min() > 0.0 and probs.max() < np.inf):
            raise NonPositiveProbabilityError("all winning probabilities must be finite and > 0")
        object.__setattr__(self, "odds", _checked_odds(odds))
        object.__setattr__(self, "probs", _normalized(probs, "probs")[0])

    @property
    def m(self) -> int:
        """Number of horses."""
        return self.probs.size


def new_race(probs, odds) -> RaceMarket:
    """Validate and build a :class:`RaceMarket` from probability and odds vectors."""
    return RaceMarket(probs, odds)


@dataclass(frozen=True)
class SideInfoMarket:
    """A race jointly distributed with a pre-race signal.

    ``joint[y, x]`` is the probability that signal ``y`` is observed and
    horse ``x`` wins (rows are signals, columns are horses).  Every signal
    must have positive marginal probability; individual horses may have
    zero winning probability.  ``odds`` maps each horse to its payout.
    """

    joint: np.ndarray
    odds: np.ndarray

    def __post_init__(self) -> None:
        joint = _as_floats(self.joint, "joint")
        odds = _as_float_vector(self.odds, "odds", NonPositiveOddsError)
        if joint.ndim != 2:
            raise InvalidDistributionError(f"joint must be a 2-D table, got shape {joint.shape}")
        if joint.shape[1] != odds.size:
            raise LengthMismatchError(
                f"joint has {joint.shape[1]} horse columns but odds has length {odds.size}"
            )
        if joint.shape[0] < 1 or joint.shape[1] < 1:
            raise LengthMismatchError("joint must have at least one signal and one horse")
        object.__setattr__(self, "odds", _checked_odds(odds))
        joint = _normalized(joint, "joint", ndim=2)[0]
        if np.any(joint.sum(axis=1) <= 0.0):
            raise InvalidDistributionError("every signal must have positive marginal probability")
        object.__setattr__(self, "joint", joint)

    @property
    def n_signals(self) -> int:
        return self.joint.shape[0]

    @property
    def n_horses(self) -> int:
        return self.joint.shape[1]

    @property
    def signal_probs(self) -> np.ndarray:
        """Marginal distribution of the signal (always strictly positive)."""
        return self.joint.sum(axis=1)

    @property
    def horse_probs(self) -> np.ndarray:
        """Marginal winning probabilities (entries may be zero)."""
        return self.joint.sum(axis=0)

    def conditional(self) -> np.ndarray:
        """Winner distribution given each signal, as a rows-are-signals table."""
        return self.joint / self.signal_probs[:, None]


def new_side_info(joint, odds) -> SideInfoMarket:
    """Validate and build a :class:`SideInfoMarket` from a joint table and odds."""
    return SideInfoMarket(joint, odds)


class FairnessTag(str, Enum):
    SUBFAIR = "subfair"
    FAIR = "fair"
    SUPERFAIR = "superfair"


@dataclass(frozen=True)
class Fairness:
    """Fairness classification of a market together with its track constant."""

    tag: FairnessTag
    c: float


def track_constant(market: RaceMarket | SideInfoMarket) -> float:
    """Track constant ``c``: reciprocal of the sum of reciprocal odds."""
    return 1.0 / float((1.0 / market.odds).sum())


def bookie_distribution(market: RaceMarket | SideInfoMarket) -> np.ndarray:
    """Bookie-implied probability vector ``r`` with ``r_i = c / o_i``."""
    inv = 1.0 / market.odds
    return inv / inv.sum()


def classify_fairness(market: RaceMarket | SideInfoMarket) -> Fairness:
    """Classify the odds as subfair, fair, or superfair from the track constant."""
    c = track_constant(market)
    if abs(c - 1.0) <= FAIRNESS_TOL:
        tag = FairnessTag.FAIR
    elif c < 1.0:
        tag = FairnessTag.SUBFAIR
    else:
        tag = FairnessTag.SUPERFAIR
    return Fairness(tag=tag, c=c)


def is_subfair(market: RaceMarket | SideInfoMarket) -> bool:
    """True when the track constant is below the fair band (c < 1 - tol)."""
    return classify_fairness(market).tag is FairnessTag.SUBFAIR
