"""Renyi divergence, its KL limit, and a signal-averaged conditional form.

All divergences are in bits (base-2 logarithms).  Inner sums are evaluated
in the log domain (log-sum-exp) so that the extreme orders produced by
mapping a risk parameter close to 1 never overflow.

Zero-probability conventions, applied throughout:

* terms with ``p(x) = 0`` contribute nothing for every order,
* for order ``alpha > 1`` (and for KL), any ``x`` with ``p(x) > 0`` and
  ``q(x) = 0`` makes the divergence ``+inf``,
* for ``alpha`` in (0, 1), ``q(x) = 0`` terms are dropped; if this empties
  the sum entirely the divergence is ``+inf``.

Results are extended reals: finite, or ``+inf`` from support violations,
never NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LengthMismatchError, UnsupportedOrderError
from .market import _normalized

_LN2 = math.log(2.0)


def _check_order(alpha: float, allow_one: bool) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise UnsupportedOrderError(f"divergence order must be finite and > 0, got {alpha!r}")
    if alpha == 1.0 and not allow_one:
        raise UnsupportedOrderError(
            "the conditional divergence is defined only for orders other than 1"
        )
    return alpha


def _logsumexp(a, axis: int | None = None):
    """Natural log of ``sum(exp(a))`` over ``axis``: the package's one log-sum-exp.

    Never NaN: any ``+inf`` entry gives ``+inf``; a sum of ``-inf`` entries
    only, or of none, gives ``-inf``.  Uses one scratch array the size of ``a``.
    """
    a = np.asarray(a, dtype=float)
    peak = a.max(axis=axis, keepdims=True, initial=-math.inf)
    peak[~np.isfinite(peak)] = 0.0
    scratch = a - peak
    # exp overflows only beside a +inf entry, whose sum is +inf anyway, and
    # log(0) is the -inf of a sum with no terms.
    with np.errstate(over="ignore", divide="ignore"):
        np.exp(scratch, out=scratch)
        out = np.log(scratch.sum(axis=axis, keepdims=True))
    out += peak
    return float(out.ravel()[0]) if axis is None else out.squeeze(axis)


def _kl_bits(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    ps = p[support]
    return float(np.sum(ps * (np.log2(ps) - np.log2(q[support]))))


def _log_power_sum(log_p: np.ndarray, log_q: np.ndarray, alpha: float, axis: int | None = None):
    """Natural log of ``sum_x p(x)^alpha q(x)^(1-alpha)`` from natural-log PMFs.

    ``+inf`` for a support violation at ``alpha > 1``, ``-inf`` when no term survives.
    """
    support, live = log_p > -math.inf, log_q > -math.inf
    terms = np.full(log_p.shape, -math.inf)
    both = support & live
    terms[both] = alpha * log_p[both] + (1.0 - alpha) * log_q[both]
    if alpha > 1.0:
        terms[support & ~live] = math.inf
    return _logsumexp(terms, axis=axis)


def _renyi_from_logs(log_p: np.ndarray, log_q: np.ndarray, alpha: float) -> float:
    """Renyi divergence of order ``alpha != 1`` in bits, from validated natural-log PMFs."""
    log_sum = _log_power_sum(log_p, log_q, alpha)
    if math.isinf(log_sum):
        # +inf is a support violation; -inf means disjoint supports, which
        # blow the divergence up for every order.
        return math.inf
    return log_sum / ((alpha - 1.0) * _LN2)


def _log(arr: np.ndarray) -> np.ndarray:
    """Natural log that maps 0 to ``-inf`` without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(arr)


def renyi_div(p, q, alpha: float) -> float:
    """Renyi divergence of order ``alpha`` between two PMFs, in bits.

    Computes ``(1/(alpha-1)) * log2 sum_x p(x)^alpha q(x)^(1-alpha)`` for
    positive ``alpha != 1``.  At ``alpha = 1`` the Kullback-Leibler limit
    ``sum_x p(x) log2(p(x)/q(x))`` is returned.
    """
    alpha = _check_order(alpha, allow_one=True)
    p, _ = _normalized(p, "p")
    q, _ = _normalized(q, "q")
    if p.shape != q.shape:
        raise LengthMismatchError(f"p has length {p.size} but q has length {q.size}")
    if alpha == 1.0:
        return _kl_bits(p, q)
    return _renyi_from_logs(_log(p), _log(q), alpha)


def cond_renyi_div(p_cond, q_cond, p_y, alpha: float) -> float:
    """Signal-averaged conditional Renyi divergence, in bits.

    ``p_cond`` and ``q_cond`` are rows-are-signals conditional tables; rows
    whose signal has zero probability are skipped entirely (their content is
    arbitrary).  The value is

        (alpha/(alpha-1)) * log2 sum_y p(y) * [sum_x p(x|y)^alpha q(x|y)^(1-alpha)]^(1/alpha)

    for positive ``alpha != 1``; order 1 is rejected because the averaged
    form has no defined limit here.  Reduces exactly to :func:`renyi_div`
    when there is a single signal.
    """
    alpha = _check_order(alpha, allow_one=False)
    p_y, _ = _normalized(p_y, "p_y")
    active = p_y > 0.0
    # only the rows of signals that occur are normalized, and returned
    p_cond, _ = _normalized(p_cond, "p_cond", ndim=2, rows=active)
    q_cond, _ = _normalized(q_cond, "q_cond", ndim=2, rows=active)
    if p_cond.shape != q_cond.shape:
        raise LengthMismatchError(
            f"p_cond has {p_cond.shape[1]} columns but q_cond has {q_cond.shape[1]}"
        )

    inner = _log_power_sum(_log(p_cond), _log(q_cond), alpha, axis=1)
    if np.any(inner == math.inf):
        return math.inf
    # inner == -inf means the bracket is zero and the signal contributes 0.
    log_outer = _logsumexp(np.log(p_y[active]) + inner / alpha)
    if log_outer == -math.inf:
        return math.inf
    return (alpha / (alpha - 1.0)) * log_outer / _LN2
