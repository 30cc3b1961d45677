"""Renyi divergence, its KL limit, and a signal-averaged conditional form.

All divergences are in bits.  Each one, like each power utility, is a tilted
mean ``D_alpha(p || q) = K(alpha - 1; p, ln p/q)`` of :func:`_tilted_mean`, KL
being ``K(0)``, so orders near the pole never overflow and those near 1 match KL.
Every order in [0, inf] is an ordinary input, 1 included, for the plain and the conditional
divergence alike, the ends as their limits ``D_0`` and ``D_inf`` (van Erven & Harremoes 2014).
The utilities' payoffs are logged here too, by :func:`_power_mean_read`, and their power
means taken by :func:`_log2_power_mean`, ``beta = +-inf`` included.

Zero-probability conventions, applied throughout:

* terms with ``p(x) = 0`` contribute nothing for every order,
* for order ``alpha > 1`` (and for KL), any ``x`` with ``p(x) > 0`` and
  ``q(x) = 0`` makes the divergence ``+inf``,
* for ``alpha`` in [0, 1), ``q(x) = 0`` terms are dropped; if this empties
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
_CENTERED_T = 2.0**-10  # up to it rows are centered; above, log-sum-exp errs by eps/|t| <= 3e-13
# Below it, t (x - mu) keeps too few bits for the centered form, whose error
# grows as 2^-1074/|t| (1.4 bits at the smallest subnormal), while K(t) - K(0)
# is O(t): such t take the t = 0 form.
_NORMAL_MIN = np.finfo(float).tiny
# Past this order the far form's terms alpha ln p leave the double range, so D_alpha is
# taken as its limit D_inf, within log2(1/min p) / (alpha - 1) < 1.1e-297 bits.
_HUGE_ORDER = 1e300


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha >= 0.0:  # NaN fails too
        raise UnsupportedOrderError(f"divergence order must be >= 0, got {alpha!r}")
    return alpha


def _logsumexp(a, axis: int | None = None):
    """Natural log of ``sum(exp(a))`` over ``axis``: the package's one log-sum-exp.

    Never NaN: any ``+inf`` entry gives ``+inf``; a sum of ``-inf`` entries
    only, or of none, gives ``-inf``.  Uses one scratch array the size of ``a``.
    Over the whole array the value is a float, and an infinite peak is the answer.
    """
    a = np.asarray(a, dtype=float)
    if axis is None:
        peak = a.max(initial=-math.inf)
        if math.isinf(peak):
            return float(peak)
        scratch = a - peak
        np.exp(scratch, out=scratch)  # every entry is <= 1 and the peak's is 1: log needs no guard
        return float(np.log(scratch.sum()) + peak)
    peak = a.max(axis=axis, keepdims=True, initial=-math.inf)
    peak[~np.isfinite(peak)] = 0.0
    scratch = a - peak
    # exp overflows only beside a +inf entry, whose sum is +inf anyway, and
    # log(0) is the -inf of a sum with no terms.
    with np.errstate(over="ignore", divide="ignore"):
        np.exp(scratch, out=scratch)
        out = np.log(scratch.sum(axis=axis, keepdims=True))
    out += peak
    return out.squeeze(axis)


def _tilted_mean(t: float, log_w, x, terms=None, axis: int | None = None):
    """``K(t; w, x) = (1/t) log2 sum w e^(t x)``, ``K(0) = sum w x / ln 2``, for a
    PMF ``w`` given by its natural logs and ``x`` in nats, over the whole array
    (a float) or over the last axis (one value per row).

    Far from ``t = 0`` this is ``_logsumexp(terms) / (t ln 2)``, ``terms`` being
    the caller's form of ``log w + t x`` (the default).  Near it, each row, or
    the whole array as one row, is centered on ``mu = sum w x``, as
    ``mu + log1p(sum w expm1(t (x - mu))) / t``, so the rounding of ``sum w``
    is never divided by a small ``t``, however wide the tilts.  A row with no positive
    weight, or whose log1p term leaves [-1, 1] (so that adding it to ``mu`` loses over
    the far form's ``eps/|t|``), takes the far form.  A subnormal ``t`` skips the
    tilts and takes the ``K(0)`` value ``mu``, plus the dropped share's term below.

    Never NaN: ``w = 0`` drops a term (its ``x`` must then be finite unless
    ``terms`` is given), ``e^(t x)`` is ``+inf`` or 0 for an infinite ``x``, and
    a row of dropped terms is ``-inf / t``.  No row may hold both infinities.
    A term with ``e^(t x) = 0`` drops out of the near form too: ``mu`` is taken
    over the live weights, rescaled to sum to one, and ``log1p(-lost) / t`` is
    added for the dropped share, as ``-log1p(dropped / live) / t``.
    """
    if abs(t) > _CENTERED_T:
        return _logsumexp(log_w + t * x if terms is None else terms, axis) / (t * _LN2)
    shape = x.shape
    x = x.reshape((1, -1) if axis is None else (-1, shape[-1]))
    log_w = log_w.reshape(-1, x.shape[1])  # a row per row of x, or one for all
    w, live_x, log_kept = np.exp(log_w), x, 0.0
    with np.errstate(all="ignore"):  # far rows, replaced below, may overflow or be NaN
        mu = (w * x).sum(axis=1)
        if not np.isfinite(mu).all() and (dropped := t * x == -math.inf).any():  # e^(t x) = 0
            live = np.where(dropped, 0.0, w)
            lost = np.where(dropped, w, 0.0).sum(axis=1)
            kept = np.where(lost > 0.0, live.sum(axis=1), 1.0)  # rows losing none keep their bits
            log_kept = -np.log1p(lost / kept)  # a row with nothing live is NaN below, so far
            w, live_x = live / kept[:, None], np.where(dropped, 0.0, x)
            mu = (w * live_x).sum(axis=1)
        if abs(t) < _NORMAL_MIN:  # nothing drops at t = 0
            out = (mu + log_kept / t if t else mu) / _LN2
            far = np.isnan(out)
        else:
            shift = np.log1p((w * np.expm1(t * (live_x - mu[:, None]))).sum(axis=1))
            out = (mu + (shift + log_kept) / t) / _LN2
            far = ~(np.abs(shift) <= 1.0) | ~(w > 0.0).any(axis=1)
    if far.any():  # the far rows' terms alone
        log_w = log_w[far] if len(log_w) > 1 else log_w  # or one row for all
        terms = log_w + t * x[far] if terms is None else np.reshape(terms, x.shape)[far]
        out[far] = _logsumexp(terms, axis=1) / (t * _LN2)
    return float(out[0]) if axis is None else out.reshape(shape[:-1])


def _renyi_from_logs(log_p, log_q, alpha: float, axis: int | None = None, t: float | None = None):
    """``D_alpha(p || q) = K(alpha - 1; p, ln p - ln q)`` in bits, from natural-log PMFs; the
    terms ``alpha ln p + (1 - alpha) ln q`` stay exact for a weight with ``ln p`` near -1e9.
    ``t`` is the exact tilt ``alpha - 1`` if the caller has it, not ``alpha - 1.0``.
    Above order :data:`_HUGE_ORDER` it is the limit ``D_inf``.  Rounding below 0, -0.0 included, is clamped to +0.0: no Renyi divergence is negative."""
    t = alpha - 1.0 if t is None else t
    off, x = log_p == -math.inf, None
    if alpha > _HUGE_ORDER or abs(t) <= _CENTERED_T:  # only D_inf and the near form read x
        with np.errstate(invalid="ignore"):  # -inf - -inf off the support of p, replaced here
            x = log_p - log_q
        x[off] = -math.inf if alpha > _HUGE_ORDER else 0.0
    if alpha > _HUGE_ORDER:  # D_inf = log2 max p/q over p > 0
        d = x.max(axis) / _LN2
    else:
        with np.errstate(invalid="ignore"):
            # where alpha rounds to 1, ln q keeps the weight -t, so q = 0 stays infinite, not NaN
            terms = alpha * log_p + ((1.0 - alpha) or -t) * log_q
        terms[off] = -math.inf
        d = _tilted_mean(t, log_p, x, terms, axis)
    return max(0.0, float(d)) if axis is None else np.maximum(d, 0.0) + 0.0  # -0.0 + 0.0 is +0.0


def _log(arr: np.ndarray) -> np.ndarray:
    """Natural log that maps 0 to ``-inf`` without a warning."""
    with np.errstate(divide="ignore"):
        return np.log(arr)


def _power_mean_read(probs, bets, odds, cash, beta: float) -> np.ndarray:
    """The one payoff map: each payoff, ``bets * odds`` plus ``cash`` unless None, read by
    :func:`_log2_power_mean`'s ops as log2 at ``beta = +-inf``, as ln near 0, else as ``ln p +
    beta ln payoff``.  A positive bet's payoff below the smallest normal double, which the product
    may round to 0.0, reads ``log b + log o``, log-added to ``log cash``, so it reads finite."""
    payoffs = bets * odds if cash is None else cash + bets * odds
    log = np.log2 if math.isinf(beta) else np.log
    if payoffs.min(initial=math.inf) >= _NORMAL_MIN:  # a partial grid's heads may be empty
        read = log(payoffs)
    elif payoffs.min(initial=math.inf, where=bets > 0.0) >= _NORMAL_MIN:  # the rest: a zero
        with np.errstate(divide="ignore"):  # bet's, the cash alone, whose log is the same read
            read = log(payoffs)
    else:
        with np.errstate(divide="ignore"):
            read = log(bets) + log(odds)
            if cash is not None:
                read = (np.logaddexp2 if log is np.log2 else np.logaddexp)(log(cash), read)
        log(payoffs, out=read, where=payoffs >= _NORMAL_MIN)
    if _CENTERED_T < abs(beta) < math.inf:  # in place, so a grid block holds no extra copy
        read *= beta
        read += np.log(probs)
    return read


def _log2_power_mean(probs: np.ndarray, bets, odds, cash, beta: float, read=None):
    """``K(beta; p, ln payoff) = (1/beta) log2 sum p_i payoff_i^beta``, from ``read`` if given,
    else from :func:`_power_mean_read`: a float for one payoff vector, one value per row for a
    2-D stack.  At ``beta = +-inf``, the largest or smallest log2 payoff (every ``p_i`` > 0)."""
    read = _power_mean_read(probs, bets, odds, cash, beta) if read is None else read
    axis = None if read.ndim == 1 else -1
    if math.isinf(beta):
        out = read.max(axis) if beta > 0.0 else read.min(axis)
        return float(out) if axis is None else out
    if abs(beta) > _CENTERED_T:  # the read is the far form's terms
        return _tilted_mean(beta, None, None, read, axis)
    return _tilted_mean(beta, np.log(probs), read, axis=axis)


def renyi_div(p, q, alpha: float) -> float:
    """Renyi divergence of order ``alpha`` between two PMFs, in bits.

    Computes ``(1/(alpha-1)) * log2 sum_x p(x)^alpha q(x)^(1-alpha)`` for every order
    ``alpha >= 0`` but 1: ``D_0 = -log2 sum_{p(x) > 0} q(x)``.  At ``alpha = 1`` the
    Kullback-Leibler limit ``sum_x p(x) log2(p(x)/q(x))`` is returned, and above order 1e300,
    ``inf`` included, ``D_inf = log2 max_{p(x) > 0} p(x)/q(x)``, within 1.1e-297 bits.
    """
    alpha = _check_order(alpha)
    p, _ = _normalized(p, "p")
    q, _ = _normalized(q, "q")
    if p.shape != q.shape:
        raise LengthMismatchError(f"p has length {p.size} but q has length {q.size}")
    return _renyi_from_logs(_log(p), _log(q), alpha)


def cond_renyi_div(p_cond, q_cond, p_y, alpha: float) -> float:
    """Signal-averaged conditional Renyi divergence, in bits.

    ``p_cond`` and ``q_cond`` are rows-are-signals conditional tables; rows
    whose signal has zero probability are left out of the value and need not
    sum to one, but their entries must still be finite and >= 0.  The value is

        (alpha/(alpha-1)) * log2 sum_y p(y) * [sum_x p(x|y)^alpha q(x|y)^(1-alpha)]^(1/alpha)

    for every order ``alpha >= 0`` but 1, each end as its limit.  At ``alpha = 1`` both
    nested tilted means sit at ``t = 0`` and give the averaged KL divergence
    ``sum_y p(y) D(p(.|y) || q(.|y))``, the limit as ``alpha -> 1``.  At ``alpha = 0`` the
    outer tilt is ``-inf`` and the value the least per-signal ``D_0``, as it is wherever
    the tilt times every per-signal divergence overflows; at ``alpha = inf`` the tilt is
    1 and the value ``log2 sum_y p(y) 2^(D_inf(p(.|y) || q(.|y)))``.  Equals
    :func:`renyi_div` up to rounding when there is a single signal.
    """
    alpha = _check_order(alpha)
    p_y, _ = _normalized(p_y, "p_y")
    active = p_y > 0.0
    # only the rows of signals that occur are normalized, and returned
    p_cond, _ = _normalized(p_cond, "p_cond", ndim=2, rows=active)
    q_cond, _ = _normalized(q_cond, "q_cond", ndim=2, rows=active)
    if p_cond.shape != q_cond.shape:
        raise LengthMismatchError(
            f"p_cond has {p_cond.shape[1]} columns but q_cond has {q_cond.shape[1]}"
        )

    return _cond_renyi_from_logs(_log(p_cond), _log(q_cond), np.log(p_y[active]), alpha)


def _cond_renyi_from_logs(log_p_cond, log_q_cond, log_p_y: np.ndarray, alpha: float) -> float:
    """:func:`cond_renyi_div` from the natural logs of the rows of the signals that
    occur (``log_q_cond`` may be one row for all) and of their probabilities."""
    # the bracket of signal y is exp((alpha-1) K_y) for the inner divergence K_y
    inner = _renyi_from_logs(log_p_cond, log_q_cond, alpha, axis=-1)
    tilt = -math.inf if alpha == 0.0 else 1.0 if alpha == math.inf else (alpha - 1.0) / alpha
    # K's limit as the tilt goes to -inf, the least row: exact at order 0, and within
    # alpha log2(1/min p(y)) / (1-alpha) < 3e-305 bits where every row's tilt K_y overflows
    k = float(inner.min())
    if tilt * (k * _LN2) > -math.inf:
        with np.errstate(over="ignore"):  # a row whose tilt K_y overflows to -inf drops out
            k = _tilted_mean(tilt, log_p_y, inner * _LN2)
    return max(0.0, float(k))
