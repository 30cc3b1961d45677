"""Renyi divergence, its KL limit, and a signal-averaged conditional form.

All divergences are in bits.  Each one, like each power utility, is a tilted
mean ``D_alpha(p || q) = K(alpha - 1; p, ln p/q)`` of :func:`_tilted_mean`, KL
being ``K(0)``, so orders near the pole never overflow and those near 1 match KL.
Every finite order ``alpha > 0`` is an ordinary input, order 1 included, for
the plain and the conditional divergence alike.

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
_CENTERED_T = 2.0**-10  # above it, the log-sum-exp form errs by about eps/|t| <= 3e-13
# Below it, t (x - mu) keeps too few bits for the centered form, whose error
# grows as 2^-1074/|t| (1.4 bits at the smallest subnormal), while K(t) - K(0)
# is O(t): such t take the t = 0 form.
_NORMAL_MIN = np.finfo(float).tiny


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise UnsupportedOrderError(f"divergence order must be finite and > 0, got {alpha!r}")
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
    the caller's form of ``log w + t x`` (the default).  Rows with
    ``|t| <= 2^-10`` and ``|t| (max x - min x) <= 1`` are instead centered on
    ``mu = sum w x``, as ``mu + log1p(sum w expm1(t (x - mu))) / t``, so the
    rounding of ``sum w`` is never divided by a small ``t``.  A subnormal ``t``
    takes the ``K(0)`` form.

    Never NaN: ``w = 0`` drops a term (its ``x`` must then be finite unless
    ``terms`` is given), ``e^(t x)`` is ``+inf`` or 0 for an infinite ``x``, and
    a row of dropped terms is ``-inf / t``.  No row may hold both infinities.
    """
    if abs(t) > _CENTERED_T:
        if terms is None:  # x is freed before the sum, so a grid block holds no extra copy
            terms, x = t * x, None
            terms = log_w + terms
        return _logsumexp(terms, axis) / (t * _LN2)
    if abs(t) < _NORMAL_MIN:
        mu = np.sum(np.exp(log_w) * x, axis=axis) / _LN2
        return float(mu) if axis is None else mu
    if axis is None:
        return _centered_mean(t, log_w.ravel(), x.ravel(), terms)
    shape = np.shape(x)
    x = np.reshape(x, (-1, shape[-1]))
    log_w = np.reshape(log_w, (-1, x.shape[1]))  # a row per row of x, or one for all
    w = np.exp(log_w)
    mu = (w * x).sum(axis=1)
    with np.errstate(all="ignore"):  # far rows, replaced below, may overflow or be NaN
        tilt = t * (x - mu[:, None])
        span = tilt.max(axis=1, where=w > 0.0, initial=-math.inf)
        span -= tilt.min(axis=1, where=w > 0.0, initial=math.inf)
        out = (mu + np.log1p((w * np.expm1(tilt)).sum(axis=1)) / t) / _LN2
    far = ~((0.0 <= span) & (span <= 1.0))
    if far.any():
        terms = log_w + t * x if terms is None else np.reshape(terms, x.shape)
        out[far] = _logsumexp(terms[far], axis=1) / (t * _LN2)
    return out.reshape(shape[:-1])


def _centered_mean(t: float, log_w: np.ndarray, x: np.ndarray, terms) -> float:
    """The centered form of :func:`_tilted_mean` over one 1-D PMF, its log-sum-exp
    form where the tilts of the positive weights span more than 1 or ``mu`` is infinite."""
    w = np.exp(log_w)
    mu = (w * x).sum()
    if math.isfinite(mu) and (mu or w.any()):  # mu = 0 may be a PMF with no positive weight
        tilt = t * (x - mu)
        span = 2.0 * np.abs(tilt).max()  # an upper bound: it counts the zero weights too
        if not span <= 1.0:
            live = w > 0.0
            span = tilt.max(where=live, initial=-math.inf) - tilt.min(where=live, initial=math.inf)
        if span <= 1.0:
            return float((mu + np.log1p((w * np.expm1(tilt)).sum()) / t) / _LN2)
    return _logsumexp(log_w + t * x if terms is None else terms) / (t * _LN2)


def _renyi_from_logs(log_p: np.ndarray, log_q: np.ndarray, alpha: float, axis: int | None = None):
    """``D_alpha(p || q) = K(alpha - 1; p, ln p - ln q)`` in bits, from natural-log PMFs; the
    terms ``alpha ln p + (1 - alpha) ln q`` stay exact for a weight with ``ln p`` near -1e9.
    Rounding below 0 is clamped to 0: no Renyi divergence between PMFs is negative."""
    off = log_p == -math.inf
    with np.errstate(invalid="ignore"):  # -inf - -inf off the support of p, replaced below
        terms = alpha * log_p + (1.0 - alpha) * log_q
        x = log_p - log_q
    terms[off] = -math.inf
    x[off] = 0.0
    d = _tilted_mean(alpha - 1.0, log_p, x, terms, axis)
    return max(d, 0.0) if axis is None else np.maximum(d, 0.0)


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
    alpha = _check_order(alpha)
    p, _ = _normalized(p, "p")
    q, _ = _normalized(q, "q")
    if p.shape != q.shape:
        raise LengthMismatchError(f"p has length {p.size} but q has length {q.size}")
    return _renyi_from_logs(_log(p), _log(q), alpha)


def cond_renyi_div(p_cond, q_cond, p_y, alpha: float) -> float:
    """Signal-averaged conditional Renyi divergence, in bits.

    ``p_cond`` and ``q_cond`` are rows-are-signals conditional tables; rows
    whose signal has zero probability are skipped entirely (their content is
    arbitrary).  The value is

        (alpha/(alpha-1)) * log2 sum_y p(y) * [sum_x p(x|y)^alpha q(x|y)^(1-alpha)]^(1/alpha)

    for positive ``alpha != 1``.  At ``alpha = 1`` both nested tilted means
    sit at ``t = 0`` and give the averaged KL divergence
    ``sum_y p(y) D(p(.|y) || q(.|y))``, the limit as ``alpha -> 1``.  Equals
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
    return _tilted_mean((alpha - 1.0) / alpha, log_p_y, inner * _LN2)
