"""The pooling-operation family: power means, their log branch, and LSE.

The scalar function ``f(x) = x**gamma`` (``ln x`` at gamma = 0) turns an
attention-weighted sum into a generalized mean ``(v**gamma @ a) ** (1/gamma)``:
gamma = 2, 1, 0, -1 give the RMS, arithmetic, geometric and harmonic means
(alpha = -3, -1, 1, 3 in the paper's notation, gamma = (1 - alpha) / 2), and
the gamma -> +/-inf limits approach max and min.  Below |gamma| (or LSE's |r|)
= ``SMALL_GAMMA`` both means take their inner sum's log from ``_small_exponent_log``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .matcore import logsumexp

CLAMP_FLOOR = 1e-12
# A factored inner sum below this may hold terms under the smallest normal
# float, each off by more than its share of a rounding error of the sum.
LOG_DOMAIN_BELOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# Below this |gamma| (or LSE's |r|), the outer 1/gamma would magnify the rounding
# of the inner sum past the error of the expm1/log1p form, which is taken instead.
SMALL_GAMMA = 0.05
EPS = np.finfo(np.float64).eps

# Default exponents, by the family of network the features came from.
GAMMA_CONV_DEFAULT = 2.0
GAMMA_TRANSFORMER_DEFAULT = 1.25


def _small_exponent_log(t, a) -> tuple[np.ndarray, np.ndarray]:
    """ln(exp(t) @ a) and exp(t) @ a for small t <= 0.  The log is ln s + log1p(e / s),
    s the column's weight sum (1 if within p ulps of 1) and e = expm1(t) @ a: 1/t cannot
    magnify their digits as it would the sum's ulp of 1.  Where the sum is below s / 2,
    log1p would cancel, so the log is summed in the log domain instead."""
    e = np.expm1(t) @ a
    s = a.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # ln 0 at a zero column; e/s <= -1 redone
        ln_s = np.where(np.abs(s - 1.0) <= a.shape[0] * EPS, 0.0, np.log(s))
        ln_inner = ln_s + np.log1p(e / np.where(s > 0, s, 1.0))
    i, k = np.nonzero(e < -0.5 * s)
    if i.size:
        with np.errstate(divide="ignore"):  # log 0 = -inf drops a zero weight
            ln_inner[i, k] = logsumexp(t[i] + np.log(a[:, k].T), axis=1)
    return ln_inner, s + e


def weighted_generalized_mean(v, a, gamma: float) -> np.ndarray:
    """Attention-weighted generalized mean ``f^-1(f(V) A)`` of exponent gamma.

    ``v`` is d x p nonnegative, ``a`` p x k with stochastic columns for mean
    semantics, gamma finite and 0 (the log branch) or at least 1e-9 in size.
    The row extreme is factored out, so no power overflows at large |gamma|.
    Below |gamma| = ``SMALL_GAMMA`` the inner sum's log comes from
    ``_small_exponent_log``, whose rounding 1/gamma does not magnify.
    """
    if not np.isfinite(gamma) or (gamma != 0 and abs(gamma) < 1e-9):
        raise ContractError(f"weighted_generalized_mean: gamma must be finite, and 0 "
                            f"or at least 1e-9 in size, got {gamma}")
    v = np.asarray(v, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if v.min() < 0:  # one reduction, no d x p boolean mask
        raise ContractError("weighted_generalized_mean: negative values")
    vc = np.maximum(v, CLAMP_FLOOR)  # the one d x p temporary, transformed in place
    if gamma == 0:
        return np.exp(np.log(vc, out=vc) @ a)
    # Factor out the row max (gamma > 0) or min (gamma < 0): every ratio**gamma <= 1.
    m = vc.max(axis=1, keepdims=True) if gamma > 0 else vc.min(axis=1, keepdims=True)
    vc /= m
    if abs(gamma) < SMALL_GAMMA:
        np.log(vc, out=vc)
        vc *= gamma
        ln_inner, inner = _small_exponent_log(vc, a)
        u = m * np.exp(ln_inner / gamma)
    else:
        vc **= gamma
        inner = vc @ a
        with np.errstate(divide="ignore"):  # inner = 0 at gamma < 0: the re-sum below repairs it
            u = m * inner ** (1.0 / gamma)
    # Where attention sits on ratios whose powers fall below the normal range,
    # those terms lost digits or vanished: sum them again in the log domain
    # (a column of zero weights has no mean to recover).
    i, k = np.nonzero((inner < LOG_DOMAIN_BELOW) & (a.max(axis=0) > 0))
    if i.size:
        with np.errstate(divide="ignore"):  # log 0 = -inf drops a zero weight
            t = gamma * np.log(np.maximum(v[i], CLAMP_FLOOR)) + np.log(a[:, k].T)
        u[i, k] = np.exp(logsumexp(t, axis=1) / gamma)
    return u


def lse_pool(v, a, r: float) -> np.ndarray:
    """Log-sum-exp pooling ``(1/r) ln(exp(r V) a)`` with max factoring; below
    |r| = ``SMALL_GAMMA`` the log is the power mean's, ``_small_exponent_log``."""
    if abs(r) < 1e-9:
        raise ContractError(f"lse_pool: |r| must be >= 1e-9, got {r}")
    v = np.asarray(v, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    # r v beyond the float range gives inf, and inf - inf NaN: a non-finite
    # output its callers report, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        rv = r * v
        c = rv.max(axis=1, keepdims=True)
        rv -= c
        if abs(r) < SMALL_GAMMA:
            return (c + _small_exponent_log(rv, a)[0]) / r
        return (c + np.log(np.exp(rv, out=rv) @ a)) / r
