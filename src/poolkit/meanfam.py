"""The pooling-operation family: power means, their log branch, and LSE.

The scalar function ``f(x) = x**gamma`` (``ln x`` at gamma = 0) turns an
attention-weighted sum into a generalized mean ``(v**gamma @ a) ** (1/gamma)``:
gamma = 2, 1, 0, -1 give the RMS, arithmetic, geometric and harmonic means
(alpha = -3, -1, 1, 3 in the paper's notation, gamma = (1 - alpha) / 2), and
the gamma -> +/-inf limits approach max and min.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .matcore import logsumexp

CLAMP_FLOOR = 1e-12
# A factored inner sum below this may hold terms under the smallest normal
# float, each off by more than its share of a rounding error of the sum.
LOG_DOMAIN_BELOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# Below this |gamma|, inner ** (1/gamma) would magnify the rounding of the
# inner sum past the error of the expm1/log1p form, which is taken instead.
SMALL_GAMMA = 0.05
EPS = np.finfo(np.float64).eps

# Default exponents, by the family of network the features came from.
GAMMA_CONV_DEFAULT = 2.0
GAMMA_TRANSFORMER_DEFAULT = 1.25


def weighted_generalized_mean(v, a, gamma: float) -> np.ndarray:
    """Attention-weighted generalized mean ``f^-1(f(V) A)`` of exponent gamma.

    ``v`` is d x p nonnegative, ``a`` p x k with stochastic columns for mean
    semantics, gamma finite and 0 (the log branch) or at least 1e-9 in size.
    The row extreme is factored out, so no power overflows at large |gamma|.
    Below |gamma| = ``SMALL_GAMMA`` the log of the inner sum is formed as
    ln(sum(a)) + log1p(...), so that the outer power 1/gamma does not
    magnify its rounding, and a column whose sum is 1 to within the
    rounding of its p weights counts as summing to 1 exactly: its rounding
    would otherwise move the mean by that rounding over |gamma|.
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
        # ln inner = ln s + log1p(e / s), s the column's weight sum and
        # e = expm1(gamma ln r) @ a: each part keeps its own digits, where
        # inner would round to an ulp of 1 and 1/gamma magnify that ulp
        np.log(vc, out=vc)
        vc *= gamma
        e = np.expm1(vc, out=vc) @ a
        s = a.sum(axis=0)
        inner = s + e
        with np.errstate(divide="ignore"):  # a column of zero weights: ln 0 = -inf
            ln_s = np.where(np.abs(s - 1.0) <= a.shape[0] * EPS, 0.0, np.log(s))
        u = m * np.exp((ln_s + np.log1p(e / np.where(s > 0, s, 1.0))) / gamma)
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
    """Log-sum-exp pooling ``(1/r) ln(exp(r V) a)`` with max factoring."""
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
        return (c + np.log(np.exp(rv, out=rv) @ a)) / r
