"""The pooling-operation family: power means, their log branch, and LSE.

The scalar function ``f(x) = x**gamma`` (``ln x`` on the log branch)
turns an attention-weighted sum into a generalized mean:
``u = (v**gamma @ a) ** (1/gamma)``.  gamma relates to the alpha
parameterization by ``gamma = (1 - alpha) / 2``; alpha = -3, -1, 1, 3
give the RMS, arithmetic, geometric and harmonic means, and the
gamma -> +/-inf limits approach max and min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .matcore import logsumexp

CLAMP_FLOOR = 1e-12
# A factored inner sum below this may hold terms under the smallest normal
# float, each off by more than its share of a rounding error of the sum.
LOG_DOMAIN_BELOW = np.finfo(np.float64).tiny / np.finfo(np.float64).eps

# Default exponents, by the family of network the features came from.
GAMMA_CONV_DEFAULT = 2.0
GAMMA_TRANSFORMER_DEFAULT = 1.25


@dataclass(frozen=True)
class AlphaParam:
    """Exponent parameter, carrying both alpha and gamma = (1-alpha)/2."""

    alpha: float

    @property
    def gamma(self) -> float:
        return (1.0 - self.alpha) / 2.0

    @property
    def log_branch(self) -> bool:
        return self.alpha == 1.0

    @classmethod
    def from_gamma(cls, gamma: float) -> "AlphaParam":
        return cls(alpha=1.0 - 2.0 * gamma)

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ContractError(f"AlphaParam: alpha must be finite, got {self.alpha}")
        if not self.log_branch and abs(self.gamma) < 1e-9:
            raise ContractError(
                f"AlphaParam: gamma={self.gamma} too close to 0 outside the log branch"
            )


def weighted_generalized_mean(v, a, alpha: AlphaParam) -> np.ndarray:
    """Attention-weighted generalized mean ``f^-1(f(V) A)``.

    ``v`` is d x p nonnegative, ``a`` is p x k with stochastic columns
    for mean semantics.  Large |gamma| is handled by factoring out the
    row extreme so no intermediate power overflows.
    """
    v = np.asarray(v, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if a.ndim == 1:
        a = a[:, None]
    if v.min() < 0:  # one reduction, no d x p boolean mask
        raise ContractError("weighted_generalized_mean: negative values")
    vc = np.maximum(v, CLAMP_FLOOR)
    if alpha.log_branch:
        return np.exp(np.log(vc) @ a)
    g = alpha.gamma
    # Factor out the row max (g > 0) or min (g < 0): every ratio**g <= 1.
    m = vc.max(axis=1, keepdims=True) if g > 0 else vc.min(axis=1, keepdims=True)
    inner = ((vc / m) ** g) @ a
    with np.errstate(divide="ignore"):  # inner = 0 at g < 0: the re-sum below repairs it
        u = m * inner ** (1.0 / g)
    # Where attention sits on ratios whose powers fall below the normal range,
    # those terms lost digits or vanished: sum them again in the log domain
    # (a column of zero weights has no mean to recover).
    i, k = np.nonzero((inner < LOG_DOMAIN_BELOW) & (a.max(axis=0) > 0))
    if i.size:
        with np.errstate(divide="ignore"):  # log 0 = -inf drops a zero weight
            t = g * np.log(vc[i]) + np.log(a[:, k].T)
        u[i, k] = np.exp(logsumexp(t, axis=1) / g)
    return u


def lse_pool(v, a, r: float) -> np.ndarray:
    """Log-sum-exp pooling ``(1/r) ln(exp(r V) a)`` with max factoring."""
    if abs(r) < 1e-9:
        raise ContractError(f"lse_pool: |r| must be >= 1e-9, got {r}")
    v = np.asarray(v, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if a.ndim == 1:
        a = a[:, None]
    # r v beyond the float range gives inf, and inf - inf NaN: a non-finite
    # output its callers report, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        rv = r * v
        c = rv.max(axis=1, keepdims=True)
        return (c + np.log(np.exp(rv - c) @ a)) / r
