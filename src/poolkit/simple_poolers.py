"""Direct implementations of the simple single-vector poolers.

These are the non-attention methods: plain average, max, generalized
mean, log-sum-exp, and norm-weighted local-feature aggregation.  Each
also has a framework instantiation (``*_spec``) that must agree with
the direct path exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .framework import AttnRule, FeatureMap, MapRule, PoolingSpec, PoolRule, UpdateRule
from .matcore import Mat, l2_normalize
from .meanfam import AlphaParam, lse_pool, weighted_generalized_mean


def gap(fm: FeatureMap) -> np.ndarray:
    """Global average pooling: the mean feature vector."""
    return fm.x.mean(axis=1)


def max_pool(fm: FeatureMap) -> np.ndarray:
    """Row-wise maximum over spatial locations (assumes nonnegative features)."""
    return fm.x.max(axis=1)


def gem(fm: FeatureMap, gamma: float) -> np.ndarray:
    """Generalized-mean pooling: the gamma-power mean of each channel."""
    p = fm.p
    a = np.full((p, 1), 1.0 / p)
    if gamma == 1.0:
        return gap(fm)
    return weighted_generalized_mean(fm.x, a, AlphaParam.from_gamma(gamma))[:, 0]


def lse(fm: FeatureMap, r: float) -> np.ndarray:
    """Log-sum-exp pooling with scale r."""
    p = fm.p
    a = np.full((p, 1), 1.0 / p)
    return lse_pool(fm.x, a, r)[:, 0]


@dataclass(frozen=True)
class HowConfig:
    """Fixed value-mapping layers: centering vector and projection matrix.

    Defaults (zeros / identity) stand in for statistics that would
    normally be estimated from a training set.
    """

    centering: Optional[np.ndarray] = None
    projection: Optional[Mat] = None

    def resolved(self, d: int) -> tuple[np.ndarray, Mat]:
        c = np.zeros(d) if self.centering is None else np.asarray(self.centering, dtype=np.float64)
        w = np.eye(d) if self.projection is None else np.asarray(self.projection, dtype=np.float64)
        return c, w


def how(fm: FeatureMap, cfg: HowConfig = HowConfig()) -> np.ndarray:
    """Norm-attention pooling: weight 3x3-smoothed projected features by
    the squared norm of each raw feature column, then l2-normalize."""
    from .framework import _avg3  # same kernel as the engine path

    a = np.sum(fm.x**2, axis=0)  # attention = squared column norms of raw X
    x = fm.x if cfg.centering is None else fm.x - np.asarray(cfg.centering, dtype=np.float64)[:, None]
    z = _avg3(x, fm.width, fm.height) @ a
    if cfg.projection is not None:  # P (avg3(X - c) a): the projection meets one vector
        z = np.asarray(cfg.projection, dtype=np.float64) @ z
    return l2_normalize(z)


# --- framework instantiations ---------------------------------------------

def gap_spec(p: int) -> PoolingSpec:
    return PoolingSpec(
        attention=AttnRule(kind="constant", vector=np.full(p, 1.0 / p)),
        pool=PoolRule(kind="f_alpha", alpha=AlphaParam(alpha=-1.0)),
    )


def max_spec(p: int) -> PoolingSpec:
    return PoolingSpec(
        attention=AttnRule(kind="constant", vector=np.ones(p)),
        pool=PoolRule(kind="max"),
    )


def gem_spec(p: int, gamma: float) -> PoolingSpec:
    return PoolingSpec(
        attention=AttnRule(kind="constant", vector=np.full(p, 1.0 / p)),
        pool=PoolRule(kind="f_alpha", alpha=AlphaParam.from_gamma(gamma)),
    )


def lse_spec(p: int, r: float) -> PoolingSpec:
    return PoolingSpec(
        attention=AttnRule(kind="constant", vector=np.full(p, 1.0 / p)),
        pool=PoolRule(kind="lse", r=r),
    )


def how_spec(fm: FeatureMap, cfg: HowConfig = HowConfig()) -> PoolingSpec:
    centering, projection = cfg.resolved(fm.d)
    return PoolingSpec(
        attention=AttnRule(kind="feature_sqnorm"),
        value_map=MapRule(kind="local_avg_fc", weight=projection, centering=centering),
        pool=PoolRule(kind="f_alpha", alpha=AlphaParam(alpha=-1.0)),
        pool_update=UpdateRule(kind="l2norm"),
    )
