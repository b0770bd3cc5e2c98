"""The simple single-vector poolers, each a spec run by the engine.

These are the non-attention methods: plain average, max, generalized
mean, log-sum-exp, and norm-weighted local-feature aggregation.  Each
``*_spec`` is the method's one implementation; the public functions run
it through ``run_pooling`` and return the single pooled column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .framework import FeatureMap, MapRule, PoolingSpec, PoolRule, UpdateRule, run_pooling
from .matcore import Mat


def gap(fm: FeatureMap) -> np.ndarray:
    """Global average pooling: the mean feature vector, ``gem`` at gamma = 1."""
    return run_pooling(gem_spec(1.0), fm).u[:, 0]


def max_pool(fm: FeatureMap) -> np.ndarray:
    """Row-wise maximum over spatial locations (assumes nonnegative features)."""
    return run_pooling(max_spec(), fm).u[:, 0]


def gem(fm: FeatureMap, gamma: float) -> np.ndarray:
    """Generalized-mean pooling: the gamma-power mean of each channel."""
    return run_pooling(gem_spec(gamma), fm).u[:, 0]


def lse(fm: FeatureMap, r: float) -> np.ndarray:
    """Log-sum-exp pooling with scale r."""
    return run_pooling(lse_spec(r), fm).u[:, 0]


@dataclass(eq=False)
class HowConfig:
    """Fixed value-mapping layers: centering vector and projection matrix.

    Defaults (None: no centering, no projection) stand in for statistics
    that would normally be estimated from a training set.
    """

    centering: Optional[np.ndarray] = None
    projection: Optional[Mat] = None

    def fitted(self, d: int) -> "HowConfig":
        """The supplied arrays as float64; ShapeError unless they fit d
        feature channels: centering (d,) and projection (n >= 1, d)."""
        c, w = (None if v is None else np.asarray(v, dtype=np.float64)
                for v in (self.centering, self.projection))
        need = f"{d}-channel features need"
        if c is not None and c.shape != (d,):
            raise ShapeError(f"weights 'centering' has shape {c.shape}; {need} ({d},)")
        if w is not None and (w.ndim != 2 or w.shape[0] < 1 or w.shape[1] != d):
            raise ShapeError(f"weights 'projection' has shape {w.shape}; {need} (n >= 1, {d})")
        return HowConfig(c, w)


def how(fm: FeatureMap, cfg: Optional[HowConfig] = None) -> np.ndarray:
    """Norm-attention pooling: weight 3x3-smoothed projected features by
    the squared norm of each raw feature column, then l2-normalize."""
    return run_pooling(how_spec(fm, cfg), fm).u[:, 0]


# --- framework instantiations ---------------------------------------------

def max_spec() -> PoolingSpec:
    """The max pool reads only the attention's support, all of X."""
    return PoolingSpec(attention="uniform", pool=PoolRule(kind="max"))


def gem_spec(gamma: float) -> PoolingSpec:
    return PoolingSpec(attention="uniform", pool=PoolRule(kind="f_alpha", gamma=gamma))


def lse_spec(r: float) -> PoolingSpec:
    return PoolingSpec(attention="uniform", pool=PoolRule(kind="lse", r=r))


def how_spec(fm: FeatureMap, cfg: Optional[HowConfig] = None) -> PoolingSpec:
    """The attention is the squared column norms of X 2^-e, the values (X - c)
    2^-e' (``pow2_scaled``; l2norm removes both).  Both fixed layers act on the
    narrow side: P (avg3(X - c) a) is P ((X - c) avg3^T(a)), so the average
    smooths the one attention column, not the d channels, and P meets one vector."""
    cfg = (cfg or HowConfig()).fitted(fm.d)
    return PoolingSpec(
        attention="feature_sqnorm",
        value_map=MapRule(kind="local_avg_fc", weight=cfg.projection, centering=cfg.centering),
        pool_update=UpdateRule(kind="l2norm"),
    )
