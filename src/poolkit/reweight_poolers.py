"""Channel / spatial re-weighting blocks recast as poolers.

Both methods gate the features with sigmoid outputs and end in global
average pooling.  The channel gate is the bias-free bottleneck MLP
``nncells.mlp2``: SE's excitation, run by the engine as the
``channel_gate`` update; CBAM, still direct, reuses it on [avg, max].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .framework import AttentionMatrix, FeatureMap, PooledSet, PoolingSpec, UpdateRule, run_pooling
from .matcore import Mat, conv2d_same, sigmoid
from .nncells import MlpWeights, draw, mlp2, mlp_decl

REDUCTION = 4  # bottleneck ratio d / hidden of the seeded gating MLP


def se_decl(d: int) -> tuple:
    """The gating MLP d -> d/r -> d of SE and CBAM."""
    if d % REDUCTION != 0:
        raise ContractError(f"SeWeights: d={d} not divisible by reduction={REDUCTION}")
    return mlp_decl(d, d // REDUCTION, d)


class SeWeights(MlpWeights):
    """Bottleneck gating MLP: d -> d/r -> d."""

    @classmethod
    def seeded(cls, d: int, *, seed: int = 0) -> "SeWeights":
        return cls(*draw(seed, *se_decl(d)))


def se_spec(w: SeWeights) -> PoolingSpec:
    """gap(X) by uniform attention and the mean pool, then z = sigmoid(mlp(u0)) * u0."""
    return PoolingSpec(attention="uniform", pool_update=UpdateRule(kind="channel_gate", mlp=w))


def se_pool(fm: FeatureMap, w: SeWeights) -> PooledSet:
    """Channel gating from the global average, then average pooling."""
    return run_pooling(se_spec(w), fm)


@dataclass(eq=False)
class CbamWeights:
    """Channel bottleneck MLP plus a 7x7 two-channel spatial kernel."""

    channel_mlp: SeWeights
    conv7: Mat  # (2, 7, 7)

    def __post_init__(self):
        self.conv7 = k = np.asarray(self.conv7, dtype=np.float64)
        if k.shape != (2, 7, 7):
            raise ShapeError(f"CbamWeights: conv7 must be (2, 7, 7), got {k.shape}")

    @classmethod
    def seeded(cls, d: int, *, seed: int = 0) -> "CbamWeights":
        w1, w2, conv7 = draw(seed, *se_decl(d), ((2, 7, 7), 49))
        return cls(channel_mlp=SeWeights(w1, w2), conv7=conv7)


def cbam_pool(fm: FeatureMap, w: CbamWeights) -> PooledSet:
    """Channel gating from each channel's [avg, max], then spatial gating by a
    7x7 convolution of each location's [avg, max] over the gated channels V,
    then average pooling: z = V (a / p).  Each average is a product with 1/p
    (or 1/d) weights, as ``gap``'s is (the channel average is ``gap`` bit for
    bit), so none overflows where the features are in range."""
    x = fm.x
    d, p = x.shape
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the output PooledSet rejects
        u0 = np.hstack([x @ np.full((p, 1), 1.0 / p), x.max(axis=1, keepdims=True)])  # (d, 2)
        q = sigmoid(mlp2(u0, w.channel_mlp).mean(axis=1))
        v = q[:, None] * x

        s = np.vstack([np.full((1, d), 1.0 / d) @ v, v.max(axis=0, keepdims=True)])  # (2, p)
        acc = conv2d_same(s.reshape(-1, fm.height, fm.width), w.conv7).sum(axis=0)
        a = sigmoid(acc).reshape(-1)

        z = v @ (a / p)
    return PooledSet(u=z[:, None], attention=AttentionMatrix(a[:, None], stochastic_cols=False))
