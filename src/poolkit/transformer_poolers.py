"""Class-token cross-attention pooling with multi-head splitting.

A single pooled vector attends to the patch features, per head, over a
number of iterations, each a head-blocked ``vit_spec`` with its own weights;
the patch stream itself is held fixed, so this is a pooler, not an encoder.
Each seeded d x d weight is an ``nncells.SignMatrix``, multiplied from its sign bytes where
``matcore.weigh`` finds that pays, within rounding of the expanded weight's products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .framework import FeatureMap, MapRule, PooledSet, PoolingSpec, UpdateRule, run_pooling
from .matcore import Mat
from .nncells import MlpWeights, draw


@dataclass(eq=False)
class VitIterWeights:
    """Weights of one pooling iteration."""

    w_q: Mat
    w_k: Mat
    w_v: Mat
    w_u: Mat
    mlp: MlpWeights


@dataclass(eq=False)
class VitWeights:
    """Per-iteration weight stacks plus the initial pooled vector."""

    iters: tuple[VitIterWeights, ...]
    u0: np.ndarray

    @classmethod
    def seeded(cls, d: int, iters: int, seed: int = 0) -> "VitWeights":
        *w, u0 = draw(seed, *[((d, d), d)] * (6 * iters), ((d,), d))  # W_Q, W_K, W_V, W_U, MLP's two
        return cls(iters=tuple(VitIterWeights(*w[i:i + 4], MlpWeights(*w[i + 4:i + 6]))
                               for i in range(0, len(w), 6)), u0=u0)


def vit_spec(w: VitIterWeights, u: Mat, heads: int) -> PoolingSpec:
    """One iteration from the pooled vector u: head i's scaled softmax attention a_i of
    W_Q,i u against the features x pools W_V,i (x a_i); then u <- mlp(W_U z) on the merged heads."""
    return PoolingSpec(heads=heads, init=u,
                       query_map=MapRule(weight=w.w_q), key_map=MapRule(weight=w.w_k),
                       value_map=MapRule(weight=w.w_v),
                       pool_update=UpdateRule("mlp", weight=w.w_u, mlp=w.mlp))


def vit_cls_pool(fm: FeatureMap, weights: VitWeights, m: int, iters: int) -> PooledSet:
    """Iterative class-token pooling with m heads: ``iters`` runs of ``vit_spec`` from
    u0, each with its own weights.  The simplified form: no LayerNorm, no residuals."""
    if not 1 <= iters <= len(weights.iters):
        raise ContractError(f"vit_cls_pool: {len(weights.iters)} weight sets for {iters} iterations")
    u = weights.u0
    # an overflow reaches col_softmax as inf or NaN, which it reports
    with np.errstate(over="ignore", invalid="ignore"):
        for w in weights.iters[:iters]:
            u = (pooled := run_pooling(vit_spec(w, u, m), fm)).u
    return pooled
