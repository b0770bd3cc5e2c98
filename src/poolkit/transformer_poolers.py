"""Class-token cross-attention pooling with multi-head splitting.

A single pooled vector attends to the patch features, per head, over a
number of iterations, each a head-blocked ``vit_spec`` with its own weights;
the patch stream itself is held fixed, so this is a pooler, not an encoder.
One-shot requests keep each d x d weight as sign bytes and expand it just
before its one product, with byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .framework import FeatureMap, MapRule, PooledSet, PoolingSpec, UpdateRule, run_pooling
from .matcore import Mat
from .nncells import MlpWeights, draw, draw_bytes, expand, mlp_decl


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
        return cls._drawn(draw, d, iters, seed)

    @classmethod
    def packed(cls, d: int, iters: int, seed: int = 0) -> "VitWeights":
        """``seeded`` with each d x d matrix kept as its sign bytes (``draw_bytes``),
        which ``vit_cls_pool`` expands into one buffer just before its product."""
        return cls._drawn(draw_bytes, d, iters, seed)

    @classmethod
    def _drawn(cls, fill, d: int, iters: int, seed: int) -> "VitWeights":
        sq = ((d, d), d)
        *w, u0 = fill(seed, *(sq, sq, sq, sq, *mlp_decl(d, d, d)) * iters, ((d,), d))
        return cls(iters=tuple(VitIterWeights(*w[i:i + 4], MlpWeights(*w[i + 4:i + 6]))
                               for i in range(0, len(w), 6)),
                   u0=expand(u0, (d,), d) if u0.dtype == np.uint8 else u0)


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
    d = fm.d
    buf = np.empty(-(-d * d // 8) * 8) if weights.iters[0].w_q.dtype == np.uint8 else None

    def read(w: np.ndarray) -> np.ndarray:
        return expand(w, (d, d), d, out=buf) if w.dtype == np.uint8 else w

    u = weights.u0
    # an overflow reaches col_softmax as inf or NaN, which it reports
    with np.errstate(over="ignore", invalid="ignore"):
        for w in weights.iters[:iters]:
            pooled = run_pooling(vit_spec(w, u, m), fm, read=read)
            u = pooled.u
    return pooled
