"""Class-token cross-attention pooling with multi-head splitting.

A single pooled vector attends to the patch features, per head, over a
number of iterations; the patch stream itself is held fixed, so this is
a pooler, not an encoder.  One-shot requests keep each d x d weight as sign
bytes and expand it just before its one product, with byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .framework import AttentionMatrix, FeatureMap, PooledSet
from .matcore import Mat, col_softmax
from .nncells import MlpWeights, draw, draw_bytes, expand, mlp2, mlp_decl


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


def _cross_attention_step(
    x: Mat, u: np.ndarray, w: VitIterWeights, m: int, read
) -> tuple[np.ndarray, np.ndarray]:
    """One m-head cross-attention of u against x; returns (u_next, mean
    attention).  Head i owns rows i*d/m to (i+1)*d/m of Q = W_Q u, W_K and W_V.

    The weights act on the narrow side: head i scores xᵀ (W_K,iᵀ q_i) and
    pools W_V,i (x a_i), so no d x p key or value matrix is formed.  Each
    weight is ``read`` just before its product."""
    d = x.shape[0]
    step = d // m
    # row i of k_q is q_iᵀ W_K,i, head i's query pulled back to feature space
    k_q = ((read(w.w_q) @ u).reshape(m, 1, step) @ read(w.w_k).reshape(m, step, d)).reshape(m, d)
    a = col_softmax((k_q @ x).T, np.sqrt(step))  # (p, m)
    z = (read(w.w_v).reshape(m, step, d) @ (x @ a).T[:, :, None]).reshape(d)
    u_next = mlp2(read(w.w_u) @ z, w.mlp, read)
    return u_next, a.mean(axis=1)


def vit_cls_pool(fm: FeatureMap, weights: VitWeights, m: int, iters: int) -> PooledSet:
    """Iterative class-token pooling: per-head scaled softmax attention of
    the pooled vector against the (fixed) patch features, merged and
    mapped through an output projection + MLP.

    This is the simplified form: no LayerNorm, no residuals.
    """
    if iters < 1:
        raise ContractError(f"vit_cls_pool: iters must be >= 1, got {iters}")
    if len(weights.iters) < iters:
        raise ContractError(
            f"vit_cls_pool: {len(weights.iters)} weight sets for {iters} iterations"
        )
    d = fm.d
    if d % m != 0:
        raise ShapeError(f"vit_cls_pool: heads m={m} do not divide d={d}")
    u = np.asarray(weights.u0, dtype=np.float64)
    if u.shape != (d,):
        raise ShapeError(f"vit_cls_pool: u0 shape {u.shape} vs d={d}")
    attn = None
    buf = np.empty(-(-d * d // 8) * 8) if weights.iters[0].w_q.dtype == np.uint8 else None

    def read(w: np.ndarray) -> np.ndarray:
        return expand(w, (d, d), d, out=buf) if w.dtype == np.uint8 else w

    # an overflow reaches col_softmax as inf or NaN, which it reports
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(iters):
            u, attn = _cross_attention_step(fm.x, u, weights.iters[t], m, read)
    return PooledSet(u=u[:, None], attention=AttentionMatrix(attn[:, None], stochastic_cols=True))
