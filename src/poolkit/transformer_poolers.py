"""Class-token cross-attention pooling with multi-head splitting.

A single pooled vector attends to the patch features, per head, over a
number of iterations; the patch stream itself is held fixed, so this is
a pooler, not an encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError
from .framework import AttentionMatrix, FeatureMap, PooledSet
from .matcore import Mat, col_softmax
from .nncells import MlpWeights, dense, mlp2


def split_heads(a: Mat, m: int) -> list[Mat]:
    """Split rows into m contiguous blocks."""
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    if d % m != 0:
        raise ShapeError(f"split_heads: {m} does not divide dimension {d}")
    step = d // m
    return [a[i * step : (i + 1) * step] for i in range(m)]


@dataclass(frozen=True)
class VitIterWeights:
    """Weights of one pooling iteration."""

    w_q: Mat
    w_k: Mat
    w_v: Mat
    w_u: Mat
    mlp: MlpWeights

    @classmethod
    def seeded(cls, rng: np.random.Generator, d: int) -> "VitIterWeights":
        return cls(w_q=dense(rng, d, d), w_k=dense(rng, d, d), w_v=dense(rng, d, d),
                   w_u=dense(rng, d, d), mlp=MlpWeights.seeded(rng, d, d, d))


@dataclass(frozen=True)
class VitWeights:
    """Per-iteration weight stacks plus the initial pooled vector."""

    iters: tuple[VitIterWeights, ...]
    u0: np.ndarray

    @classmethod
    def seeded(cls, d: int, iters: int, seed: int = 0) -> "VitWeights":
        rng = np.random.default_rng(seed)
        return cls(
            iters=tuple(VitIterWeights.seeded(rng, d) for _ in range(iters)),
            u0=rng.normal(scale=1.0 / np.sqrt(d), size=d),
        )


def _cross_attention_step(
    x: Mat, u: np.ndarray, w: VitIterWeights, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """One m-head cross-attention of u against x, the heads being the m
    columns of a block-diagonal query; returns (u_next, mean attention).

    The weights act on the narrow side: scores are xᵀ (W_Kᵀ Q) and head i
    pools W_V (x a_i), so no d x p key or value matrix is formed."""
    d = x.shape[0]
    step = d // m
    a = col_softmax(x.T @ (w.w_k.T @ block_diagonal_query(w.w_q @ u, m)), np.sqrt(step))  # (p, m)
    # head i's pooled rows are its own block of rows of W_V applied to x a_i
    z = (w.w_v.reshape(m, step, d) @ (x @ a).T[:, :, None]).reshape(d)
    u_next = mlp2(w.w_u @ z, w.mlp)
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
    for t in range(iters):
        u, attn = _cross_attention_step(fm.x, u, weights.iters[t], m)
    return PooledSet(u=u[:, None], attention=AttentionMatrix(attn[:, None], stochastic_cols=True))


def block_diagonal_query(q: np.ndarray, m: int) -> Mat:
    """Arrange the m head sub-queries as a (d, m) block-diagonal matrix."""
    heads = split_heads(np.asarray(q, dtype=np.float64)[:, None], m)
    d = q.shape[0]
    step = d // m
    out = np.zeros((d, m))
    for i, h in enumerate(heads):
        out[i * step : (i + 1) * step, i] = h[:, 0]
    return out
