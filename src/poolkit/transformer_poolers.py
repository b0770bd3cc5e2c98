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
from .nncells import MlpWeights, draw, mlp2, mlp_decl


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
        sq = ((d, d), d)
        *w, u0 = draw(seed, *(sq, sq, sq, sq, *mlp_decl(d, d, d)) * iters, ((d,), d))
        return cls(iters=tuple(VitIterWeights(*w[i:i + 4], MlpWeights(*w[i + 4:i + 6]))
                               for i in range(0, len(w), 6)), u0=u0)


def _cross_attention_step(
    x: Mat, u: np.ndarray, w: VitIterWeights, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """One m-head cross-attention of u against x; returns (u_next, mean
    attention).  Head i owns rows i*d/m to (i+1)*d/m of Q = W_Q u, W_K and W_V.

    The weights act on the narrow side: head i scores xᵀ (W_K,iᵀ q_i) and
    pools W_V,i (x a_i), so no d x p key or value matrix is formed."""
    d = x.shape[0]
    step = d // m
    # row i of k_q is q_iᵀ W_K,i, head i's query pulled back to feature space
    k_q = ((w.w_q @ u).reshape(m, 1, step) @ w.w_k.reshape(m, step, d)).reshape(m, d)
    a = col_softmax((k_q @ x).T, np.sqrt(step))  # (p, m)
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
    # an overflow reaches col_softmax as inf or NaN, which it reports
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(iters):
            u, attn = _cross_attention_step(fm.x, u, weights.iters[t], m)
    return PooledSet(u=u[:, None], attention=AttentionMatrix(attn[:, None], stochastic_cols=True))
