"""Poolers producing k > 1 vectors: entropic transport, Lloyd k-means in
matrix form, and slot-style iterative cross-attention.  k-means and slot
attention are engine specs, run by ``run_pooling``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractError, ConvergenceError, NumericError
from .framework import (AttentionMatrix, AttnRule, FeatureMap, InitRule, MapRule, PooledSet,
                        PoolingSpec, UpdateRule, run_pooling)
from .matcore import Mat, as_matrix, sq_distances
from .nncells import GruWeights, MlpWeights, dense


# --- Sinkhorn / optimal transport -----------------------------------------

@dataclass(frozen=True)
class SinkhornParams:
    epsilon: float
    tol: float = 1e-9
    max_iter: int = 1000

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ContractError(f"SinkhornParams: epsilon must be > 0, got {self.epsilon}")


def sinkhorn(cost: Mat, params: SinkhornParams) -> Mat:
    """Entropic-regularized transport plan between uniform marginals.

    Alternating row/column scaling of exp(-cost/epsilon) until both
    marginals (rows sum to 1/p, columns to 1/k) are within tolerance.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise NumericError("sinkhorn: non-finite cost")
    p, k = cost.shape
    kernel = np.exp(-cost / params.epsilon)
    if kernel.max() < 1e-300 or np.any(kernel.sum(axis=1) == 0) or np.any(
        kernel.sum(axis=0) == 0
    ):
        raise NumericError(
            f"sinkhorn: kernel underflow, epsilon={params.epsilon} too small"
        )
    row_marg = 1.0 / p
    col_marg = 1.0 / k
    plan = kernel / kernel.sum()
    for _ in range(params.max_iter):
        plan = plan * (row_marg / plan.sum(axis=1, keepdims=True))
        plan = plan * (col_marg / plan.sum(axis=0, keepdims=True))
        row_res = np.max(np.abs(plan.sum(axis=1) - row_marg))
        col_res = np.max(np.abs(plan.sum(axis=0) - col_marg))
        if max(row_res, col_res) <= params.tol:
            return plan
    raise ConvergenceError(
        f"sinkhorn: residual {max(row_res, col_res):.3e} after "
        f"{params.max_iter} iterations (tol {params.tol:g})"
    )


@dataclass(frozen=True)
class NystromMap:
    """Gaussian-kernel feature map anchored at k reference columns:
    psi(x) = M^{-1/2} kappa(anchors, x), M = kappa(anchors, anchors)."""

    anchors: Mat
    sigma: float
    m_inv_sqrt: Mat = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "anchors", as_matrix(self.anchors, "NystromMap anchors"))
        lam, vecs = np.linalg.eigh(self._kernel(self.anchors))
        lam = np.maximum(lam, 1e-10)
        object.__setattr__(self, "m_inv_sqrt", (vecs / np.sqrt(lam)) @ vecs.T)

    def __call__(self, x: Mat) -> Mat:
        return self.m_inv_sqrt @ self._kernel(x)

    def _kernel(self, x: Mat) -> Mat:
        d = sq_distances(x, self.anchors).T  # (k, n)
        return np.exp(-d / (2.0 * self.sigma**2))


def otk_pool(
    fm: FeatureMap,
    anchors: Mat,
    epsilon: float,
    psi: Optional[NystromMap] = None,
    params: Optional[SinkhornParams] = None,
) -> PooledSet:
    """Transport-plan pooling against anchor columns.

    Cost is squared distance of features to anchors; the plan carries
    mass 1/k per column, so the output is rescaled by k to give each
    column mean semantics (the k=1 case then coincides with plain GAP).
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim == 1:
        anchors = anchors[None, :]
    k = anchors.shape[1]
    if params is None:
        params = SinkhornParams(epsilon=epsilon)
    cost = sq_distances(fm.x, anchors)
    # Subtracting row/column minima rescales the kernel by diagonal factors,
    # which leaves the balanced plan unchanged while keeping exp(-cost/eps)
    # away from underflow when distances are large.
    cost = cost - cost.min(axis=1, keepdims=True)
    cost = cost - cost.min(axis=0, keepdims=True)
    plan = sinkhorn(cost, params)
    feats = fm.x if psi is None else psi(fm.x)
    u = (feats @ plan) * k
    return PooledSet(u=u, attention=AttentionMatrix(plan, stochastic_cols=False))


# --- k-means ---------------------------------------------------------------

def kmeans_distortion(x: Mat, centroids: Mat) -> float:
    """Sum over columns of x of the squared distance to the nearest centroid."""
    return float(sq_distances(x, centroids).min(axis=1).sum())


def kmeans_spec(k: int, iters: int, init: InitRule) -> PoolingSpec:
    """Lloyd's algorithm in matrix form: hard assignment of each column to
    its nearest centroid (ties to the lowest index), then the mean of each
    cluster; an empty cluster keeps its previous centroid."""
    return PoolingSpec(k=k, iters=iters, init=init, similarity="neg_sq_euclid",
                       attention=AttnRule(kind="hard_argmax"))


def kmeans_pool(fm: FeatureMap, k: int, iters: int, seed: int = 0) -> PooledSet:
    """Seeded k-means: init from k distinct data columns, run exactly
    ``iters`` Lloyd steps, return centroids plus the final assignment."""
    return run_pooling(kmeans_spec(k, iters, InitRule(kind="sample_columns", seed=seed)), fm)


# --- slot attention --------------------------------------------------------

@dataclass(frozen=True)
class SlotWeights:
    """Projection, recurrent and MLP weights plus the slot-init statistics."""

    w_q: Mat
    w_k: Mat
    w_v: Mat
    gru: GruWeights
    mlp: MlpWeights
    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def seeded(cls, d: int, seed: int = 0) -> "SlotWeights":
        rng = np.random.default_rng(seed)
        return cls(
            w_q=dense(rng, d, d),
            w_k=dense(rng, d, d),
            w_v=dense(rng, d, d),
            gru=GruWeights.seeded(rng, d, d),
            mlp=MlpWeights.seeded(rng, d, d, d),
            mu=rng.normal(size=d),
            sigma=np.abs(rng.normal(size=d)) + 0.1,
        )


def slot_spec(k: int, iters: int, weights: SlotWeights, seed: int = 0, simplified: bool = False,
              use_layernorm: bool = True, ln_eps: float = 1e-5) -> PoolingSpec:
    """Slot attention: slots drawn from N(mu, sigma^2), queries, keys and
    values through (LayerNorm-then-)linear maps, dot-product similarity.

    Full mode normalizes the column softmax over rows and updates slots
    through a GRU + residual MLP; simplified mode uses the plain column
    softmax and takes the weighted value average as the new slots.
    """
    def proj(w: Mat) -> MapRule:
        return MapRule(kind="linear_ln" if use_layernorm else "linear", weight=w, eps=ln_eps)

    if simplified:
        attention = AttnRule(kind="col_softmax", scale=np.sqrt(weights.w_k.shape[1]))
        update = UpdateRule()
    else:
        attention = AttnRule(kind="row_then_col_norm", scale=np.sqrt(weights.w_k.shape[0]))
        update = UpdateRule(kind="gru_mlp", gru=weights.gru, mlp=weights.mlp,
                            ln_eps=ln_eps if use_layernorm else None)
    return PoolingSpec(
        k=k, iters=iters,
        init=InitRule(kind="normal", seed=seed, mu=weights.mu, sigma=weights.sigma),
        query_map=proj(weights.w_q), key_map=proj(weights.w_k), value_map=proj(weights.w_v),
        attention=attention, pool_update=update,
    )


def slot_pool(
    fm: FeatureMap,
    k: int,
    iters: int,
    weights: SlotWeights,
    seed: int = 0,
    simplified: bool = False,
    use_layernorm: bool = True,
    ln_eps: float = 1e-5,
) -> PooledSet:
    """Iterative soft-clustering: k slot vectors compete for locations
    (see ``slot_spec`` for the two modes)."""
    return run_pooling(slot_spec(k, iters, weights, seed, simplified, use_layernorm, ln_eps), fm)
