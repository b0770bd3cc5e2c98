"""Poolers producing k > 1 vectors: entropic transport, Lloyd k-means in
matrix form, and slot-style iterative cross-attention.  k-means and slot
attention are engine specs, run by ``run_pooling``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractError, ConvergenceError, ShapeError
from .framework import (AttentionMatrix, AttnRule, FeatureMap, InitRule, MapRule, PooledSet,
                        PoolingSpec, UpdateRule, run_pooling)
from .matcore import Mat, as_matrix, logsumexp, sq_distances
from .nncells import GruWeights, MlpWeights, dense


# --- Sinkhorn / optimal transport -----------------------------------------

@dataclass(frozen=True)
class SinkhornParams:
    """Settings of ``sinkhorn``: the entropic regularizer ``epsilon``, the
    marginal tolerance ``tol`` (max abs error of the plan's row and column
    sums) and the step budget ``max_iter``.  The solver works on log-domain
    dual potentials and anneals epsilon down from the cost range, dividing
    it by 4 per level and finishing each level with Newton steps; every
    log-sum-exp sweep and every Newton step, over all levels, counts against
    ``max_iter``."""

    epsilon: float
    tol: float = 1e-9
    max_iter: int = 1000

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ContractError(f"SinkhornParams: epsilon must be > 0, got {self.epsilon}")


LEVEL_TOL = 1e-3    # marginal residual at which a coarser epsilon level hands over
LEVEL_RATIO = 4.0   # epsilon of one level over the next's
STEP_CAP = 4.0      # largest potential change in a Newton step's first trial, in units of epsilon
ARMIJO = 1e-4       # fraction of the predicted ascent a Newton step must achieve
SCHUR_SHIFT = 1e-12  # relative shift of the Schur complement's diagonal
BACKTRACKS = 10     # trials of a Newton step beyond its first, halving or doubling it


def _sweep(cost_t: Mat, g: np.ndarray, eps: float) -> tuple[np.ndarray, Mat]:
    """One log-domain Sinkhorn sweep on the transposed (k x p) cost: f fits
    the rows to 1/p given g, then g fits the columns to 1/k given f.
    Returns g and the transposed plan, formed from the terms of g's own
    log-sum-exp, so that its columns sum to 1/k."""
    k, p = cost_t.shape
    f = -eps * (np.log(p) + logsumexp((g[:, None] - cost_t) / eps, axis=0))
    z = (f - cost_t) / eps
    top = z.max(axis=1)
    e = np.exp(z - top[:, None])
    s = e.sum(axis=1)
    return -eps * (np.log(k) + (top + np.log(s))), e / (k * s)[:, None]


def _newton_step(plan_t: Mat, rows: np.ndarray, cols: np.ndarray, grad_f: np.ndarray,
                 grad_g: np.ndarray, eps: float) -> Optional[tuple[np.ndarray, Mat]]:
    """A damped Newton ascent step on the dual at the plan P, held
    transposed as ``plan_t`` (k x p).  ``rows`` and ``cols`` are P's row and
    column sums, and (``grad_f``, ``grad_g``) = (1/p - rows, 1/k - cols) is
    the dual gradient.  Returns the change of g and the transposed plan
    after the step, or None when the Schur system is singular, the
    direction does not ascend, or no trial step ascends enough.

    The dual is <f, 1/p> + <g, 1/k> - eps * sum(P); its Hessian is
    -(1/eps) [[diag(P1), P], [P^T, diag(P^T 1)]].  Eliminating df leaves the
    Schur complement S = diag(P^T 1) - P^T diag(1/P1) P, singular along the
    gauge (f + c, g - c), which holding the last dg at 0 removes.  Where the
    plan falls into nearly uncoupled blocks, S is also nearly singular along
    their relative potential, and roundoff in the gradient would become a
    step there so large that the cap shrinks every other component to
    nothing; shifting S's diagonal by 1e-12 of itself bounds that step.

    The plan is carried, not formed again from the potentials: the step t
    multiplies it by exp(x), x_ij = t (df_i + dg_j) / eps, from the x its
    trial has formed.  (Not as P + P expm1(x): where x << 0, 1 + expm1(x)
    keeps few digits of exp(x), and log P would drift from f + g - cost.)
    The first trial is capped at ``STEP_CAP`` epsilon per potential and
    halved until it ascends enough (Armijo); when the cap shortened it and
    it ascends at once, t doubles, up to the full step, while the dual gain
    keeps rising.  A step makes at most ``BACKTRACKS`` + 1 trials."""
    if not rows.all():  # a row's mass underflowed to 0: the Hessian is singular there
        return None
    scaled = plan_t / rows
    neg_schur = scaled @ plan_t.T  # P^T diag(1/P1) P; less the shifted diag(P^T 1), -S
    neg_schur.flat[::cols.size + 1] -= (1.0 + SCHUR_SHIFT) * cols
    rhs = eps * (scaled @ grad_f - grad_g)
    try:
        dg = np.concatenate((np.linalg.solve(neg_schur[:-1, :-1], rhs[:-1]), [0.0]))
    except np.linalg.LinAlgError:
        return None
    df = (eps * grad_f - dg @ plan_t) / rows
    slope = grad_f @ df + grad_g @ dg
    if not 0.0 < slope < np.inf:
        return None
    # The step t gains t * slope - eps * sum(P (e^x - 1 - x)) on the dual.
    # eps * sum(P x) is the scalar t * (rows . df + cols . dg), so a trial
    # evaluates only expm1(x), which keeps the small gain exact.
    ascent = slope + rows @ df + cols @ dg
    flat = plan_t.ravel()

    def trial(t: float) -> tuple[float, Mat]:
        x = np.add.outer((t / eps) * dg, (t / eps) * df)
        return t * ascent - eps * (flat @ np.expm1(x).ravel()), x

    # Near-block-diagonal plans put a huge step on the blocks' relative
    # potential; uncapped, every backtracked plan overflows.
    t = min(1.0, STEP_CAP * eps / max(np.abs(df).max(), np.abs(dg).max()))
    extend = t < 1.0
    for left in range(BACKTRACKS, -1, -1):
        gain, x = trial(t)
        if gain >= ARMIJO * t * slope:
            break
        t, extend = t / 2, False
    else:
        return None
    # the capped first trial ascended: the cap, not the dual, stopped it short
    while extend and left and t < 1.0:
        left -= 1
        longer = min(1.0, 2.0 * t)
        more, x_more = trial(longer)
        if not more > gain:
            break
        t, gain, x = longer, more, x_more
    np.exp(x, out=x)
    x *= plan_t
    return t * dg, x


def sinkhorn(cost: Mat, params: SinkhornParams) -> Mat:
    """Entropic-regularized transport plan between uniform marginals: rows
    sum to 1/p and columns to 1/k, each within ``params.tol``.

    The solver works in the log domain on the dual potentials f (p) and g
    (k); the plan is P = exp((f_i + g_j - cost_ij) / epsilon), so no kernel
    exp(-cost/epsilon) is formed and none can underflow.  It anneals
    epsilon: levels start at max(epsilon, max cost - min cost) and divide it
    by 4 down to epsilon.  g moves about linearly in epsilon, so each level
    starts from the last two levels' g extrapolated to its epsilon.  A level
    runs one log-sum-exp sweep, then damped Newton steps on the concave dual
    until the marginal residual is below 1e-3, or below ``tol`` at the last
    level.  A Newton step's first trial is capped at a few epsilon per
    potential and backtracked (Armijo); a capped trial that ascends is
    extended while the dual keeps rising.  Where no trial ascends, a sweep
    takes the step's place.

    The plan is carried from step to step: a sweep returns the plan its
    log-sum-exp has formed, and a Newton step the plan times exp of the
    step its last trial has formed, so P is never formed again from f and
    g.  Each level opens with a sweep, so each starts from a plan formed
    from the potentials.  The plan is held transposed, k x p, so that its
    reductions and broadcasts run along the long axis.  Every sweep and
    every Newton step counts against ``max_iter``; a solve that has not
    reached ``tol`` by then raises ``ConvergenceError``.
    """
    cost = as_matrix(cost, "sinkhorn cost")
    # a uniform shift leaves the plan as it is and keeps the potentials, and
    # so their rounding, at the scale of the cost range
    cost_t = (cost - cost.min()).T.copy()
    k, p = cost_t.shape
    g = np.zeros(k)
    eps = max(params.epsilon, float(cost_t.max()))
    residual, steps, last = np.inf, 0, (g, np.inf)
    # a near-singular Schur system can give inf or NaN; the slope test rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            target = params.tol if eps == params.epsilon else LEVEL_TOL
            first = True  # each level opens with a sweep
            while first or not residual <= target:  # NaN runs into max_iter
                if steps == params.max_iter:
                    raise ConvergenceError(
                        f"sinkhorn: residual {residual:.3e} after {steps} iterations "
                        f"(tol {params.tol:g})")
                steps += 1
                step = None if first else _newton_step(plan_t, rows, cols, grad_f, grad_g, eps)
                if step is None:
                    g, plan_t = _sweep(cost_t, g, eps)
                else:
                    g, plan_t = g + step[0], step[1]
                first = False
                rows, cols = plan_t.sum(axis=0), plan_t.sum(axis=1)
                grad_f, grad_g = 1.0 / p - rows, 1.0 / k - cols
                residual = max(np.abs(grad_f).max(), np.abs(grad_g).max())
            if eps == params.epsilon:
                return plan_t.T.copy()
            nxt = max(params.epsilon, eps / LEVEL_RATIO)
            g, last = g + (nxt - eps) / (eps - last[1]) * (g - last[0]), (g, eps)
            eps = nxt


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
    """Transport-plan pooling against anchor columns, a (d, k >= 1) array.

    Cost is squared distance of features to anchors; the plan carries
    mass 1/k per column, so the output is rescaled by k to give each
    column mean semantics (the k=1 case then coincides with plain GAP).
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] != fm.d or anchors.shape[1] < 1:
        raise ShapeError(f"otk_pool: weights 'anchors' has shape {anchors.shape}; "
                         f"{fm.d}-channel features need ({fm.d}, k >= 1)")
    k = anchors.shape[1]
    if params is None:
        params = SinkhornParams(epsilon=epsilon)
    cost = sq_distances(fm.x, anchors)
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
              use_layernorm: bool = True) -> PoolingSpec:
    """Slot attention: slots drawn from N(mu, sigma^2), queries, keys and
    values through (LayerNorm-then-)linear maps, dot-product similarity.

    Full mode normalizes the column softmax over rows and updates slots
    through a GRU + residual MLP; simplified mode uses the plain column
    softmax and takes the weighted value average as the new slots.
    """
    def proj(w: Mat) -> MapRule:
        return MapRule(kind="linear_ln" if use_layernorm else "linear", weight=w)

    if simplified:
        attention = AttnRule(kind="col_softmax", scale=np.sqrt(weights.w_k.shape[1]))
        update = UpdateRule()
    else:
        attention = AttnRule(kind="row_then_col_norm", scale=np.sqrt(weights.w_k.shape[0]))
        update = UpdateRule(kind="gru_mlp", gru=weights.gru, mlp=weights.mlp,
                            layernorm=use_layernorm)
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
) -> PooledSet:
    """Iterative soft-clustering: k slot vectors compete for locations
    (see ``slot_spec`` for the two modes)."""
    return run_pooling(slot_spec(k, iters, weights, seed, simplified, use_layernorm), fm)
