"""Poolers producing k > 1 vectors: entropic transport, Lloyd k-means in
matrix form, and slot-style iterative cross-attention, each an engine spec
run by ``run_pooling``; ``sinkhorn`` is the transport attention's solver."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractError, ConvergenceError, NumericError, ShapeError
from .framework import FeatureMap, MapRule, PooledSet, PoolingSpec, UpdateRule, run_pooling
from .matcore import Mat, as_matrix, logsumexp, pow2_exponent, sq_distances
from .nncells import GruWeights, MlpWeights, draw, gru_decl, mlp_decl


# --- Sinkhorn / optimal transport -----------------------------------------

@dataclass
class SinkhornParams:
    """Settings of ``sinkhorn``: the entropic regularizer ``epsilon``, the
    marginal tolerance ``tol`` (max abs error of the plan's row and column
    sums) and the step budget ``max_iter``.  The solver works on log-domain
    dual potentials and anneals epsilon down from the cost range, dividing
    it by 8 per level and finishing each level with Newton steps; every
    log-sum-exp sweep and every Newton step, over all levels, counts against
    ``max_iter``.  epsilon must be finite and > 0, tol finite and >= 0, and
    max_iter an integer >= 1 (ContractError otherwise)."""

    epsilon: float
    tol: float = 1e-9
    max_iter: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ContractError(f"SinkhornParams: epsilon must be finite and > 0, got {self.epsilon}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ContractError(f"SinkhornParams: tol must be finite and >= 0, got {self.tol}")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ContractError(f"SinkhornParams: max_iter must be an integer >= 1, got {self.max_iter!r}")


LEVEL_TOL = 0.25    # error of every marginal, over its share, at which a coarser level hands over
LEVEL_RATIO = 8.0   # epsilon of one level over the next's
STEP_CAP = 4.0      # largest potential change in a Newton step's first trial, in units of epsilon
RESWEEP = 64.0      # potential change, in epsilon, past which a Newton step is followed by a sweep
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


def _schur_solve(plan_t: Mat, marg: np.ndarray, on_rows: np.ndarray, on_cols: np.ndarray,
                 scale: float = 1.0) -> Optional[np.ndarray]:
    """y (k) with -S y = scale (P^T diag(1/P1) on_rows - on_cols), its last
    entry held at 0, for the Schur complement S = diag(P^T 1) - P^T diag(1/P1) P
    of the dual's Hessian at the plan P, held transposed as ``plan_t``, with
    S's diagonal shifted by ``SCHUR_SHIFT`` of itself; ``marg`` stacks P's
    row and column sums.  None when a row's mass has underflowed to 0, where
    S is undefined, or when S is singular."""
    k, p = plan_t.shape
    rows = marg[:p]
    if not rows.all():
        return None
    scaled = plan_t / rows
    neg_schur = scaled @ plan_t.T
    neg_schur.flat[::k + 1] -= (1.0 + SCHUR_SHIFT) * marg[p:]
    y = np.zeros(k)
    try:
        y[:-1] = np.linalg.solve(neg_schur[:-1, :-1], (scale * (scaled @ on_rows - on_cols))[:-1])
    except np.linalg.LinAlgError:
        return None
    return y


def _newton_step(plan_t: Mat, marg: np.ndarray, grad: np.ndarray,
                 eps: float) -> Optional[tuple[np.ndarray, Mat, bool]]:
    """A damped Newton ascent step on the dual at the plan P, held
    transposed as ``plan_t`` (k x p).  ``marg`` stacks P's p row sums and k
    column sums, and ``grad`` = (1/p, 1/k) - ``marg`` is the dual gradient
    in the same order.  Returns the change of g, the transposed plan after
    the step and whether the step changed a potential by more than
    ``RESWEEP`` epsilon, or None when the Schur system is singular, the
    direction does not ascend, or no trial step ascends enough.

    The dual is <f, 1/p> + <g, 1/k> - eps * sum(P); its Hessian is
    -(1/eps) [[diag(P1), P], [P^T, diag(P^T 1)]].  Eliminating df leaves the
    Schur complement S = diag(P^T 1) - P^T diag(1/P1) P, singular along the
    gauge (f + c, g - c), which holding the last dg at 0 removes.  Where the
    plan falls into nearly uncoupled blocks, S is also nearly singular along
    their relative potential, and roundoff in the gradient would become a
    step there so large that the cap shrinks every other component to
    nothing; shifting S's diagonal by 1e-12 of itself bounds that step.  The
    step (df, dg) is one vector in ``marg``'s order, so its slope, ascent
    and cap each take one product or reduction.

    The plan is carried, not formed again from the potentials: the step t
    multiplies it by exp(x), x_ij = t (df_i + dg_j) / eps, from the x its
    trial has formed.  (Not as P + P expm1(x): where x << 0, 1 + expm1(x)
    keeps few digits of exp(x), and log P would drift from f + g - cost.)
    The first trial is capped at ``STEP_CAP`` epsilon per potential and
    halved until it ascends enough (Armijo); when the cap shortened it and
    it ascends at once, t doubles, up to the full step, while the dual gain
    keeps rising.  A step makes at most ``BACKTRACKS`` + 1 trials."""
    k, p = plan_t.shape
    dg = _schur_solve(plan_t, marg, grad[:p], grad[p:], eps)
    if dg is None:
        return None
    step = np.concatenate(((eps * grad[:p] - dg @ plan_t) / marg[:p], dg))  # (df, dg)
    slope = grad @ step
    if not 0.0 < slope < np.inf:
        return None
    # The step t gains t * slope - eps * sum(P (e^x - 1 - x)) on the dual.
    # eps * sum(P x) is the scalar t * (marg . step), so a trial evaluates
    # only expm1(x), which keeps the small gain exact.
    ascent = slope + marg @ step
    flat = plan_t.ravel()

    def trial(t: float) -> tuple[float, Mat]:
        s = (t / eps) * step
        x = np.add.outer(s[p:], s[:p])
        return t * ascent - eps * (flat @ np.expm1(x).ravel()), x

    # Near-block-diagonal plans put a huge step on the blocks' relative
    # potential; uncapped, every backtracked plan overflows.
    top = np.abs(step).max()
    t = min(1.0, STEP_CAP * eps / top)
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
    return t * dg, x, t * top > RESWEEP * eps


def _tangent(plan_t: Mat, marg: np.ndarray, cost_t: Mat, g: np.ndarray,
             eps: float, nxt: float) -> np.ndarray:
    """g moved from ``eps`` to the next level's ``nxt`` along the tangent of
    the optimal potentials, taken at the plan P (held transposed as
    ``plan_t``, with ``marg`` as in ``_newton_step``) on the cost C (held
    transposed as ``cost_t``).

    Differentiating P's row and column sums in eps, with
    P = exp((f + g - C) / eps), cancels f's terms and leaves
    eps dg/deps = g - y, where S y = w with the last y held at 0, S is the
    Schur complement solved by ``_schur_solve`` and
    w = (P o C)^T 1 - P^T diag(1/P1) (P o C) 1,
    which a uniform shift of C leaves as it is.  The next level starts from
    g + (nxt - eps) / eps (g - g_k - y), the same step in the gauge that
    keeps g's last entry, g_k, where it is: g + c and f - c give the same
    plan, and so the move is 0 at k = 1.  Where S is undefined or singular,
    g stays where it is.  Where the plan pins them, the potentials move by a
    few (eps - nxt) ln(pk), the plan's entropy scale; a wider move comes
    from a direction along which S is nearly singular, so a move that does
    not fit within B = 2 (eps - nxt) ln(e p k) either side of its centre is
    centred and clipped to +-B."""
    weighted = plan_t * cost_t
    y = _schur_solve(plan_t, marg, weighted.sum(axis=0), weighted.sum(axis=1))  # -S y = -w
    if y is None:
        return g
    move = g - g[-1] - y
    move *= (nxt - eps) / eps
    lo, hi = move.min(), move.max()
    bound = 2.0 * (eps - nxt) * (1.0 + math.log(plan_t.size))
    if not hi - lo <= 2.0 * bound:
        if not math.isfinite(hi - lo):
            return g
        move = np.clip(move - 0.5 * (lo + hi), -bound, bound)
    return g + move


def sinkhorn(cost: Mat, params: SinkhornParams) -> Mat:
    """Entropic-regularized transport plan between uniform marginals: rows
    sum to 1/p and columns to 1/k, each within ``params.tol``.

    The solver works in the log domain on the dual potentials f (p) and g
    (k); the plan is P = exp((f_i + g_j - cost_ij) / epsilon), so no kernel
    exp(-cost/epsilon) is formed and none can underflow.  It anneals
    epsilon: levels start at max(epsilon, max cost - min cost) and divide it
    by 8 down to epsilon.  Each level after the second starts from the last
    level's g moved along the tangent of the optimal potentials in epsilon,
    which ``_tangent`` takes from the handed-over plan.  The second starts
    from the first level's g as it is: the first level's plan, at the cost
    range, is close to the product of the marginals, and a tangent from it
    saved about a fifth of a Newton step, less than it cost.  A level runs
    one log-sum-exp sweep, then damped Newton steps on the concave dual
    until every row and column sum is within a quarter of its share (1/p or
    1/k), or the marginal residual is below ``tol`` at the last level; an
    absolute hand-over residual would pass a row holding no mass at all
    once 1/p fell below it.  A Newton step's first trial is capped at a few
    epsilon per potential and backtracked (Armijo); a capped trial that
    ascends is extended while the dual keeps rising.  Where no trial
    ascends, a sweep takes the step's place.

    The plan is carried from step to step: a sweep returns the plan its
    log-sum-exp has formed, and a Newton step the plan times exp of the
    step its last trial has formed, so only a sweep forms P from the
    potentials.  Each level opens with a sweep.  A carried entry that has
    underflowed to 0 stays 0; where only such entries join two blocks of
    the plan, a step along the blocks' relative potential changes neither
    the plan nor the residual.  So a Newton step that changes a potential
    by more than ``RESWEEP`` = 64 epsilon is followed by a sweep, which
    forms the plan from g and recovers those entries.  The plan is held
    transposed, k x p, so that its reductions and broadcasts run along the
    long axis, and its row and column sums are held in one vector, so that
    the marginal residual is one reduction.  Every sweep and every Newton
    step counts against ``max_iter``; a solve that has not reached ``tol``
    by then raises ``ConvergenceError``.
    """
    cost = as_matrix(cost, "sinkhorn cost")
    # a uniform shift leaves the plan as it is and keeps the potentials, and
    # so their rounding, at the scale of the cost range
    cost_t = (cost - cost.min()).T.copy()
    k, p = cost_t.shape
    g = np.zeros(k)
    per_share = np.repeat((float(p), float(k)), (p, k))
    margins = 1.0 / per_share  # the row sums 1/p, then the column sums 1/k
    marg = np.empty(p + k)  # the plan's row sums, then its column sums
    start = eps = max(params.epsilon, float(cost_t.max()))
    residual, steps = np.inf, 0
    # a near-singular Schur system can give inf or NaN; the slope test rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            final = eps == params.epsilon
            target = params.tol if final else LEVEL_TOL
            first = sweep = True  # each level opens with a sweep
            while first or not residual <= target:  # NaN runs into max_iter
                if steps == params.max_iter:
                    raise ConvergenceError(
                        f"sinkhorn: residual {residual:.3e} after {steps} iterations "
                        f"(tol {target:g}{'' if final else ' of the share, at a coarser level'})")
                steps += 1
                step = None if sweep else _newton_step(plan_t, marg, grad, eps)
                if step is None:
                    g, plan_t = _sweep(cost_t, g, eps)
                    sweep = False
                else:
                    g, plan_t, sweep = g + step[0], step[1], step[2]
                first = False
                plan_t.sum(axis=0, out=marg[:p])
                plan_t.sum(axis=1, out=marg[p:])
                grad = margins - marg
                residual = np.abs(grad if final else grad * per_share).max()
            if final:
                return plan_t.T.copy()
            nxt = max(params.epsilon, eps / LEVEL_RATIO)
            if eps < start:
                g = _tangent(plan_t, marg, cost_t, g, eps, nxt)
            eps = nxt


@dataclass(eq=False)
class NystromMap:
    """Gaussian-kernel feature map anchored at k reference columns:
    psi(x) = M^{-1/2} kappa(anchors, x), M = kappa(anchors, anchors); 2 sigma^2 must be finite
    and > 0.  As a value map's weight it is M^{-1/2} (``np.asarray``): see ``otk_spec``."""

    anchors: Mat
    sigma: float
    m_inv_sqrt: Mat = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.sigma > 0 and 0 < 2.0 * self.sigma * self.sigma < np.inf):  # float sigma**2 may raise
            raise ContractError(f"NystromMap: sigma must be > 0, 2 sigma^2 finite and > 0; got {self.sigma}")
        self.anchors = as_matrix(self.anchors, "NystromMap anchors")
        sq = sq_distances(self.anchors, self.anchors).T
        with np.errstate(over="ignore"):  # a distance / 2 sigma^2 past the float range: exp(-inf) = 0
            lam, vecs = np.linalg.eigh(np.exp(-sq / (2.0 * self.sigma**2)))
        lam = np.maximum(lam, 1e-10)
        self.m_inv_sqrt = (vecs / np.sqrt(lam)) @ vecs.T

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.m_inv_sqrt, dtype=dtype, copy=copy)


def otk_spec(anchors: Mat, params: SinkhornParams, psi: Optional[NystromMap] = None) -> PoolingSpec:
    """Transport against the k ``anchors``: the plan of cost |x - u|^2 (columns summing to 1/k)
    pools X, or with ``psi`` anchored there psi(X), the engine forming kappa from the scores."""
    return PoolingSpec(init=anchors, similarity="neg_sq_euclid", attention="sinkhorn", transport=params,
                       value_map=MapRule() if psi is None else MapRule(kind="nystrom", weight=psi))


def otk_pool(
    fm: FeatureMap,
    anchors: Mat,
    epsilon: float,
    psi: Optional[NystromMap] = None,
    params: Optional[SinkhornParams] = None,
) -> PooledSet:
    """Transport-plan pooling against anchor columns, a finite (d, k >= 1) array.

    Cost is squared distance of features to anchors; the plan carries
    mass 1/k per column, so the output is rescaled by k to give each
    column mean semantics (the k=1 case then coincides with plain GAP).
    ``params`` sets the solver's tolerance and budget; its epsilon must
    equal ``epsilon`` (ContractError otherwise).
    ``psi``, a map of the features before they are pooled, must be anchored
    at the transport anchors, as in the OTK embedding (ContractError
    otherwise): one distance matrix is both the cost and psi's input.  The
    engine then runs on ``psi.anchors`` itself, C-ordered and checked when
    psi was built, so that neither U^0 nor that distance matrix copies them.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    if anchors.ndim != 2 or anchors.shape[0] != fm.d or anchors.shape[1] < 1:
        raise ShapeError(f"otk_pool: weights 'anchors' has shape {anchors.shape}; "
                         f"{fm.d}-channel features need ({fm.d}, k >= 1)")
    shared = psi is not None and np.array_equal(psi.anchors, anchors)  # then finite, as psi's are
    if not shared and not np.isfinite(anchors).all():
        raise NumericError("otk_pool: weights 'anchors' contain non-finite entries")
    if psi is not None and psi.anchors.shape[0] != fm.d:
        raise ShapeError(f"otk_pool: psi.anchors has shape {psi.anchors.shape}; "
                         f"{fm.d}-channel features need {fm.d} rows")
    if psi is not None and not shared:
        raise ContractError("otk_pool: psi must be anchored at the transport anchors")
    if params is None:
        params = SinkhornParams(epsilon=epsilon)
    elif params.epsilon != epsilon:
        raise ContractError(f"otk_pool: epsilon={epsilon} but params.epsilon={params.epsilon}")
    out = run_pooling(otk_spec(psi.anchors if shared else anchors, params, psi), fm)
    return PooledSet(out.u * anchors.shape[1], out.attention)


# --- k-means ---------------------------------------------------------------

def kmeans_distortion(x: Mat, centroids: Mat) -> float:
    """Sum over columns of x of the squared distance to the nearest centroid."""
    return float(sq_distances(x, centroids).min(axis=1).sum())


def kmeans_spec(iters: int, init: Mat) -> PoolingSpec:
    """Lloyd's algorithm in matrix form from the k centroid columns of ``init``: hard
    assignment of each column to its nearest centroid (ties to the lowest index), then
    the mean of each cluster; an empty cluster keeps its previous centroid."""
    return PoolingSpec(iters=iters, init=init, similarity="neg_sq_euclid", attention="hard_argmax")


def kmeans_pool(fm: FeatureMap, k: int, iters: int, seed: int = 0) -> PooledSet:
    """Seeded k-means: init from k distinct data columns, run exactly
    ``iters`` Lloyd steps, return centroids plus the final assignment.  Past max|x| = 2^±500
    they run on x 2^-e (``pow2_exponent``), exactly, and the centroids are scaled back by 2^e."""
    e = pow2_exponent(fm.x)
    if abs(e) > 500:
        fm = FeatureMap(np.ldexp(fm.x, -e), fm.width, fm.height)
    out = run_pooling(kmeans_spec(iters, fm.sample_columns(k, seed)), fm)
    return out if abs(e) <= 500 else PooledSet(np.ldexp(out.u, e), out.attention)


# --- slot attention --------------------------------------------------------

@dataclass(eq=False)
class SlotWeights:
    """Projection, recurrent and MLP weights plus the slot-init statistics;
    ``gru`` and ``mlp`` are None in weights for simplified mode only."""

    w_q: Mat
    w_k: Mat
    w_v: Mat
    gru: Optional[GruWeights]
    mlp: Optional[MlpWeights]
    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def seeded(cls, d: int, seed: int = 0, simplified: bool = False) -> "SlotWeights":
        """Draws in the order w_q, w_k, w_v, mu, sigma, gru, mlp.  Simplified
        mode reads no GRU or MLP: it stops after sigma and keeps None, so its
        arrays are the full draw's prefix."""
        sq, vec = ((d, d), d), ((d,), 1)
        tail = () if simplified else gru_decl(d, d) + mlp_decl(d, d, d)
        w_q, w_k, w_v, mu, sigma, *rest = draw(seed, sq, sq, sq, vec, vec, *tail)
        gru, mlp = (GruWeights(*rest[:6]), MlpWeights(*rest[6:])) if rest else (None, None)
        return cls(w_q=w_q, w_k=w_k, w_v=w_v, gru=gru, mlp=mlp, mu=mu, sigma=np.abs(sigma) + 0.1)


def slot_spec(k: int, iters: int, weights: SlotWeights, seed: int = 0,
              simplified: bool = False) -> PoolingSpec:
    """Slot attention: k slots drawn by ``seed`` from N(mu, sigma^2), queries,
    keys and values through LayerNorm-then-linear maps, dot-product similarity.

    Full mode normalizes the column softmax over rows and updates slots
    through a GRU + residual MLP; simplified mode uses the plain column
    softmax and takes the weighted value average as the new slots.
    """
    def proj(w: Mat) -> MapRule:
        return MapRule(kind="linear_ln", weight=w)

    if simplified:
        attention, update = "col_softmax", UpdateRule()
    else:
        if weights.gru is None or weights.mlp is None:
            raise ContractError("slot_spec: full mode needs GRU and MLP weights; "
                                "these were drawn for simplified mode")
        attention = "row_then_col_norm"
        update = UpdateRule(kind="gru_mlp", gru=weights.gru, mlp=weights.mlp)
    if k < 1:
        raise ContractError(f"slot_spec: k must be >= 1, got {k}")
    draws = np.random.default_rng(seed).standard_normal((weights.mu.size, k))
    return PoolingSpec(
        iters=iters, init=weights.mu[:, None] + weights.sigma[:, None] * draws,
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
) -> PooledSet:
    """Iterative soft-clustering: k slot vectors compete for locations
    (see ``slot_spec`` for the two modes)."""
    return run_pooling(slot_spec(k, iters, weights, seed, simplified), fm)
