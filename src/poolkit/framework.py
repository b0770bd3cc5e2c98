"""The generic pooling engine.

One configurable loop covers the whole landscape of pooling operators:
each iteration forms a query from the current pooled vectors and a key
from the features, turns their pairwise similarities into attention,
and pools the value matrix through a generalized mean of exponent
gamma.  The loop starts from U^0, a matrix of k columns, which the spec
holds as its ``init``.  Concrete methods are just parameter choices, each
builder forming its own U^0: the ``*_spec`` functions in the *_poolers
modules and ``simpool``.  gap, max, gem, lse, how, SE, k-means, transport, slot
attention, SimPool and ViT/CaiT run only as specs; ViT/CaiT is one head-blocked spec
per iteration (``vit_cls_pool``).  CBAM is the one direct function, checked against
criterion 9's NumPy reference formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ContractError, NumericError, ShapeError
from .matcore import (
    Mat,
    as_matrix,
    col_softmax,
    conv2d_same,
    eta_norm,
    layernorm_cols,
    l2_normalize,
    pow2_scaled,
    sigmoid,
    sq_distances,
    weigh,
)
from .meanfam import CLAMP_FLOOR, lse_pool, weighted_generalized_mean


@dataclass(eq=False)
class FeatureMap:
    """Feature matrix (d, p) with its spatial grid, p = width * height.

    Spatial flattening is row-major over the grid: location (x, y)
    maps to column j = y * width + x.
    """

    x: Mat
    width: int
    height: int

    def __post_init__(self):
        self.x = as_matrix(self.x, "FeatureMap.x")
        if self.width < 1 or self.height < 1:
            raise ContractError(f"FeatureMap: bad grid {self.width}x{self.height}")
        if self.x.shape[1] != self.width * self.height:
            raise ShapeError(
                f"FeatureMap: p={self.x.shape[1]} != width*height="
                f"{self.width * self.height}"
            )

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def sample_columns(self, k: int, seed: int) -> Mat:
        """k distinct columns of x, drawn by ``seed``; 1 <= k <= p."""
        if not 1 <= k <= self.p:
            raise ContractError(f"cannot sample {k} distinct columns from p={self.p}")
        return self.x[:, np.random.default_rng(seed).choice(self.p, size=k, replace=False)]

    @classmethod
    def from_array(cls, x, width: Optional[int] = None, height: Optional[int] = None):
        x = as_matrix(x, "features")
        p = x.shape[1]
        if width is None:  # p wide by default; a side of 0 meets the grid check, not a division
            width = p // (height or 1)
        if height is None:
            height = p // (width or 1)
        return cls(x, width, height)


@dataclass(eq=False)
class AttentionMatrix:
    """Attention (p, k); ``stochastic_cols`` asserts column-stochasticity."""

    a: Mat
    stochastic_cols: bool = False

    def __post_init__(self):
        self.a = a = np.asarray(self.a, dtype=np.float64)
        if self.stochastic_cols:
            if np.any(a < -1e-12) or np.any(a > 1 + 1e-12):
                raise NumericError("AttentionMatrix: entries outside [0, 1]")
            if np.max(np.abs(a.sum(axis=0) - 1.0)) > 1e-9:
                raise NumericError("AttentionMatrix: columns do not sum to 1")


@dataclass(eq=False)
class PooledSet:
    """Pooled vectors (d', k) plus the attention that produced them."""

    u: Mat
    attention: AttentionMatrix

    def __post_init__(self):
        if not np.all(np.isfinite(self.u)):
            raise NumericError("PooledSet: non-finite pooled output")


# --- configuration enumerations -------------------------------------------

# how similarities become attention; the last two read none
ATTENTIONS = ("col_softmax", "row_then_col_norm", "hard_argmax", "sinkhorn", "uniform", "feature_sqnorm")


class _Rule:
    """A rule record: its ``kind`` is one of the class's ``KINDS``."""

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ContractError(f"{type(self).__name__}: unknown kind {self.kind!r}")


@dataclass(eq=False)
class MapRule(_Rule):
    """Column-wise mapping: a weight-free input (``kind``, see ``_map_input``), then an optional
    ``weight``, dense or an ``nncells.SignMatrix``; local_avg_fc and nystrom are value inputs only."""

    kind: str = "identity"  # identity | linear_ln | local_avg_fc | nystrom (weight: a NystromMap)
    weight: Optional[Mat] = None
    centering: Optional[np.ndarray] = None

    KINDS = ("identity", "linear_ln", "local_avg_fc", "nystrom")


@dataclass
class PoolRule(_Rule):
    """Pooling operation f: the power mean of exponent gamma (the paper's
    f_alpha, gamma = (1 - alpha) / 2), LSE of scale r, or an exact extreme.  With
    ``shift``, f reads the values less their global minimum, clamped at CLAMP_FLOOR."""

    kind: str = "f_alpha"  # f_alpha | lse | max
    gamma: float = 1.0  # the arithmetic mean
    r: float = 1.0
    shift: bool = False  # SimPool's: its LayerNorm'd values have either sign

    KINDS = ("f_alpha", "lse", "max")


@dataclass(eq=False)
class UpdateRule(_Rule):
    """Output map of U after each iteration: ``gru_mlp``, a GRU step plus a
    residual MLP on its LayerNorm; ``channel_gate``, z <- sigmoid(mlp(z)) * z;
    ``mlp``, z <- mlp(W z), W the ``weight``."""

    kind: str = "identity"  # identity | l2norm | gru_mlp | channel_gate | mlp
    gru: object = None
    mlp: object = None
    weight: Optional[Mat] = None

    KINDS = ("identity", "l2norm", "gru_mlp", "channel_gate", "mlp")


@dataclass(eq=False)
class PoolingSpec:
    """Complete parameterization of one run of the engine.  ``init`` is U^0, a d' x k
    matrix or a d'-vector read as one column; k is its column count, or 1 where no rule
    reads U^0.  With m ``heads``, head i owns rows i d/m to (i+1) d/m of the query after
    its weight, of W_K and of W_V, or of the pooled values where there is no W_V."""

    iters: int = 1
    heads: int = 1
    init: Optional[Mat] = None  # read only by a similarity or gru_mlp
    query_map: MapRule = field(default_factory=MapRule)
    key_map: MapRule = field(default_factory=MapRule)
    value_map: MapRule = field(default_factory=MapRule)
    similarity: str = "dot"  # dot | neg_sq_euclid
    attention: str = "col_softmax"  # one of ATTENTIONS
    transport: object = None  # the cluster_poolers.SinkhornParams that only sinkhorn reads
    pool: PoolRule = field(default_factory=PoolRule)
    pool_update: UpdateRule = field(default_factory=UpdateRule)

    def __post_init__(self):
        for name in ("iters", "heads"):
            if getattr(self, name) < 1:
                raise ContractError(f"PoolingSpec: {name} must be >= 1, got {getattr(self, name)}")
        if self.similarity not in ("dot", "neg_sq_euclid"):
            raise ContractError(f"PoolingSpec: unknown similarity {self.similarity!r}")
        if self.attention not in ATTENTIONS:
            raise ContractError(f"PoolingSpec: unknown attention {self.attention!r}")
        if {self.query_map.kind, self.key_map.kind} & {"local_avg_fc", "nystrom"}:
            raise ContractError("PoolingSpec: local_avg_fc or nystrom is a value map only")
        # run_pooling moves every weight onto the k-column side of its product,
        # which needs the weight to commute with the similarity or the pool (and its shift).
        if self.key_map.weight is not None and self.similarity != "dot":
            raise ContractError(f"PoolingSpec: a weighted key map needs "
                                f"dot similarity, got {self.similarity!r}")
        if self.heads > 1 and (self.attention != "col_softmax" or self.key_map.weight is None):
            raise ContractError("PoolingSpec: heads > 1 need col_softmax and a weighted key map")
        if self.attention == "sinkhorn" and self.transport is None:
            raise ContractError("PoolingSpec: the sinkhorn attention needs transport params")
        value = "weighted" if self.value_map.weight is not None else self.value_map.kind
        if value in ("weighted", "local_avg_fc") and not (
                self.pool.kind == "f_alpha" and self.pool.gamma == 1.0 and not self.pool.shift):
            raise ContractError(f"PoolingSpec: a {value} value map needs the arithmetic-mean pool")
        if self.value_map.kind == "nystrom" and (self.value_map.weight is None or self.similarity == "dot"):
            raise ContractError("PoolingSpec: a nystrom value map needs a NystromMap weight "
                                "and neg_sq_euclid similarity, as psi's kernel reads -|x - u|^2")
        if self.value_map.kind == "local_avg_fc" and self.pool_update.kind != "l2norm":
            raise ContractError("PoolingSpec: local_avg_fc needs the l2norm update")


# --- similarity ------------------------------------------------------------

def pairwise_similarity(k_mat: Mat, q_mat: Mat, kind: str) -> Mat:
    """Similarity (p, k) of every key column (d, p) against every query column (d, k)."""
    k_mat = np.asarray(k_mat, dtype=np.float64)
    q_mat = np.asarray(q_mat, dtype=np.float64)
    if k_mat.shape[0] != q_mat.shape[0]:
        raise ShapeError(
            f"pairwise_similarity: key {k_mat.shape} vs query {q_mat.shape}"
        )
    if kind == "dot":
        return k_mat.T @ q_mat
    if kind == "neg_sq_euclid":
        return -sq_distances(k_mat, q_mat)
    raise ContractError(f"pairwise_similarity: unknown kind {kind!r}")


# --- engine ----------------------------------------------------------------

def _once(shared: dict, f, x: Mat, *args) -> Mat:
    """f(x, *args), formed once per run for the maps and the attention that read it."""
    return shared[f] if f in shared else shared.setdefault(f, f(x, *args))


def _map_input(rule: MapRule, x: Mat, shared: dict) -> Mat:
    """The weight-free input of a map: X, LayerNorm(X), or (X - c) 2^-e, a scale that
    local_avg_fc's l2norm update removes (``pow2_scaled``).  The values' shift is the pool's."""
    if rule.kind == "linear_ln":  # keys' and values' alike; its divisor goes to shared["ln_std"]
        return _once(shared, layernorm_cols, x, shared)
    if rule.kind == "local_avg_fc" and rule.centering is None:
        return _once(shared, pow2_scaled, x)  # the feature_sqnorm attention's input too
    if rule.kind == "local_avg_fc":
        try:
            xc = x - rule.centering[:, None]
        except ValueError as exc:
            raise ShapeError(f"value mapping: {exc}") from exc
        # in place on the fresh X - c: a second d x p array per call costs page faults
        return pow2_scaled(xc, out=xc)
    return x


def _avg3(a: Mat, width: int, height: int) -> Mat:
    """Adjoint of the 3x3 spatial average, on each column of a (p, k) or on a (p,).

    The average replaces each cell of every channel by the mean of the
    in-bounds cells of its 3x3 window (so a 1x1 grid is unchanged):
    avg3(X) = X K D^-1, K the symmetric window matrix, D the window counts.
    Its adjoint K D^-1 a sums each window of a / counts, so that
    avg3(X) a = X avg3^T(a) smooths the k attention columns, not the d channels.
    """
    kernel = np.ones((3, 3))
    counts = conv2d_same(np.ones((height, width)), kernel)
    grids = (a.T / counts.reshape(-1)).reshape(-1, height, width)
    return conv2d_same(grids, kernel).reshape(a.T.shape).T


def _attention(spec: PoolingSpec, s: Optional[Mat], dim: Optional[int], x: Mat, shared: dict) -> Mat:
    """Attention A (p, k) of the scores s.  Both softmax kinds divide the scores by sqrt of ``dim``,
    the dimension of the query head they are taken in; hard_argmax leaves a column no row chose at
    zero; sinkhorn's plan of cost -s has columns summing to 1/k; kinds that read no s give one column."""
    kind, p = spec.attention, x.shape[1]
    if kind == "uniform":
        return np.full((p, 1), 1.0 / p)
    if kind == "feature_sqnorm":  # of X 2^-e; einsum, as a 2nd d x p array costs page faults
        xs = _once(shared, pow2_scaled, x)
        return np.einsum("ij,ij->j", xs, xs)[:, None]
    if kind == "col_softmax":
        return col_softmax(s, np.sqrt(dim))
    if kind == "row_then_col_norm":
        return eta_norm(col_softmax(s, np.sqrt(dim)))
    if kind == "sinkhorn":
        from .cluster_poolers import sinkhorn  # here, so a run of another attention never executes it
        return sinkhorn(-s, spec.transport)
    # hard_argmax: one-hot row-wise argmax (ties to the lowest index), then column normalization
    m = np.zeros(s.shape)
    m[np.arange(p), np.argmax(s, axis=1)] = 1.0
    return m / np.maximum(m.sum(axis=0), 1.0)


def _pool(rule: PoolRule, v: Mat, a: Mat, t: int) -> Mat:
    if rule.kind == "f_alpha":
        if rule.gamma == 1.0:
            return v @ a  # plain weighted average, valid for any sign
        return weighted_generalized_mean(v, a, rule.gamma)
    if rule.kind == "lse":
        return lse_pool(v, a, rule.r)
    cols = []  # max
    for j in range(a.shape[1]):
        support = a[:, j] > 0
        if not np.any(support):
            raise NumericError(f"pooling at iteration {t}: empty support "
                               f"in attention column {j}")
        cols.append(np.max(v, axis=1, where=support, initial=-np.inf))  # no copy of v[:, support]
    return np.stack(cols, axis=1)


def _update(rule: UpdateRule, z: Mat, prev: Mat) -> Mat:
    if rule.kind == "identity":
        return z
    if rule.kind == "l2norm":
        return np.stack([l2_normalize(z[:, j]) for j in range(z.shape[1])], axis=1)
    from .nncells import gru_cell, mlp2  # here, so a run of another update never executes nncells
    if rule.kind == "mlp":  # ViT's
        return mlp2(weigh(rule.weight, z, "update"), rule.mlp)
    if rule.kind == "channel_gate":
        return sigmoid(mlp2(z, rule.mlp)) * z
    g = gru_cell(z, prev, rule.gru)  # gru_mlp
    return g + mlp2(layernorm_cols(g), rule.mlp)


def run_pooling(spec: PoolingSpec, fm: FeatureMap, tape: Optional[dict] = None) -> PooledSet:
    """Run ``spec.iters`` loop iterations from U^0 = ``spec.init``, read only if a rule needs it.

    Each weight meets the k query or pooled columns, never the p feature columns.  The weight-free
    inputs X~ (see ``_map_input``) are formed once, before the loop, the values shifted there if the
    pool shifts; nystrom's, psi's kernel of the scores, in each iteration.  The key weight is pulled
    back onto the queries, s = X~^T (W_K^T q); the value weight acts after the arithmetic pool,
    z = W_V (X~ a), as psi's M^{-1/2} does; and local_avg_fc's 3x3 average moves onto the attention
    through its adjoint, z = W ((X - c) avg3^T(a)).  Each weight, W_U too, meets its narrow side on
    one path for every head count (``matcore.weigh``).  m > 1 heads' attention comes back as their
    column blocks' mean; one head's is the attention array itself, unaveraged and uncopied.

    A dict passed as ``tape`` receives, all formed anyway, ``key_input``, ``value_input``, ``ln_std``
    (LayerNorm's divisor, or None) and the last iteration's ``query_input``, ``q`` and ``wkt_q``.
    """
    x = fm.x
    needs_sim = spec.attention not in ("uniform", "feature_sqnorm")
    reads_u = needs_sim or spec.pool_update.kind == "gru_mlp"
    if reads_u and spec.init is None:
        raise ContractError("run_pooling: a similarity or gru_mlp reads U^0; the spec has no init")
    u = as_matrix(spec.init, "PoolingSpec.init") if reads_u else None
    shared = {}
    x_key = _map_input(spec.key_map, x, shared) if needs_sim else None
    x_val = _map_input(spec.value_map, x, shared)
    if spec.pool.shift:  # on a fresh array: x_val may be X or the keys' input
        x_val = x_val - x_val.min()
        np.maximum(x_val, CLAMP_FLOOR, out=x_val)

    for t in range(spec.iters):
        s = dim = None
        if needs_sim:
            u_in = _map_input(spec.query_map, u, {})
            q = weigh(spec.query_map.weight, u_in, f"query at iteration {t}")
            wkt_q = weigh(spec.key_map.weight, q, "key", spec.heads, transpose=True)
            s = pairwise_similarity(x_key, wkt_q, spec.similarity)
            dim = q.shape[0] // spec.heads
        a = _attention(spec, s, dim, x, shared)
        if spec.value_map.kind == "nystrom":  # psi's Gaussian kernel of the scores s = -sq (p x k)
            with np.errstate(over="ignore"):  # a distance / 2 sigma^2 past the float range: exp(-inf) = 0
                x_val = np.exp(s.T / (2.0 * spec.value_map.weight.sigma**2))
        smoothed = _avg3(a, fm.width, fm.height) if spec.value_map.kind == "local_avg_fc" else a
        z = weigh(spec.value_map.weight, _pool(spec.pool, x_val, smoothed, t), "value", spec.heads)
        if spec.attention == "hard_argmax":
            dead = ~a.any(axis=0)
            z[:, dead] = u[:, dead]  # a dead cluster keeps its previous vector
        u = _update(spec.pool_update, z, u)

    if tape is not None:
        tape.update(value_input=x_val, ln_std=shared.get("ln_std"))
        if needs_sim:
            tape.update(key_input=x_key, query_input=u_in, q=q, wkt_q=wkt_q)
    if spec.heads > 1:
        a = a.reshape(len(a), spec.heads, -1).mean(axis=1)
    return PooledSet(u=u, attention=AttentionMatrix(a, stochastic_cols=spec.attention == "col_softmax"))
