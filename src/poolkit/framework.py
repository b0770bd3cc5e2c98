"""The generic pooling engine.

One configurable loop covers the whole landscape of pooling operators:
each iteration forms a query from the current pooled vectors and a key
from the features, turns their pairwise similarities into attention,
and pools the value matrix through a generalized mean of exponent
gamma.  The loop starts from U^0, a matrix of k columns, which the spec
holds as its ``init``.  Concrete methods are just parameter choices, each
builder forming its own U^0: the ``*_spec`` functions in the *_poolers
modules and ``simpool``.  gap, max, gem, lse, how, SE, k-means, slot
attention, SimPool and ViT/CaiT run only as specs; ViT/CaiT is one
head-blocked spec per iteration (``vit_cls_pool``).  Two methods are
still direct functions, each with its own check: transport (``sinkhorn``
under ``otk_pool``) by acceptance criterion 3's marginal residuals, and
CBAM by criterion 9's NumPy reference formula, beside the simple poolers
and SE.
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
    narrow_matmul,
    pow2_scaled,
    sigmoid,
    sq_distances,
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
ATTENTIONS = ("col_softmax", "row_then_col_norm", "hard_argmax", "uniform", "feature_sqnorm")


class _Rule:
    """A rule record: its ``kind`` is one of the class's ``KINDS``."""

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ContractError(f"{type(self).__name__}: unknown kind {self.kind!r}")


@dataclass(eq=False)
class MapRule(_Rule):
    """Column-wise mapping: a weight-free input (``kind``, see ``_map_input``),
    then an optional ``weight``; ln_shifted and local_avg_fc are value inputs."""

    kind: str = "identity"  # identity | linear_ln | ln_shifted | local_avg_fc
    weight: Optional[Mat] = None
    centering: Optional[np.ndarray] = None

    KINDS = ("identity", "linear_ln", "ln_shifted", "local_avg_fc")
    VALUE_ONLY = ("ln_shifted", "local_avg_fc")


@dataclass
class PoolRule(_Rule):
    """Pooling operation f: the power mean of exponent gamma (the paper's
    f_alpha, gamma = (1 - alpha) / 2), LSE of scale r, or an exact extreme."""

    kind: str = "f_alpha"  # f_alpha | lse | max
    gamma: float = 1.0  # the arithmetic mean
    r: float = 1.0

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
    its weight, of W_K and of W_V."""

    iters: int = 1
    heads: int = 1
    init: Optional[Mat] = None  # read only by a similarity or gru_mlp
    query_map: MapRule = field(default_factory=MapRule)
    key_map: MapRule = field(default_factory=MapRule)
    value_map: MapRule = field(default_factory=MapRule)
    similarity: str = "dot"  # dot | neg_sq_euclid
    attention: str = "col_softmax"  # one of ATTENTIONS
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
        for rule in (self.query_map, self.key_map):
            if rule.kind in MapRule.VALUE_ONLY:
                raise ContractError(f"PoolingSpec: {rule.kind} is a value map only")
        # run_pooling moves every weight onto the k-column side of its product,
        # which needs the weight to commute with the similarity or the pool.
        if self.key_map.weight is not None and self.similarity != "dot":
            raise ContractError(f"PoolingSpec: a weighted key map needs "
                                f"dot similarity, got {self.similarity!r}")
        if self.heads > 1 and (self.attention != "col_softmax" or self.key_map.weight is None
                               or self.value_map.weight is None):
            raise ContractError("PoolingSpec: heads > 1 need col_softmax and weighted key and value maps")
        value = "weighted" if self.value_map.weight is not None else self.value_map.kind
        if value in ("weighted", "local_avg_fc") and not (
                self.pool.kind == "f_alpha" and self.pool.gamma == 1.0):
            raise ContractError(f"PoolingSpec: a {value} value map needs the arithmetic-mean pool")
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
    """The weight-free input of a map: X, LayerNorm(X), LayerNorm(X) less its
    minimum, clamped at CLAMP_FLOOR (SimPool's values), or (X - c) 2^-e, a
    scale that local_avg_fc's l2norm update removes (``pow2_scaled``)."""
    if rule.kind == "linear_ln":  # its divisor goes to shared["ln_std"]
        return _once(shared, layernorm_cols, x, shared)
    if rule.kind == "ln_shifted":  # the keys' LayerNorm, shared
        xn = _once(shared, layernorm_cols, x, shared)
        v = xn - xn.min()
        return np.maximum(v, CLAMP_FLOOR, out=v)
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


def _weigh(rule: MapRule | UpdateRule, z: Mat, stage: str, read, heads: int = 1, transpose: bool = False) -> Mat:
    """A map's or mlp update's weight W, ``read`` just before its product with the narrow z: W z, or
    W^T z as (z^T W)^T.  Head i of m (m = 1 too) owns W's row block W_i, which meets z's row block i
    in one batched W_i^T z_i, or z's column block i in one stacked ``narrow_matmul`` W_i z_i."""
    if rule.weight is None:
        return z
    try:
        r, k = (w := read(rule.weight)).shape  # a weight that is not 2-d fails here, as a ShapeError
        if r % heads:
            raise ShapeError(f"{stage} mapping: heads m={heads} do not divide d={r}")
        blocks = w.reshape(heads, -1, k)
        if transpose:
            return (z.reshape(heads, -1, z.shape[1]).transpose(0, 2, 1) @ blocks).reshape(-1, k).T
        return narrow_matmul(blocks, z.reshape(len(z), heads, -1).transpose(1, 0, 2)).reshape(r, -1)
    except ValueError as exc:
        raise ShapeError(f"{stage} mapping: {exc}") from exc


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


def _attention(kind: str, s: Optional[Mat], dim: Optional[int], x: Mat, shared: dict) -> Mat:
    """Attention A (p, k) of the scores s.  Both softmax kinds divide the scores by sqrt
    of ``dim``, the dimension of the query head they are taken in; hard_argmax leaves a
    column no row chose at zero; the two kinds that read no scores give one column."""
    p = x.shape[1]
    if kind == "uniform":
        return np.full((p, 1), 1.0 / p)
    if kind == "feature_sqnorm":  # of X 2^-e; einsum, as a 2nd d x p array costs page faults
        xs = _once(shared, pow2_scaled, x)
        return np.einsum("ij,ij->j", xs, xs)[:, None]
    if kind == "col_softmax":
        return col_softmax(s, np.sqrt(dim))
    if kind == "row_then_col_norm":
        return eta_norm(col_softmax(s, np.sqrt(dim)))
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


def _update(rule: UpdateRule, z: Mat, prev: Mat, read=np.asarray) -> Mat:
    if rule.kind == "identity":
        return z
    if rule.kind == "l2norm":
        return np.stack([l2_normalize(z[:, j]) for j in range(z.shape[1])], axis=1)
    from .nncells import gru_cell, mlp2  # here, so a run of another update never executes nncells
    if rule.kind == "mlp":
        return mlp2(_weigh(rule, z, "update", read), rule.mlp, read)
    if rule.kind == "channel_gate":
        return sigmoid(mlp2(z, rule.mlp)) * z
    g = gru_cell(z, prev, rule.gru)  # gru_mlp
    return g + mlp2(layernorm_cols(g), rule.mlp)


def run_pooling(spec: PoolingSpec, fm: FeatureMap, tape: Optional[dict] = None,
                read=np.asarray) -> PooledSet:
    """Run ``spec.iters`` loop iterations from U^0 = ``spec.init``, read only if a rule needs it.

    Each weight meets the k query or pooled columns, never the p feature columns.  Only the
    weight-free inputs X~ (see ``_map_input``) are formed once, before the loop.  The key weight
    is pulled back onto the queries, s = X~^T (W_K^T q); the value weight acts after the arithmetic
    pool, z = W_V (X~ a); and local_avg_fc's 3x3 average moves onto the attention through its
    adjoint, z = W ((X - c) avg3^T(a)).  Each weight, W_U too, is ``read`` just before its product,
    on one path for every head count (``_weigh``); m heads' attention is their column blocks' mean.

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

    for t in range(spec.iters):
        s = dim = None
        if needs_sim:
            u_in = _map_input(spec.query_map, u, {})
            q = _weigh(spec.query_map, u_in, f"query at iteration {t}", read)
            wkt_q = _weigh(spec.key_map, q, "key", read, spec.heads, transpose=True)
            s = pairwise_similarity(x_key, wkt_q, spec.similarity)
            dim = q.shape[0] // spec.heads
        a = _attention(spec.attention, s, dim, x, shared)
        smoothed = _avg3(a, fm.width, fm.height) if spec.value_map.kind == "local_avg_fc" else a
        z = _weigh(spec.value_map, _pool(spec.pool, x_val, smoothed, t), "value", read, spec.heads)
        if spec.attention == "hard_argmax":
            dead = ~a.any(axis=0)
            z[:, dead] = u[:, dead]  # a dead cluster keeps its previous vector
        u = _update(spec.pool_update, z, u, read)

    if tape is not None:
        tape.update(value_input=x_val, ln_std=shared.get("ln_std"))
        if needs_sim:
            tape.update(key_input=x_key, query_input=u_in, q=q, wkt_q=wkt_q)
    a = a.reshape(len(a), spec.heads, -1).mean(axis=1)  # exactly a itself at one head
    return PooledSet(u=u, attention=AttentionMatrix(a, stochastic_cols=spec.attention == "col_softmax"))
