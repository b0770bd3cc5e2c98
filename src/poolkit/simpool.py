"""Single-step attention pooling with analytic gradients.

Forward: the global average of the raw features is mapped to a query,
the LayerNorm'd features to keys; a scaled column softmax gives the
attention, and the pooled vector is the attention-weighted generalized
mean of the min-shifted values.  Backward differentiates the whole
pass exactly (verified against central differences in gradcheck).

The one query meets the p keys only through the scores
xnᵀ (W_Kᵀ q), so neither pass forms the d x p key matrix W_K xn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ShapeError
from .framework import FeatureMap
from .gradcheck import GradReport, central_diff, compare
from .matcore import LN_EPS, Mat, col_softmax, col_var
from .meanfam import CLAMP_FLOOR, weighted_generalized_mean
from .nncells import dense


@dataclass(frozen=True)
class SimPoolParams:
    w_q: Mat
    w_k: Mat
    gamma: float = 2.0

    def __post_init__(self):
        wq = np.asarray(self.w_q, dtype=np.float64)
        wk = np.asarray(self.w_k, dtype=np.float64)
        object.__setattr__(self, "w_q", wq)
        object.__setattr__(self, "w_k", wk)
        if not (1e-9 <= self.gamma <= 100.0):
            raise ContractError(f"SimPoolParams: gamma must be in [1e-9, 100], got {self.gamma}")
        if wq.ndim != 2 or wq.shape[0] != wq.shape[1]:
            raise ShapeError(f"SimPoolParams: w_q must be square, got {wq.shape}")
        if wk.shape != wq.shape:
            raise ShapeError(f"SimPoolParams: w_k {wk.shape} != w_q {wq.shape}")
        if not (np.all(np.isfinite(wq)) and np.all(np.isfinite(wk))):
            raise ContractError("SimPoolParams: non-finite weights")

    @classmethod
    def seeded(cls, d: int, gamma: float = 2.0, seed: int = 0) -> "SimPoolParams":
        rng = np.random.default_rng(seed)
        return cls(
            w_q=dense(rng, d, d),
            w_k=dense(rng, d, d),
            gamma=gamma,
        )


@dataclass(frozen=True)
class SimPoolCache:
    """Every forward intermediate needed by the backward pass."""

    params: SimPoolParams
    x: Mat               # raw input (d, p)
    u0: np.ndarray       # GAP of raw x
    xn: Mat              # LayerNorm'd features
    inv_std: np.ndarray  # per-column 1/sqrt(var + LN_EPS)
    q: np.ndarray
    wkt_q: np.ndarray    # W_Kᵀ q, the query pulled back to feature space
    a: np.ndarray
    argmin: tuple[int, int]  # of xn, whose entry the values are shifted by
    vc: Mat              # clamped values
    clamp_mask: np.ndarray
    u: np.ndarray


def simpool_forward(
    fm: FeatureMap, params: SimPoolParams
) -> tuple[np.ndarray, np.ndarray, SimPoolCache]:
    """Returns (pooled vector u, attention a, cache for backward)."""
    x = fm.x
    d, p = x.shape
    if d < 2:
        raise ContractError("simpool_forward: d must be >= 2 (LayerNorm degenerates)")
    if params.w_q.shape[0] != d:
        raise ShapeError(f"simpool_forward: weights are {params.w_q.shape}, d={d}")

    u0 = x.mean(axis=1)  # GAP of the raw features, before LayerNorm

    inv_std = 1.0 / np.sqrt(col_var(x) + LN_EPS)
    xn = x - x.mean(axis=0)[None, :]
    xn *= inv_std[None, :]

    q = params.w_q @ u0
    wkt_q = params.w_k.T @ q
    logits = xn.T @ wkt_q / np.sqrt(d)  # = (W_K xn)ᵀ q / sqrt(d)
    a = col_softmax(logits[:, None], 1.0)[:, 0]

    flat_argmin = int(np.argmin(xn))  # first occurrence, row-major
    argmin = (flat_argmin // p, flat_argmin % p)
    v = xn - xn[argmin]
    clamp_mask = v > CLAMP_FLOOR
    vc = np.maximum(v, CLAMP_FLOOR, out=v)

    u = weighted_generalized_mean(vc, a[:, None], params.gamma)[:, 0]

    cache = SimPoolCache(
        params=params, x=x, u0=u0, xn=xn, inv_std=inv_std, q=q, wkt_q=wkt_q,
        a=a, argmin=argmin, vc=vc, clamp_mask=clamp_mask, u=u,
    )
    return u, a, cache


def simpool_backward(cache: SimPoolCache, du: np.ndarray) -> tuple[Mat, Mat, Mat]:
    """Exact reverse-mode gradients of <du, u> w.r.t. (W_Q, W_K, X)."""
    du = np.asarray(du, dtype=np.float64)
    d, p = cache.x.shape
    if du.shape != (d,):
        raise ContractError(f"simpool_backward: du shape {du.shape} vs d={d}")
    params = cache.params
    g = params.gamma
    a = cache.a
    vc = cache.vc

    # u = ((vc^g) a)^(1/g).  With r = vc / u and c_ij = a_j r_ij^g (each row
    # of c sums to 1): d u_i / d vc_ij = c_ij / r_ij and a_j d u_i / d a_j =
    # (u_i / g) c_ij.  c is formed in the log domain, so no power overflows,
    # even where a_j underflows; u >= CLAMP_FLOOR, so r is finite.
    # Each d x p array is formed once and updated in place; ``c`` becomes d_vc
    # and then serves as scratch.
    r = vc / cache.u[:, None]
    with np.errstate(divide="ignore"):  # log 0 = -inf where a_j underflowed to 0
        c = np.log(r)
        c *= g
        c += np.log(a)
    np.exp(c, out=c)
    a_da = c.T @ (du * cache.u / g)  # a * d_a, formed without d_a
    c *= du[:, None]
    c /= r
    del r

    # clamp + global-min shift: all mass of the min goes to its argmin element
    d_xn = np.where(cache.clamp_mask, c, 0.0)
    d_xn[cache.argmin] -= d_xn.sum()

    # softmax over the single attention column
    d_logits = a_da - a * a_da.sum()

    # logits = xn^T W_K^T q * s: every factor's gradient is an outer product
    scale = 1.0 / np.sqrt(d)
    xd = cache.xn @ d_logits
    d_wk = np.outer(cache.q * scale, xd)
    d_xn += np.multiply.outer(cache.wkt_q * scale, d_logits, out=c)
    d_q = params.w_k @ xd * scale

    # q = W_Q u0
    d_wq = np.outer(d_q, cache.u0)
    d_u0 = params.w_q.T @ d_q

    # LayerNorm backward, per column (population variance)
    xhat = cache.xn
    mean_dy = d_xn.mean(axis=0, keepdims=True)
    mean_dy_xhat = np.multiply(d_xn, xhat, out=c).mean(axis=0, keepdims=True)
    d_x = d_xn
    d_x -= mean_dy
    d_x -= np.multiply(xhat, mean_dy_xhat, out=c)
    d_x *= cache.inv_std[None, :]

    # GAP init path
    d_x += d_u0[:, None] / p
    return d_wq, d_wk, d_x


def simpool_gradcheck(
    fm: FeatureMap, params: SimPoolParams, du: np.ndarray, h: float = 1e-4
) -> tuple[GradReport, GradReport, GradReport]:
    """Compare the analytic gradients of <du, u> w.r.t. W_Q, W_K and X with
    central differences of step h; perturbed parameters keep every other
    setting of ``params``."""
    _, _, cache = simpool_forward(fm, params)
    d_wq, d_wk, d_x = simpool_backward(cache, du)

    def loss(f: FeatureMap, pp: SimPoolParams) -> float:
        return float(du @ simpool_forward(f, pp)[0])

    num_wq = central_diff(lambda w: loss(fm, replace(params, w_q=w)), params.w_q, h)
    num_wk = central_diff(lambda w: loss(fm, replace(params, w_k=w)), params.w_k, h)
    num_x = central_diff(lambda x: loss(replace(fm, x=x), params), fm.x, h)
    return (compare("W_Q", d_wq, *num_wq), compare("W_K", d_wk, *num_wk),
            compare("X", d_x, *num_x))
