"""Single-step attention pooling with analytic gradients.

Forward: the global average of the raw features is mapped to a query,
the LayerNorm'd features to keys; a scaled column softmax gives the
attention, and the pooled vector is the attention-weighted generalized
mean of the min-shifted values.  Backward differentiates the whole
pass exactly (verified against central differences in gradcheck).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ShapeError
from .framework import FeatureMap
from .gradcheck import GradReport, central_diff, compare
from .matcore import Mat, col_softmax
from .meanfam import CLAMP_FLOOR
from .nncells import dense

DEFAULT_LN_EPS = 1e-5


@dataclass(frozen=True)
class SimPoolParams:
    w_q: Mat
    w_k: Mat
    gamma: float = 2.0
    ln_eps: float = DEFAULT_LN_EPS
    use_layernorm: bool = True

    def __post_init__(self):
        wq = np.asarray(self.w_q, dtype=np.float64)
        wk = np.asarray(self.w_k, dtype=np.float64)
        object.__setattr__(self, "w_q", wq)
        object.__setattr__(self, "w_k", wk)
        if not (0.0 < self.gamma <= 100.0):
            raise ContractError(f"SimPoolParams: gamma must be in (0, 100], got {self.gamma}")
        if wq.ndim != 2 or wq.shape[0] != wq.shape[1]:
            raise ShapeError(f"SimPoolParams: w_q must be square, got {wq.shape}")
        if wk.shape != wq.shape:
            raise ShapeError(f"SimPoolParams: w_k {wk.shape} != w_q {wq.shape}")
        if not (np.all(np.isfinite(wq)) and np.all(np.isfinite(wk))):
            raise ContractError("SimPoolParams: non-finite weights")

    @classmethod
    def seeded(cls, d: int, gamma: float = 2.0, seed: int = 0, **kw) -> "SimPoolParams":
        rng = np.random.default_rng(seed)
        return cls(
            w_q=dense(rng, d, d),
            w_k=dense(rng, d, d),
            gamma=gamma,
            **kw,
        )


@dataclass(frozen=True)
class SimPoolCache:
    """Every forward intermediate needed by the backward pass."""

    params: SimPoolParams
    x: Mat               # raw input (d, p)
    u0: np.ndarray       # GAP of raw x
    xn: Mat              # LayerNorm'd features (or x when LN disabled)
    mu: np.ndarray       # per-column mean of x
    inv_std: np.ndarray  # per-column 1/sqrt(var + eps)
    q: np.ndarray
    keys: Mat
    logits: np.ndarray
    a: np.ndarray
    argmin: tuple[int, int]
    v: Mat               # shifted values before clamping
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

    if params.use_layernorm:
        mu = x.mean(axis=0)
        inv_std = 1.0 / np.sqrt(x.var(axis=0) + params.ln_eps)
        xn = (x - mu[None, :]) * inv_std[None, :]
    else:
        mu = np.zeros(p)
        inv_std = np.ones(p)
        xn = x

    q = params.w_q @ u0
    keys = params.w_k @ xn
    logits = keys.T @ q / np.sqrt(d)
    a = col_softmax(logits[:, None], 1.0)[:, 0]

    flat_argmin = int(np.argmin(xn))  # first occurrence, row-major
    argmin = (flat_argmin // p, flat_argmin % p)
    v = xn - xn[argmin]
    vc = np.maximum(v, CLAMP_FLOOR)
    clamp_mask = v > CLAMP_FLOOR

    g = params.gamma
    inner = (vc**g) @ a
    u = inner ** (1.0 / g)

    cache = SimPoolCache(
        params=params, x=x, u0=u0, xn=xn, mu=mu, inv_std=inv_std, q=q, keys=keys,
        logits=logits, a=a, argmin=argmin, v=v, vc=vc, clamp_mask=clamp_mask, u=u,
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

    # u = ((vc^g) a)^(1/g)
    inner = cache.u**g
    d_inner = du * (1.0 / g) * np.where(inner > 0, cache.u / np.maximum(inner, 1e-300), 0.0)
    # d u_i / d inner_i = (1/g) inner^(1/g - 1) = (1/g) u / inner
    vg = vc ** (g - 1.0)
    d_vc = (d_inner[:, None] * a[None, :]) * g * vg
    d_a = (vc**g).T @ d_inner

    # clamp + global-min shift: all mass of the min goes to its argmin element
    d_v = np.where(cache.clamp_mask, d_vc, 0.0)
    d_xn = d_v.copy()
    d_xn[cache.argmin] -= d_v.sum()

    # softmax over the single attention column
    d_logits = a * (d_a - float(a @ d_a))

    # logits = keys^T q / sqrt(d)
    scale = 1.0 / np.sqrt(d)
    d_keys = np.outer(cache.q, d_logits) * scale
    d_q = cache.keys @ d_logits * scale

    # keys = W_K xn ; q = W_Q u0
    d_wk = d_keys @ cache.xn.T
    d_xn += params.w_k.T @ d_keys
    d_wq = np.outer(d_q, cache.u0)
    d_u0 = params.w_q.T @ d_q

    # LayerNorm backward, per column (population variance)
    if params.use_layernorm:
        inv = cache.inv_std[None, :]
        xhat = cache.xn
        mean_dy = d_xn.mean(axis=0, keepdims=True)
        mean_dy_xhat = (d_xn * xhat).mean(axis=0, keepdims=True)
        d_x = inv * (d_xn - mean_dy - xhat * mean_dy_xhat)
    else:
        d_x = d_xn

    # GAP init path
    d_x = d_x + d_u0[:, None] / p
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
    return (compare("W_Q", d_wq, num_wq), compare("W_K", d_wk, num_wk),
            compare("X", d_x, num_x))
