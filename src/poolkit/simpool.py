"""SimPool: single-step attention pooling with analytic gradients.

Forward is one pass of the engine (``simpool_spec``): the global average of the
raw features is mapped to a query, the LayerNorm'd features to keys and values;
a scaled column softmax gives the attention, and the pool, which shifts the values
by their minimum (``PoolRule.shift``), is their attention-weighted generalized mean.
Backward differentiates it exactly from the engine's tape (verified
against central differences in gradcheck); like the engine, it never
forms the d x p key matrix W_K xn.  The weight gradients have rank 1 and
are returned as their factors (``matcore.LowRank``); dX is dense.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gradcheck  # binds the lazily registered module; a pool request never executes it
from .errors import ContractError, ShapeError
from .framework import FeatureMap, MapRule, PoolingSpec, PoolRule, run_pooling
from .matcore import LowRank, Mat, pow2_exponent, weigh
from .meanfam import CLAMP_FLOOR
from .nncells import draw


@dataclass(eq=False)
class SimPoolParams:
    w_q: Mat
    w_k: Mat
    gamma: float = 2.0

    def __post_init__(self):
        # a SignMatrix that holds no expansion is finite by its draw: np.isfinite would expand it
        if not all(getattr(w, "dense", False) is None or np.all(np.isfinite(w))
                   for w in (self.w_q, self.w_k)):
            raise ContractError("SimPoolParams: non-finite weights")
        if not (1e-9 <= self.gamma <= 100.0):
            raise ContractError(f"SimPoolParams: gamma must be in [1e-9, 100], got {self.gamma}")
        shape = np.shape(self.w_q)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ShapeError(f"SimPoolParams: w_q must be square, got {shape}")
        if np.shape(self.w_k) != shape:
            raise ShapeError(f"SimPoolParams: w_k {np.shape(self.w_k)} != w_q {shape}")

    @classmethod
    def seeded(cls, d: int, gamma: float = 2.0, seed: int = 0) -> "SimPoolParams":
        return cls(*draw(seed, ((d, d), d), ((d, d), d)), gamma=gamma)


def simpool_spec(fm: FeatureMap, params: SimPoolParams) -> PoolingSpec:
    """SimPool as one pass of the loop: U^0 the GAP of the raw features,
    q = W_Q U^0, keys W_K LayerNorm(X) at scale sqrt(d), and values LayerNorm(X),
    pooled by the power mean of exponent gamma after the pool's shift.  Weights of
    another d raise ShapeError in run_pooling."""
    if fm.d < 2:
        raise ContractError("simpool: d must be >= 2 (LayerNorm degenerates)")
    e = max(pow2_exponent(fm.x) - 500, 0)  # past max|x| = 2^500, GAP(x 2^-e) 2^e: exact, in range
    return PoolingSpec(
        init=np.ldexp((np.ldexp(fm.x, -e) if e else fm.x).mean(axis=1, keepdims=True), e),
        query_map=MapRule(weight=params.w_q),
        key_map=MapRule(kind="linear_ln", weight=params.w_k),
        value_map=MapRule(kind="linear_ln"),
        attention="col_softmax",
        pool=PoolRule(gamma=params.gamma, shift=True),
    )


def simpool_forward(fm: FeatureMap, params: SimPoolParams) -> tuple[np.ndarray, np.ndarray, dict]:
    """Returns (pooled vector u, attention a, tape for backward): the tape
    of ``run_pooling``, plus the parameters, u and a."""
    tape = {}
    pooled = run_pooling(simpool_spec(fm, params), fm, tape)
    u, a = pooled.u[:, 0], pooled.attention.a[:, 0]
    tape.update(params=params, u=u, a=a)
    return u, a, tape


def simpool_backward(tape: dict, du: np.ndarray) -> tuple[LowRank, LowRank, Mat]:
    """Exact reverse-mode gradients of <du, u> w.r.t. (W_Q, W_K, X), from the
    tape of ``simpool_forward``; W_K xd and W_Q^T d_q are ``matcore.weigh``'s, as the forward's.
    dW_Q = d_q u0^T and dW_K = (s q) xd^T are rank-1 ``LowRank`` records, which ``np.asarray``
    forms one product per entry; dX is a dense d x p array."""
    du = np.asarray(du, dtype=np.float64)
    xn, vc = tape["key_input"], tape["value_input"]
    d, p = xn.shape
    if du.shape != (d,):
        raise ContractError(f"simpool_backward: du shape {du.shape} vs d={d}")
    params, a, u = tape["params"], tape["a"], tape["u"]
    g = params.gamma
    q, wkt_q, u0 = tape["q"][:, 0], tape["wkt_q"][:, 0], tape["query_input"][:, 0]
    # the pool's shift (at the argmin of xn, its input) and clamp mask, recomputed
    argmin = np.unravel_index(np.argmin(xn), xn.shape)  # first occurrence, row-major
    clamp_mask = vc > CLAMP_FLOOR

    # u = ((vc^g) a)^(1/g).  With r = vc / u and c_ij = a_j r_ij^g (each row
    # of c sums to 1): d u_i / d vc_ij = c_ij / r_ij and a_j d u_i / d a_j =
    # (u_i / g) c_ij.  c is formed in the log domain, so no power overflows,
    # even where a_j underflows; u >= CLAMP_FLOOR, so r is finite.
    # Each d x p array is formed once and updated in place; ``c`` becomes d_vc
    # and then serves as scratch.
    r = vc / u[:, None]
    with np.errstate(divide="ignore"):  # log 0 = -inf where a_j underflowed to 0
        c = np.log(r)
        c *= g
        c += np.log(a)
    np.exp(c, out=c)
    a_da = c.T @ (du * u / g)  # a * d_a, formed without d_a
    c *= du[:, None]
    c /= r
    del r

    # the pool's clamp and global-min shift: all mass of the min goes to its argmin element
    d_xn = np.where(clamp_mask, c, 0.0)
    d_xn[argmin] -= d_xn.sum()

    # softmax over the single attention column
    d_logits = a_da - a * a_da.sum()

    # logits = xn^T W_K^T q * s: each weight gradient is an outer product, kept as its factors
    scale = 1.0 / np.sqrt(d)
    xd = xn @ d_logits
    d_wk = LowRank(q * scale, xd)
    d_xn += np.multiply.outer(wkt_q * scale, d_logits, out=c)
    d_q = weigh(params.w_k, xd[:, None], "key")[:, 0] * scale

    # q = W_Q u0
    d_wq = LowRank(d_q, u0)
    d_u0 = weigh(params.w_q, d_q[:, None], "query", transpose=True)[:, 0]

    # LayerNorm backward, per column (population variance)
    mean_dy = d_xn.mean(axis=0, keepdims=True)
    mean_dy_xn = np.multiply(d_xn, xn, out=c).mean(axis=0, keepdims=True)
    d_x = d_xn
    d_x -= mean_dy
    d_x -= np.multiply(xn, mean_dy_xn, out=c)
    d_x *= 1.0 / tape["ln_std"]  # LayerNorm's divisor, kept by the forward

    # GAP init path
    d_x += d_u0[:, None] / p
    return d_wq, d_wk, d_x


def simpool_gradcheck(
    fm: FeatureMap, params: SimPoolParams, du: np.ndarray, h: float = 1e-4
) -> tuple[gradcheck.GradReport, gradcheck.GradReport, gradcheck.GradReport]:
    """Compare the analytic gradients of <du, u> w.r.t. W_Q, W_K and X with
    central differences of step h; perturbed parameters keep every other
    setting of ``params``."""
    _, _, tape = simpool_forward(fm, params)
    d_wq, d_wk, d_x = simpool_backward(tape, du)

    def loss(f: FeatureMap, pp: SimPoolParams) -> float:
        return float(du @ simpool_forward(f, pp)[0])

    num_wq = gradcheck.central_diff(lambda w: loss(fm, replace(params, w_q=w)), params.w_q, h)
    num_wk = gradcheck.central_diff(lambda w: loss(fm, replace(params, w_k=w)), params.w_k, h)
    num_x = gradcheck.central_diff(lambda x: loss(replace(fm, x=x), params), fm.x, h)
    return (gradcheck.compare("W_Q", d_wq, *num_wq), gradcheck.compare("W_K", d_wk, *num_wk),
            gradcheck.compare("X", d_x, *num_x))
