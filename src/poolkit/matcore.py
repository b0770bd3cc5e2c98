"""Dense float64 matrix primitives.

All poolkit code works on 2-d C-contiguous ``numpy.float64`` arrays.
``as_matrix`` is the single entry point that coerces/validates inputs;
the remaining functions implement the few primitives whose semantics
(error reporting, tie rules, stability tricks) matter downstream.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ContractError,
    DegenerateMassError,
    NumericError,
    ShapeError,
)

Mat = np.ndarray


class LowRank:
    """The rank-1 matrix left right^T held as its factors.  ``np.asarray`` forms it as
    ``np.einsum("i,j->ij", left, right)``, one product per entry."""

    def __init__(self, left: np.ndarray, right: np.ndarray):
        self.left, self.right, self.shape = left, right, (len(left), len(right))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(np.einsum("i,j->ij", self.left, self.right), dtype=dtype)


# OpenBLAS's dgemm skips packing its operands into buffers when m * n * k <=
# 100**3 (its small-matrix kernel).  On one thread of an AVX-512 Xeon, a
# 2048 x 2048 weight times 4 columns took 3.6 ms in row blocks of 999k
# multiply-adds and 7.0 ms in blocks of 1.007M, as in one product.
SMALL_GEMM = 1_000_000

# dgemm packs W for (z^T W)^T too.  Summed over unpacked row blocks of W of PULL_BLOCK entries (512 KiB)
# it took 0.54-0.79x one product's time at d = 2048 and 2-8 columns, 0.52-0.68x at 1024, 0.80x at 384 x 8
# (pinned Xeon CPU, one BLAS thread); under 3n rows a block, as at 2048 x 16, every block size lost.
PULL_BLOCK = 64 * 1024

# Where ``weigh`` multiplies an nncells.SignMatrix from its bytes.  At one column per head (one pinned
# Xeon CPU, one BLAS thread, median of 15) they took 0.23-0.26x the time of expanding W and multiplying
# at d = 2048 (8 heads), 0.62-0.83x at 1024, 0.71-0.81x at 512 and 0.90-0.96x at 384 (6 heads), where a
# held expansion is 6x faster than the bytes; at two columns, 8 heads lost at d = 512 and 1024.
SIGN_COLUMNS = 1  # n*: the most columns per head
SIGN_ENTRIES = 512 * 512  # the fewest entries of W

LN_EPS = 1e-5  # added to the variance by every LayerNorm

CANCEL_LIMIT = 100.0  # (|x|^2 + |u|^2) / mean distance past which sq_distances centers


def as_matrix(a, name: str = "matrix") -> Mat:
    """Coerce to a 2-d float64 array, rejecting empty or non-finite input."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected 2-d array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name}: empty shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name}: contains non-finite entries")
    return m


def narrow_matmul(w: Mat, z) -> Mat:
    """``w @ z`` for a narrow z, each w of a stack (m, r, k) @ (m, k, n) alike, in blocks that
    the unpacked kernel takes.  A w stored by rows goes in row blocks that each multiply all of z,
    once they hold n rows or more.  W^T, a view of W stored by rows, goes as (z^T W)^T summed over
    row blocks of W of at most PULL_BLOCK entries, once they hold 3n rows or more (each adds a
    partial product) and all of W^T z is past SMALL_GEMM.  A 1-d or one-column z is one product."""
    w = np.asarray(w)
    r, k = w.shape[-2:]
    n = 1 if np.ndim(z) == 1 else z.shape[-1]
    if np.ndim(z) > 1 and w.strides[-2] < w.strides[-1]:  # w = W^T: block the rows of W
        wt, zt = w.swapaxes(-1, -2), z.swapaxes(-1, -2)
        rows = min(PULL_BLOCK // r, SMALL_GEMM // (n * r))
        if n == 1 or n * r * k <= SMALL_GEMM or rows < 3 * n:
            return (zt @ wt).swapaxes(-1, -2)
        out = 0.0
        for i in range(0, k, rows):
            out += zt[..., i : i + rows] @ wt[..., i : i + rows, :]  # 0.0 + the first block, exactly
        return out.swapaxes(-1, -2)
    rows = SMALL_GEMM // max(1, n * k)
    if n == 1 or rows >= r or rows < n:
        return w @ z
    z = np.ascontiguousarray(z)
    out = np.empty(w.shape[:-1] + (n,))
    for i in range(0, r, rows):
        np.matmul(w[..., i : i + rows, :], z, out=out[..., i : i + rows, :])
    return out


def weigh(w, z: Mat, stage: str, heads: int = 1, transpose: bool = False) -> Mat:
    """Every weight product: W (none: the identity) times the narrow z, W z or W^T z (W^T a view of
    W), one ``narrow_matmul`` of a stack.  Head i of m (m = 1 too) owns W's row block W_i, which
    meets z's row block i in W_i^T z_i, or z's column block i in W_i z_i: the identity keeps row
    block i of column block i.  A SignMatrix that holds no expansion multiplies from its bytes where
    it meets at most SIGN_COLUMNS columns per head and has at least SIGN_ENTRIES entries; any
    other product of it expands W and keeps that."""
    try:
        n = z.shape[1] // (1 if transpose else heads)  # columns per head
        if w is None and (heads == 1 or not transpose):  # W^T z of none at m heads fails below
            return np.einsum("ijik->ijk", z.reshape(heads, len(z) // heads, heads, n)).reshape(len(z), n)
        r, k = np.shape(w)  # a weight that is not 2-d fails here, as a ShapeError
        if r % heads:
            raise ShapeError(f"{stage} mapping: heads m={heads} do not divide d={r}")
        if getattr(w, "dense", False) is None:  # a SignMatrix that holds no expansion
            if 32 * heads * n > r:  # under 32 n rows a head, the 256-entry tables outgrow W:
                w = w.expanded()  # kept by none, so a request at d heads holds one at a time
            elif n <= SIGN_COLUMNS and r * k >= SIGN_ENTRIES:
                return w._weigh_bytes(z, heads, transpose)
        blocks = np.asarray(w).reshape(heads, -1, k)
        if transpose:
            wt_z = narrow_matmul(blocks.swapaxes(1, 2), z.reshape(heads, -1, n))  # (m, k, n)
            return wt_z.transpose(1, 0, 2).reshape(k, -1)
        return narrow_matmul(blocks, z.reshape(len(z), heads, -1).transpose(1, 0, 2)).reshape(r, -1)
    except (ValueError, IndexError) as exc:  # IndexError: a z that is not 2-d
        raise ShapeError(f"{stage} mapping: {exc}") from exc


def col_softmax(s: Mat, scale: float = 1.0) -> Mat:
    """Softmax over each column of ``s / scale`` with max subtraction."""
    if scale <= 0:
        raise ContractError(f"col_softmax: scale must be > 0, got {scale}")
    s = np.asarray(s, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise NumericError("col_softmax: non-finite input")
    z = s / scale
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def eta_norm(a: Mat) -> Mat:
    """l1-normalize the rows of a nonnegative matrix; a row with zero mass
    raises DegenerateMassError naming its index."""
    a = np.asarray(a, dtype=np.float64)
    if np.any(a < 0):
        raise ContractError("eta_norm: negative entries")
    mass = a.sum(axis=1)
    dead = np.flatnonzero(mass == 0)
    if dead.size:
        raise DegenerateMassError(f"eta_norm: zero-mass row {dead[0]}")
    return a / mass[:, None]


def sq_distances(x: Mat, u: Mat) -> Mat:
    """(p, k) squared Euclidean distances between the columns of x and u,
    expanded as |x|^2 + |u|^2 - 2 x.u and clamped at 0 against rounding.
    It cancels terms of size |x|^2 + |u|^2 (a common offset o costs each
    distance about eps |o|^2), so past CANCEL_LIMIT times the mean distance
    both operands are centered on u's first column and it is formed again;
    below that, the d x p centered copy would cost more than the digits it saves.
    A distance that overflows float64 raises NumericError."""
    same = u is x
    # einsum's rounding depends on the operands' layout: C order keeps it fixed
    x = np.ascontiguousarray(x, dtype=np.float64)
    u = x if same else np.ascontiguousarray(u, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for centered in (False, True):
            x2 = np.einsum("ij,ij->j", x, x)
            u2 = x2 if same else np.einsum("ij,ij->j", u, u)
            d = np.maximum(x2[:, None] + u2[None, :] - 2.0 * (x.T @ u), 0.0)
            if centered or x2.max() + u2.max() <= CANCEL_LIMIT * d.mean():  # False at inf or nan
                break
            x = x - u[:, :1]  # C order, as x is
            u = x if same else u - u[:, :1]
    if not np.isfinite(d).all():
        raise NumericError("sq_distances: a squared distance overflows float64")
    return d


def col_var(x: Mat) -> np.ndarray:
    """Each column's variance, for LayerNorm; NumericError names a column
    whose variance is not finite (from a non-finite entry)."""
    with np.errstate(over="ignore", invalid="ignore"):
        var = x.var(axis=0)
    bad = np.flatnonzero(~np.isfinite(var))
    if bad.size:
        raise NumericError(f"LayerNorm: the variance of column {bad[0]} is not finite")
    return var


def layernorm_cols(x: Mat, stats: dict | None = None) -> Mat:
    """Normalize each column to zero mean / unit variance (no affine); a dict
    passed as ``stats`` receives the (p,) divisor sqrt(var + LN_EPS) as ``ln_std``.  Past
    max|x| = 2^500 each column is scaled exactly below 2^500 by 2^-e, and LN_EPS by 2^-2e."""
    x = np.asarray(x, dtype=np.float64)
    e = 0
    if pow2_exponent(x) > 500:  # (x - mean)^2 < 2^1002 for every scaled column
        e = np.maximum(0, np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))[1] - 500)
        x = x * np.ldexp(1.0, -e)
    std = np.sqrt(col_var(x) + np.ldexp(LN_EPS, -2 * e))  # before out: np.var forms its own x - mean
    if stats is not None:
        stats["ln_std"] = np.ldexp(std, e)
    out = x - x.mean(axis=0, keepdims=True)
    out /= std
    return out


def logsumexp(m: Mat, axis: int) -> np.ndarray:
    """log(sum(exp(m))) along ``axis``, with the maximum factored out."""
    top = m.max(axis=axis, keepdims=True)
    return (top + np.log(np.exp(m - top).sum(axis=axis, keepdims=True))).squeeze(axis)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def pow2_exponent(v: np.ndarray) -> int:
    """e with max|v| = m 2^e, m in [1/2, 1) (0 for v = 0): v 2^-e is an exact
    scaling that keeps the squares, norms and products of v in range at any scale."""
    return int(np.frexp(max(v.max(), -v.min()))[1])  # max|v|, no |v| formed


def pow2_scaled(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v 2^-pow2_exponent(v); ``out=v`` scales v in place."""
    return np.ldexp(v, -pow2_exponent(v), out=out)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit l2 norm, in range through ``pow2_scaled``; 0 is degenerate."""
    v = pow2_scaled(np.asarray(v, dtype=np.float64))
    if not v.any():
        raise DegenerateMassError("l2_normalize: zero vector")
    return v / np.linalg.norm(v)


def conv2d_same(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded stride-1 cross-correlation over the last two axes, output
    the size of ``img``; leading axes of ``img`` and ``kernel`` broadcast."""
    img = np.asarray(img, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape[-2:]
    ph, pw = kh // 2, kw // 2
    lead = ((0, 0),) * (img.ndim - 2)
    padded = np.pad(img, lead + ((ph, kh - 1 - ph), (pw, kw - 1 - pw)))
    h, w = img.shape[-2:]
    out = np.zeros(np.broadcast_shapes(img.shape, kernel.shape[:-2] + (1, 1)))
    for dy in range(kh):
        for dx in range(kw):
            out += kernel[..., dy, dx, None, None] * padded[..., dy : dy + h, dx : dx + w]
    return out
