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
    ConvergenceError,
    DegenerateMassError,
    NumericError,
    ShapeError,
)

Mat = np.ndarray


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


def eta_norm(a: Mat, axis: str) -> Mat:
    """l1-normalize rows (``axis='rows'``) or columns (``axis='cols'``).

    Entries must be nonnegative; a slice with zero mass raises
    DegenerateMassError naming the offending index.
    """
    a = np.asarray(a, dtype=np.float64)
    if np.any(a < 0):
        raise ContractError("eta_norm: negative entries")
    if axis == "rows":
        mass = a.sum(axis=1)
        dead = np.flatnonzero(mass == 0)
        if dead.size:
            raise DegenerateMassError(f"eta_norm: zero-mass row {dead[0]}")
        return a / mass[:, None]
    if axis == "cols":
        mass = a.sum(axis=0)
        dead = np.flatnonzero(mass == 0)
        if dead.size:
            raise DegenerateMassError(f"eta_norm: zero-mass column {dead[0]}")
        return a / mass[None, :]
    raise ContractError(f"eta_norm: axis must be 'rows' or 'cols', got {axis!r}")


def sq_distances(x: Mat, u: Mat) -> Mat:
    """(p, k) squared Euclidean distances between the columns of x and u,
    expanded as |x|^2 + |u|^2 - 2 x.u and clamped at 0 against rounding."""
    x2 = np.sum(x**2, axis=0)[:, None]
    u2 = np.sum(u**2, axis=0)[None, :]
    return np.maximum(x2 + u2 - 2.0 * (x.T @ u), 0.0)


def layernorm_cols(x: Mat, eps: float = 1e-5) -> Mat:
    """Normalize each column to zero mean / unit variance (no affine)."""
    if eps <= 0:
        raise ContractError(f"layernorm_cols: eps must be > 0, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def jacobi_eigh(a: Mat, max_sweeps: int = 100) -> tuple[np.ndarray, Mat]:
    """Eigendecomposition of a small symmetric matrix by cyclic Jacobi.

    Returns (eigenvalues ascending, eigenvectors as columns).  The input
    must be symmetric within 1e-10 and at most 64x64.
    """
    a = np.asarray(a, dtype=np.float64)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ShapeError(f"jacobi_eigh: not square: {a.shape}")
    if k > 64:
        raise ContractError(f"jacobi_eigh: size {k} exceeds 64")
    if np.max(np.abs(a - a.T)) > 1e-10:
        raise ContractError("jacobi_eigh: input not symmetric within 1e-10")

    m = 0.5 * (a + a.T)
    v = np.eye(k)
    norm = max(1.0, np.linalg.norm(m))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum((m - np.diag(np.diag(m))) ** 2))
        if off <= 1e-12 * norm:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                apq = m[p, q]
                if abs(apq) <= 1e-18 * norm:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(k)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
                v = v @ rot
    else:
        raise ConvergenceError(
            f"jacobi_eigh: off-diagonal norm {off:.3e} after {max_sweeps} sweeps"
        )
    lam = np.diag(m).copy()
    order = np.argsort(lam, kind="stable")
    return lam[order], v[:, order]


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


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit l2 norm; a zero vector is degenerate."""
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if n == 0:
        raise DegenerateMassError("l2_normalize: zero vector")
    return v / n


def conv2d_same(img: Mat, kernel: Mat) -> Mat:
    """Zero-padded stride-1 cross-correlation, output same size as ``img``."""
    img = np.asarray(img, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(img, ((ph, kh - 1 - ph), (pw, kw - 1 - pw)))
    h, w = img.shape
    out = np.zeros_like(img)
    for dy in range(kh):
        for dx in range(kw):
            out += kernel[dy, dx] * padded[dy : dy + h, dx : dx + w]
    return out
