"""Tiny fixed-weight, bias-free neural cells: a 2-layer MLP and a GRU cell.

Weights are plain arrays, either user-supplied or drawn from a seeded
normal generator (scale 1/sqrt(fan_in)); nothing here is trained, so
there are no biases: every caller would hold them at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .matcore import narrow_matmul, relu, sigmoid


def dense(rng: np.random.Generator, n_out: int, n_in: int) -> np.ndarray:
    """An (n_out, n_in) weight matrix drawn from N(0, 1/n_in)."""
    return rng.normal(scale=1.0 / np.sqrt(n_in), size=(n_out, n_in))


@dataclass(eq=False)
class MlpWeights:
    """Two linear layers with a ReLU in between: w2 relu(w1 x)."""

    w1: np.ndarray
    w2: np.ndarray

    @classmethod
    def seeded(cls, rng: np.random.Generator, dim_in: int, hidden: int, dim_out: int) -> "MlpWeights":
        return cls(w1=dense(rng, hidden, dim_in), w2=dense(rng, dim_out, hidden))


def mlp2(x: np.ndarray, w: MlpWeights) -> np.ndarray:
    """Apply the MLP column-wise; ``x`` is (dim_in,) or (dim_in, n)."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if w.w1.shape[1] != x.shape[0]:
        raise ShapeError(f"mlp2: weight {w.w1.shape} vs input {x.shape}")
    out = narrow_matmul(w.w2, relu(narrow_matmul(w.w1, x)))
    return out[:, 0] if squeeze else out


@dataclass(eq=False)
class GruWeights:
    """Gate (reset/update) and candidate weights for one GRU cell.

    Input size n, state size d: w_* are (d, n), u_* are (d, d).
    """

    w_r: np.ndarray
    u_r: np.ndarray
    w_z: np.ndarray
    u_z: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray

    @classmethod
    def seeded(cls, rng: np.random.Generator, state: int, inp: int) -> "GruWeights":
        return cls(
            w_r=dense(rng, state, inp), u_r=dense(rng, state, state),
            w_z=dense(rng, state, inp), u_z=dense(rng, state, state),
            w_h=dense(rng, state, inp), u_h=dense(rng, state, state),
        )


def gru_cell(z: np.ndarray, h: np.ndarray, w: GruWeights) -> np.ndarray:
    """One GRU step on column-stacked inputs ``z`` with states ``h``."""
    z = np.asarray(z, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    r = sigmoid(narrow_matmul(w.w_r, z) + narrow_matmul(w.u_r, h))
    u = sigmoid(narrow_matmul(w.w_z, z) + narrow_matmul(w.u_z, h))
    cand = np.tanh(narrow_matmul(w.w_h, z) + narrow_matmul(w.u_h, r * h))
    return (1.0 - u) * h + u * cand
