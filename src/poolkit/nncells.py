"""Tiny fixed-weight, bias-free neural cells (a 2-layer MLP, a GRU cell) and
``draw``, which makes every seeded weight set: one ``default_rng(seed)`` per seed
fills the declared (shape, fan_in) arrays in order, n entries from ``bytes(ceil(n/8))``:
entry i (C order) is +1/sqrt(fan_in) where bit i is set (most significant first),
else -1/sqrt(fan_in), a random sign of variance 1/fan_in (Achlioptas 2003).  CBAM
declares its 7x7 kernel after its MLP.  ``draw`` is ``expand`` after ``draw_bytes``; one-shot
ViT/CaiT requests expand each matrix where it is read.  Nothing here is trained: no biases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .matcore import narrow_matmul, relu, sigmoid

BYTE_SIGNS = 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) - 1.0


def draw_bytes(seed: int, *decl: tuple) -> list[np.ndarray]:
    """Each declared (shape, fan_in) array's ceil(n/8) sign bytes, in order, from one generator."""
    rng = np.random.default_rng(seed)
    return [np.frombuffer(rng.bytes(-(-int(np.prod(shape)) // 8)), dtype=np.uint8)
            for shape, _ in decl]


def expand(raw: np.ndarray, shape: tuple, fan_in: int, out: np.ndarray | None = None) -> np.ndarray:
    """The +-1/sqrt(fan_in) array of ``raw``'s bits, a view of ``out`` (8 len(raw) floats) if given."""
    signs = np.take(BYTE_SIGNS / np.sqrt(fan_in), raw, axis=0, mode="clip",  # "raise" copies out
                    out=None if out is None else out[:8 * raw.size].reshape(-1, 8))
    return signs.ravel()[:int(np.prod(shape))].reshape(shape)


def draw(seed: int, *decl: tuple) -> list[np.ndarray]:
    """One array per declared (shape, fan_in), in order, from one generator."""
    return [expand(raw, *d) for raw, d in zip(draw_bytes(seed, *decl), decl)]


@dataclass(eq=False)
class MlpWeights:
    """Two linear layers with a ReLU in between: w2 relu(w1 x)."""

    w1: np.ndarray
    w2: np.ndarray


def mlp_decl(dim_in: int, hidden: int, dim_out: int) -> tuple:
    """``MlpWeights``' w1 and w2."""
    return ((hidden, dim_in), dim_in), ((dim_out, hidden), hidden)


def mlp2(x: np.ndarray, w: MlpWeights, read=np.asarray) -> np.ndarray:
    """Apply the MLP to each column of ``x`` (dim_in, n).  ``read`` gives each weight's
    array just before its product: w2 after the hidden layer, so both may share a buffer."""
    x = np.asarray(x, dtype=np.float64)
    try:
        hidden = relu(narrow_matmul(read(w.w1), x))
        return narrow_matmul(read(w.w2), hidden)
    except ValueError as exc:
        raise ShapeError(f"mlp2: {exc}") from exc


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


def gru_decl(state: int, inp: int) -> tuple:
    """``GruWeights``' six matrices in field order."""
    return (((state, inp), inp), ((state, state), state)) * 3


def gru_cell(z: np.ndarray, h: np.ndarray, w: GruWeights) -> np.ndarray:
    """One GRU step on column-stacked inputs ``z`` with states ``h``."""
    z = np.asarray(z, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    try:
        r = sigmoid(narrow_matmul(w.w_r, z) + narrow_matmul(w.u_r, h))
        u = sigmoid(narrow_matmul(w.w_z, z) + narrow_matmul(w.u_z, h))
        cand = np.tanh(narrow_matmul(w.w_h, z) + narrow_matmul(w.u_h, r * h))
    except ValueError as exc:
        raise ShapeError(f"gru_cell: {exc}") from exc
    return (1.0 - u) * h + u * cand
