"""Tiny fixed-weight, bias-free neural cells (a 2-layer MLP, a GRU cell) and ``draw``, which
makes every seeded weight set: one ``default_rng(seed)`` per seed fills the declared (shape,
fan_in) arrays in order, n entries from ``bytes(ceil(n/8))``: entry i (C order) is +1/sqrt(fan_in)
where bit i is set (most significant first), else -1/sqrt(fan_in), a random sign of variance
1/fan_in (Achlioptas 2003).  CBAM declares its 7x7 kernel after its MLP.  ``draw`` keeps each
matrix as a ``SignMatrix`` over its bytes, which ``matcore.weigh`` multiplies from where that
pays, and ``expand``s the rest.  Nothing here is trained: no biases."""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .matcore import relu, sigmoid, weigh

BYTE_SIGNS = 2.0 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) - 1.0


def draw_bytes(seed: int, *decl: tuple) -> list[np.ndarray]:
    """Each declared (shape, fan_in) array's ceil(n/8) sign bytes, in order, from one generator."""
    rng = np.random.default_rng(seed)
    return [np.frombuffer(rng.bytes(-(-int(np.prod(shape)) // 8)), dtype=np.uint8)
            for shape, _ in decl]


def expand(raw: np.ndarray, shape: tuple, fan_in: int) -> np.ndarray:
    """The +-1/sqrt(fan_in) array of ``raw``'s bits."""
    return np.take(BYTE_SIGNS / np.sqrt(fan_in), raw, axis=0).ravel()[:int(np.prod(shape))].reshape(shape)


def draw(seed: int, *decl: tuple) -> list:
    """One array per declared (shape, fan_in), in order, from one generator: each matrix a
    ``SignMatrix``, each vector or kernel expanded."""
    return [SignMatrix(raw, *d) if len(d[0]) == 2 else expand(raw, *d)
            for raw, d in zip(draw_bytes(seed, *decl), decl)]


class SignMatrix:
    """``expand(raw, shape, fan_in)`` held as its bytes, also one byte row per row (``rows``: rows of
    the flat draw start on a byte only where 8 | c).  ``np.asarray`` expands it once, keeping it as
    ``dense``, read-only.  A thread's byte products reuse its ``scratch``: fresh ones fault."""

    scratch = threading.local()

    def __init__(self, raw: np.ndarray, shape: tuple, fan_in: int):
        r, c = self.shape = tuple(shape)
        self.raw, self.fan_in, self.dense = raw, fan_in, None
        self.rows = raw.reshape(r, -1) if c % 8 == 0 else np.packbits(
            np.unpackbits(raw)[:r * c].reshape(r, c), axis=1)

    def expanded(self) -> np.ndarray:
        return expand(self.raw, self.shape, self.fan_in)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if self.dense is None:
            self.dense = self.expanded()
            self.dense.flags.writeable = False
        return np.array(self.dense, dtype=dtype, copy=copy)

    def _weigh_bytes(self, z: np.ndarray, heads: int, transpose: bool) -> np.ndarray:
        """``matcore.weigh``'s W z or W^T z.  Row i of W z sums T[g, rows[i, g]] over groups g, T[g, b]
        byte b's signed sum of z[8g:8g+8]; W^T z bins z by (column, group, byte), times the byte signs."""
        (r, g), c = self.rows.shape, self.shape[1]
        n, rest = divmod(z.shape[1], 1 if transpose else heads)  # columns per head
        if rest or len(z) != (r if transpose else c):
            raise ValueError(f"{self.shape} sign matrix meets {z.shape} in {heads} heads")
        buf = getattr(self.scratch, "buf", np.empty((2, 0)))
        if buf.shape[1] < n * r * g:
            buf = self.scratch.buf = np.empty((2, n * r * g))
        idx = buf[0, :n * r * g].view(np.intp).reshape(heads, n, -1, g)
        vals = buf[1, :n * r * g].reshape(idx.shape)
        offsets = 256 * np.arange(heads * n * g).reshape(heads, n, 1, g)  # of each (column, group)
        np.add(self.rows.reshape(heads, 1, -1, g), offsets, out=idx)
        table = BYTE_SIGNS / np.sqrt(self.fan_in)
        if transpose:
            np.copyto(vals, z.reshape(heads, -1, n).transpose(0, 2, 1)[..., None])
            bins = np.bincount(idx.ravel(), vals.ravel(), heads * n * g * 256).reshape(-1, g, 256)
            return (bins @ table).reshape(heads * n, -1)[:, :c].T
        padded = np.concatenate((z.T, np.zeros((z.shape[1], 8 * g - c))), axis=1)  # np.pad: 0.2 ms a call
        np.take(padded.reshape(-1, g, 8) @ table.T, idx, out=vals, mode="clip")  # "raise" copies out
        return vals.sum(axis=-1).transpose(0, 2, 1).reshape(r, n)


@dataclass(eq=False)
class MlpWeights:
    """Two linear layers with a ReLU in between: w2 relu(w1 x)."""

    w1: np.ndarray
    w2: np.ndarray


def mlp_decl(dim_in: int, hidden: int, dim_out: int) -> tuple:
    """``MlpWeights``' w1 and w2."""
    return ((hidden, dim_in), dim_in), ((dim_out, hidden), hidden)


def mlp2(x: np.ndarray, w: MlpWeights) -> np.ndarray:
    """Apply the MLP to each column of ``x`` (dim_in, n)."""
    return weigh(w.w2, relu(weigh(w.w1, np.asarray(x, dtype=np.float64), "mlp2")), "mlp2")


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
    r = sigmoid(weigh(w.w_r, z, "gru_cell") + weigh(w.u_r, h, "gru_cell"))
    u = sigmoid(weigh(w.w_z, z, "gru_cell") + weigh(w.u_z, h, "gru_cell"))
    cand = np.tanh(weigh(w.w_h, z, "gru_cell") + weigh(w.u_h, r * h, "gru_cell"))
    return (1.0 - u) * h + u * cand
