"""Bit-exact NPY (v1.0 subset) I/O and the JSON run configuration."""

from __future__ import annotations

import ast
import math
import numbers
import sys
from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import ConfigError, FileFormatError

if TYPE_CHECKING:  # imported where they are read: `inspect` and `attnmap` import neither
    import numpy as np

    from .framework import FeatureMap

METHOD_NAMES = (
    "gap",
    "max",
    "gem",
    "lse",
    "how",
    "sinkhorn-otk",
    "kmeans",
    "slot",
    "se",
    "cbam",
    "vit",
    "cait",
    "simpool",
)

WEIGHT_ROLES = {  # method -> the `weights` roles it reads; other methods read none
    "how": ("centering", "projection"),  # HowConfig's fields
    "sinkhorn-otk": ("anchors",),
}


@dataclass
class NpyHeader:
    dtype: str
    fortran_order: bool
    shape: tuple[int, ...]


def _read_exact(path, fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FileFormatError(f"{path}: EOF reading {what} ({len(data)} of {n} bytes)")
    return data


def _read_header(path, fh) -> NpyHeader:
    """Parse an NPY v1.0 header as ``numpy.lib.format`` does, then apply poolkit's policy."""
    magic = _read_exact(path, fh, 8, "magic string")
    if magic[:6] != b"\x93NUMPY":
        raise FileFormatError(f"{path}: bad magic string {magic[:6]!r}")
    if tuple(magic[6:]) != (1, 0):
        raise FileFormatError(f"{path}: unsupported version {tuple(magic[6:])}")
    size = int.from_bytes(_read_exact(path, fh, 2, "header length"), "little")
    if size > 10000:  # numpy.lib.format's limit for untrusted headers
        raise FileFormatError(f"{path}: header length {size} is over 10000 bytes")
    text = _read_exact(path, fh, size, "header").decode("latin1")
    try:
        meta = ast.literal_eval(text)
    except Exception as exc:  # SyntaxError, ValueError; deep nesting raises others
        # the first line only; MemoryError has none
        reason = str(exc).partition("\n")[0] or type(exc).__name__
        raise FileFormatError(f"{path}: cannot parse header: {reason}") from exc
    if not isinstance(meta, dict) or meta.keys() != {"descr", "fortran_order", "shape"}:
        raise FileFormatError(f"{path}: header is not a dict of descr, fortran_order and shape")
    dtype, fortran_order, shape = meta["descr"], meta["fortran_order"], meta["shape"]
    if type(shape) is not tuple or not all(type(s) is int for s in shape):  # bool is not a size
        raise FileFormatError(f"{path}: shape {shape!r} is not a tuple of integers")
    if type(fortran_order) is not bool:
        raise FileFormatError(f"{path}: fortran_order {fortran_order!r} is not a bool")
    if fortran_order:
        raise FileFormatError(f"{path}: fortran_order arrays are not supported")
    if dtype not in ("<f8", "<f4"):
        raise FileFormatError(f"{path}: unsupported dtype {dtype!r}")
    if not (1 <= len(shape) <= 3):
        raise FileFormatError(f"{path}: shape {shape} has unsupported rank")
    if min(shape) < 0:
        raise FileFormatError(f"{path}: shape {shape} has a negative dimension")
    return NpyHeader(dtype=dtype, fortran_order=fortran_order, shape=shape)


def read_values(path) -> tuple[array, NpyHeader]:
    """The payload of a file ``read_npy`` accepts, row-major in a native 'd' or
    'f' array, read without NumPy.

    The payload is read 1 MiB at a time and at most one byte past the size
    the header claims, so memory follows the input, not the claim, and pipes
    work as well as files.
    """
    path = Path(path)
    with path.open("rb") as fh:
        header = _read_header(path, fh)
        values = array("d" if header.dtype == "<f8" else "f")
        nbytes = math.prod(header.shape) * values.itemsize
        payload, want = bytearray(), nbytes + 1
        while want > 0 and (chunk := fh.read(min(want, 1 << 20))):
            payload += chunk
            want -= len(chunk)
    if len(payload) < nbytes:
        raise FileFormatError(f"{path}: truncated payload ({len(payload)} of {nbytes} bytes)")
    if len(payload) > nbytes:
        raise FileFormatError(f"{path}: trailing bytes after payload")
    if math.prod(filter(None, header.shape)) * values.itemsize > sys.maxsize:  # NumPy's limit
        raise FileFormatError(f"{path}: shape {header.shape} is too big for an array")
    values.frombytes(payload)
    if sys.byteorder == "big":
        values.byteswap()
    return values, header


def read_npy(path) -> tuple[np.ndarray, NpyHeader]:
    """A file ``read_values`` accepts as a float64 array; '<f4' payloads are widened."""
    import numpy as np

    values, header = read_values(path)
    return np.frombuffer(values, dtype=values.typecode).reshape(header.shape).astype(np.float64), header


def write_npy(arr, path) -> None:
    """Write float64 C-order NPY v1.0 with a 64-byte-aligned header."""
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    try:
        with Path(path).open("wb") as fh:
            np.lib.format.write_array(fh, arr, version=(1, 0), allow_pickle=False)
    except OSError as exc:
        raise OSError(f"write_npy: cannot write {path}: {exc}") from exc


def load_feature_map(path, width: Optional[int] = None, height: Optional[int] = None) -> FeatureMap:
    """Load features: 2-d (d, p) arrays directly, 3-d (d, H, W) flattened."""
    from .framework import FeatureMap
    arr, _ = read_npy(path)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim == 3:
        d, h, w = arr.shape
        if width is not None and width != w or height is not None and height != h:
            raise ConfigError(f"{path}: 3-d shape {arr.shape} conflicts with "
                              f"requested grid {width}x{height}")
        return FeatureMap(arr.reshape(d, h * w), width=w, height=h)
    return FeatureMap.from_array(arr, width=width, height=height)


# --- run configuration -----------------------------------------------------

TYPED_FIELDS = (  # (fields, type, description); a field whose default is None may be None
    (("k", "iters", "heads", "seed", "width", "height"), numbers.Integral, "an integer"),
    (("gamma", "epsilon", "r"), numbers.Real, "a finite number"),
)


def _check_field_types(cfg) -> None:
    for names, kind, what in TYPED_FIELDS:
        for name in names:
            val = getattr(cfg, name)
            if val is None and getattr(RunConfig, name) is None:
                continue
            if (not isinstance(val, kind) or isinstance(val, bool)
                    or kind is numbers.Real and not math.isfinite(val)):
                raise ConfigError(f"{name} must be {what}, got {val!r}")
    if not isinstance(cfg.weights, dict) or not all(
        isinstance(s, str) for item in cfg.weights.items() for s in item
    ):
        raise ConfigError(f"weights must map role names to NPY paths, got {cfg.weights!r}")


@dataclass
class RunConfig:
    method: str = "simpool"
    family: str = "conv"           # conv | transformer; selects the gamma default
    gamma: Optional[float] = None  # resolved against family when absent
    k: int = 1
    iters: int = 3
    heads: int = 1
    epsilon: float = 0.1
    r: float = 1.0
    seed: int = 0
    weights: dict = field(default_factory=dict)  # role -> NPY path
    width: Optional[int] = None
    height: Optional[int] = None

    def __post_init__(self):
        _check_field_types(self)
        if self.method not in METHOD_NAMES:
            raise ConfigError(f"unknown method {self.method!r}; "
                              f"choose from {', '.join(METHOD_NAMES)}")
        roles = WEIGHT_ROLES.get(self.method, ())
        unread = sorted(set(self.weights) - set(roles))
        if unread:
            raise ConfigError(f"method {self.method!r} does not read weights {unread} "
                              f"(it reads {', '.join(roles) or 'none'})")
        if self.family not in ("conv", "transformer"):
            raise ConfigError(f"family must be 'conv' or 'transformer', got {self.family!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if abs(self.r) < 1e-9:
            raise ConfigError(f"|r| must be >= 1e-9, got {self.r}")
        if self.k < 1 or self.iters < 1 or self.heads < 1:
            raise ConfigError("k, iters and heads must all be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, val in (("width", self.width), ("height", self.height)):
            if val is not None and val < 1:
                raise ConfigError(f"{name} must be >= 1, got {val}")

    @property
    def resolved_gamma(self) -> float:
        from .meanfam import GAMMA_CONV_DEFAULT, GAMMA_TRANSFORMER_DEFAULT
        if self.gamma is not None:
            return self.gamma
        return GAMMA_TRANSFORMER_DEFAULT if self.family == "transformer" else GAMMA_CONV_DEFAULT


def load_config(path) -> RunConfig:
    """Strict JSON parse: unknown keys are rejected, defaults applied."""
    import json  # here, so a run without a config file loads no JSON parser

    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"load_config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw, origin=str(path))


def config_from_dict(raw: dict, origin: str = "config") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{origin}: top level must be an object")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"{origin}: unknown keys {sorted(unknown)}")
    return RunConfig(**raw)
