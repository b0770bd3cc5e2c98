"""Bit-exact NPY (v1.0 subset) reading without NumPy, and ``poolkit inspect``.

``poolkit attnmap`` and ``poolkit inspect`` read through this module alone: it holds no run
configuration and no method table, and imports neither NumPy nor ``dataclasses``."""

import ast
import math
import sys
from array import array
from collections import namedtuple
from pathlib import Path

from .errors import FileFormatError

NpyHeader = namedtuple("NpyHeader", "dtype fortran_order shape")


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
    """The payload of a file ``tensor_io.read_npy`` accepts, row-major in a native 'd' or
    'f' array.

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


def cmd_inspect(args) -> None:
    _, header = read_values(args.input)
    print(f"dtype={header.dtype} fortran_order={header.fortran_order} "
          f"shape={header.shape}")
