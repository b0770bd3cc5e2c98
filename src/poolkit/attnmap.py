"""Attention vectors as spatial maps: thresholding by cumulative mass,
connected-component bounding boxes, and PGM image output.

Pure Python over row-major lists, so ``poolkit attnmap`` never imports
NumPy.  Inputs may be NumPy arrays (read through ``.tolist()``) or nested
sequences; grids and masks are lists of H rows of W entries."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from .errors import ContractError, NumericError, ShapeError


def _rows(data, name: str) -> list[list]:
    """A 2-d array or nested sequence as H lists of W entries; a flat one is a column."""
    rows = data.tolist() if hasattr(data, "tolist") else data
    rows = [list(r) if isinstance(r, (list, tuple)) else [r] for r in rows]
    if not (rows and rows[0] and all(len(r) == len(rows[0]) for r in rows)
            and not any(isinstance(c, (list, tuple)) for r in rows for c in r)):
        raise ShapeError(f"{name}: expected a nonempty 1-d or 2-d array")
    return rows


@dataclass(eq=False)
class AttnGrid:
    """Finite, nonnegative attention values on an H x W grid."""

    values: list  # H rows of W floats
    width: int
    height: int

    def __post_init__(self):
        self.values = v = [[float(c) for c in r] for r in _rows(self.values, "AttnGrid values")]
        if not all(math.isfinite(c) for r in v for c in r):
            raise NumericError("AttnGrid values: contains non-finite entries")
        if (len(v), len(v[0])) != (self.height, self.width):
            raise ShapeError(f"AttnGrid: values ({len(v)}, {len(v[0])}) vs grid "
                             f"{self.height}x{self.width}")
        if any(c < 0 for r in v for c in r):
            raise ContractError("AttnGrid: negative values")

    def flatten(self) -> list[float]:
        return [c for r in self.values for c in r]


@dataclass
class BBox:
    """Inclusive pixel bounding box."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if not (0 <= self.x_min <= self.x_max and 0 <= self.y_min <= self.y_max):
            raise ContractError(f"BBox: inverted or negative box {self}")


def reshape_attention(a, width: int, height: int) -> AttnGrid:
    """Lay out a flat attention vector on the grid: cell (x, y) = a[y*W + x]."""
    a = [c for r in _rows(a, "reshape_attention") for c in r]
    if width < 1 or height < 1 or len(a) != width * height:
        raise ShapeError(f"reshape_attention: {len(a)} values for "
                         f"{width}x{height} grid")
    return AttnGrid([a[y * width:(y + 1) * width] for y in range(height)],
                    width=width, height=height)


def mass_threshold(grid: AttnGrid, fraction: float) -> list[list[bool]]:
    """Binary mask of the fewest highest cells holding >= fraction of the mass.

    Ties at the cut value go to the lower flat index.
    """
    if not (0.0 < fraction <= 1.0):
        raise ContractError(f"mass_threshold: fraction must be in (0, 1], got {fraction}")
    flat = grid.flatten()
    order = sorted(range(len(flat)), key=flat.__getitem__, reverse=True)  # stable: ties keep index order
    cum = list(accumulate(flat[i] for i in order))
    total = cum[-1]  # a total beyond the float range is inf, rejected here
    if not 0 < total < math.inf:
        raise NumericError(f"mass_threshold: total mass {total:g} is not in (0, inf)")
    # number of cells needed; tolerate one ulp of summation-order noise
    n_keep = min(bisect_left(cum, fraction * total - 1e-12 * total) + 1, len(flat))
    keep, w = set(order[:n_keep]), grid.width
    return [[y * w + x in keep for x in range(w)] for y in range(grid.height)]


def largest_component_bbox(mask) -> BBox:
    """Tight box of the largest 4-connected component of a binary mask.

    Size ties go to the component whose top-left (lowest flat index)
    cell comes first.
    """
    mask = [[bool(c) for c in r] for r in _rows(mask, "largest_component_bbox")]
    if not any(map(any, mask)):
        raise ContractError("largest_component_bbox: empty mask")
    h, w = len(mask), len(mask[0])
    seen = [[False] * w for _ in range(h)]
    best_cells: list[tuple[int, int]] = []
    best_key = None
    for y0 in range(h):
        for x0 in range(w):
            if not mask[y0][x0] or seen[y0][x0]:
                continue
            stack = [(y0, x0)]
            seen[y0][x0] = True
            cells = []
            while stack:
                y, x = stack.pop()
                cells.append((y, x))
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny][nx] and not seen[ny][nx]:
                        seen[ny][nx] = True
                        stack.append((ny, nx))
            key = (-len(cells), y0 * w + x0)
            if best_key is None or key < best_key:
                best_key = key
                best_cells = cells
    ys = [c[0] for c in best_cells]
    xs = [c[1] for c in best_cells]
    return BBox(x_min=min(xs), y_min=min(ys), x_max=max(xs), y_max=max(ys))


def write_pgm(data, path) -> None:
    """Write a grid or mask as binary 8-bit PGM (P5).

    Grids, and other values that pass ``AttnGrid``'s checks, are min-max scaled to
    0..255 with round-half-up; a constant grid writes all zeros.  Boolean masks write 0/255.
    """
    rows = _rows(data.values if isinstance(data, AttnGrid) else data, "write_pgm")
    flat = [c for r in rows for c in r]
    if all(type(c) is bool for c in flat):
        pixels = [255 if c else 0 for c in flat]
    else:
        flat = AttnGrid(rows, width=len(rows[0]), height=len(rows)).flatten()  # finite, nonnegative
        lo, hi = min(flat), max(flat)
        # floor(s + 0.5) of the scaled value s in [0, 255], as int() of a nonnegative float
        pixels = [0] * len(flat) if hi == lo else [int((c - lo) / (hi - lo) * 255.0 + 0.5) for c in flat]
    header = f"P5\n{len(rows[0])} {len(rows)}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + bytes(pixels))
    except OSError as exc:
        raise OSError(f"write_pgm: cannot write {path}: {exc}") from exc
