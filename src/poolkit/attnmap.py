"""Attention vectors as spatial maps: thresholding by cumulative mass,
connected-component bounding boxes, and PGM image output."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, NumericError, ShapeError
from .matcore import as_matrix


@dataclass(eq=False)
class AttnGrid:
    """Finite, nonnegative attention values on an H x W grid."""

    values: np.ndarray  # (H, W)
    width: int
    height: int

    def __post_init__(self):
        self.values = v = as_matrix(self.values, "AttnGrid values")
        if v.shape != (self.height, self.width):
            raise ShapeError(f"AttnGrid: values {v.shape} vs grid "
                             f"{self.height}x{self.width}")
        if np.any(v < 0):
            raise ContractError("AttnGrid: negative values")

    def flatten(self) -> np.ndarray:
        return self.values.reshape(-1)


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


def reshape_attention(a: np.ndarray, width: int, height: int) -> AttnGrid:
    """Lay out a flat attention vector on the grid: cell (x, y) = a[y*W + x]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    if width < 1 or height < 1 or a.size != width * height:
        raise ShapeError(f"reshape_attention: {a.size} values for "
                         f"{width}x{height} grid")
    return AttnGrid(values=a.reshape(height, width), width=width, height=height)


def mass_threshold(grid: AttnGrid, fraction: float) -> np.ndarray:
    """Binary mask of the fewest highest cells holding >= fraction of the mass.

    Ties at the cut value go to the lower flat index.
    """
    if not (0.0 < fraction <= 1.0):
        raise ContractError(f"mass_threshold: fraction must be in (0, 1], got {fraction}")
    flat = grid.flatten()
    with np.errstate(over="ignore"):  # a total beyond the float range is rejected below
        total = flat.sum()
    if not 0 < total < np.inf:
        raise NumericError(f"mass_threshold: total mass {total:g} is not in (0, inf)")
    order = np.argsort(-flat, kind="stable")  # descending, lower index first on ties
    target = fraction * total
    cum = np.cumsum(flat[order])
    # number of cells needed; tolerate one ulp of summation-order noise
    n_keep = int(np.searchsorted(cum, target - 1e-12 * total) + 1)
    n_keep = min(n_keep, flat.size)
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:n_keep]] = True
    return mask.reshape(grid.height, grid.width)


def largest_component_bbox(mask: np.ndarray) -> BBox:
    """Tight box of the largest 4-connected component of a binary mask.

    Size ties go to the component whose top-left (lowest flat index)
    cell comes first.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"largest_component_bbox: expected 2-d mask, got {mask.shape}")
    if not mask.any():
        raise ContractError("largest_component_bbox: empty mask")
    h, w = mask.shape
    seen = np.zeros_like(mask)
    best_cells: list[tuple[int, int]] = []
    best_key = None
    for y0 in range(h):
        for x0 in range(w):
            if not mask[y0, x0] or seen[y0, x0]:
                continue
            stack = [(y0, x0)]
            seen[y0, x0] = True
            cells = []
            while stack:
                y, x = stack.pop()
                cells.append((y, x))
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
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

    Grids are min-max scaled to 0..255 with round-half-up; a constant
    grid writes all zeros.  Boolean masks write 0/255.
    """
    if isinstance(data, AttnGrid):
        arr = data.values
    else:
        arr = np.asarray(data)
    if arr.ndim != 2:
        raise ShapeError(f"write_pgm: expected 2-d data, got shape {arr.shape}")
    if arr.dtype == bool:
        pixels = np.where(arr, 255, 0).astype(np.uint8)
    else:
        arr = arr.astype(np.float64)
        lo, hi = arr.min(), arr.max()
        if hi == lo:
            pixels = np.zeros(arr.shape, dtype=np.uint8)
        else:
            scaled = (arr - lo) / (hi - lo) * 255.0
            pixels = np.floor(scaled + 0.5).astype(np.uint8)
    h, w = pixels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + pixels.tobytes())
    except OSError as exc:
        raise OSError(f"write_pgm: cannot write {path}: {exc}") from exc
