"""Frozen outputs at the two benchmark shapes, ViT-S 384x14x14 and R50 2048x7x7.

``golden_bench_shapes.npz`` holds the pooled vectors and attention of the
single-pass poolers whose d x d products dominate at these shapes: vit and
cait (6 heads at ViT-S, 8 at R50), simpool and how (default and with a
supplied centering and projection), plus the three ``simpool_backward``
gradients for one fixed cotangent.  A d x d gradient at d = 2048 is 32 MB,
so each gradient is frozen as every (n // 8)-th row and column.  Regenerate
the file (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden_bench.py``.
"""

from pathlib import Path

import numpy as np

from poolkit.cli import run_method
from poolkit.framework import FeatureMap
from poolkit.simple_poolers import HowConfig, how
from poolkit.simpool import SimPoolParams, simpool_backward, simpool_forward
from poolkit.tensor_io import config_from_dict

from test_golden import assert_unchanged

GOLDEN = Path(__file__).with_name("golden_bench_shapes.npz")
SHAPES = ((384, 14, 14, 6), (2048, 7, 7, 8))  # (d, width, height, heads)
SEED, ITERS = 0, 3


def _feature_map(d, width, height):
    rng = np.random.default_rng([2000, d])
    return FeatureMap(rng.uniform(0.1, 3.0, size=(d, width * height)), width, height)


def _row_and_column_samples(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = g.shape
    return g[:: max(1, rows // 8)], g[:, :: max(1, cols // 8)]


def compute_outputs() -> dict:
    out = {}
    for d, width, height, heads in SHAPES:
        fm = _feature_map(d, width, height)
        tag = f"{d}x{width}x{height}"
        for method in ("vit", "cait", "simpool", "how"):
            raw = {"method": method, "seed": SEED, "iters": ITERS, "heads": heads}
            pooled = run_method(config_from_dict(raw), fm)
            out[f"{tag}/{method}/u"] = pooled.u
            if pooled.attention is not None:
                out[f"{tag}/{method}/a"] = pooled.attention.a
        rng = np.random.default_rng([2001, d])
        supplied = HowConfig(centering=rng.normal(size=d), projection=rng.normal(size=(d, d)))
        out[f"{tag}/how_projected/u"] = how(fm, supplied)
        _, _, cache = simpool_forward(fm, SimPoolParams.seeded(d, seed=SEED))
        grads = simpool_backward(cache, rng.normal(size=d))
        for name, g in zip(("d_wq", "d_wk", "d_x"), grads):
            rows, cols = _row_and_column_samples(g)
            out[f"{tag}/simpool_backward/{name}/rows"] = rows
            out[f"{tag}/simpool_backward/{name}/cols"] = cols
    return out


def test_bench_shape_outputs_unchanged():
    assert_unchanged(compute_outputs(), GOLDEN)


if __name__ == "__main__":
    np.savez(GOLDEN, **compute_outputs())
    print(f"wrote {GOLDEN}")
