"""Frozen outputs at the two benchmark shapes, ViT-S 384x14x14 and R50 2048x7x7.

``golden_bench_shapes.npz`` holds the pooled vectors and attention of the
poolers whose d x d products dominate at these shapes: vit and cait (6 heads
at ViT-S, 8 at R50), simpool and how (default and with a supplied centering
and projection), slot attention (full and simplified, k = 4, the stream
workload's k), plus the three ``simpool_backward`` gradients for one fixed
cotangent, and Nystrom-mapped transport (``otk_pool`` with psi) at k = 4 and
32 on inputs drawn as the transport workload draws them.  A d x d gradient at
d = 2048 is 32 MB, so each gradient is frozen as every (n // 8)-th row and
column.  Regenerate the file (only when a change
of output is intended) with ``PYTHONPATH=src python tests/test_golden_bench.py``,
or just some arrays with ``--only KEY [KEY ...]`` (see ``test_golden.regenerate``).
"""

from pathlib import Path

import numpy as np

from poolkit.cli import run_method
from poolkit.cluster_poolers import NystromMap, SinkhornParams, SlotWeights, otk_pool, slot_pool
from poolkit.framework import FeatureMap
from poolkit.simple_poolers import HowConfig, how
from poolkit.simpool import SimPoolParams, simpool_backward, simpool_forward
from poolkit.tensor_io import config_from_dict

from test_golden import assert_unchanged, regenerate

GOLDEN = Path(__file__).with_name("golden_bench_shapes.npz")
SHAPES = ((384, 14, 14, 6), (2048, 7, 7, 8))  # (d, width, height, heads)
SEED, ITERS, SLOTS = 0, 3, 4
ANCHORS = (4, 32)  # otk_pool's k: the transport workload's least and most


def _feature_map(d, width, height):
    rng = np.random.default_rng([2000, d])
    return FeatureMap(rng.uniform(0.1, 3.0, size=(d, width * height)), width, height)


def _row_and_column_samples(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = g.shape
    return g[:: max(1, rows // 8)], g[:, :: max(1, cols // 8)]


def _otk_inputs(d: int, width: int, height: int, k: int):
    """Clustered nonnegative features, k of their columns as anchors, epsilon = 0.05 spread and
    sigma = sqrt(spread), drawn in the order the transport workload draws them."""
    rng = np.random.default_rng([2002, d, k])
    p = width * height
    centers = rng.normal(scale=3.0, size=(d, 4))
    assign = rng.integers(4, size=p)
    x = centers[:, assign] + 0.3 * rng.standard_normal((d, p))
    x = x - x.min()
    anchors = x[:, rng.choice(p, size=k, replace=False)]
    spread = float(np.var(x, axis=1).sum())
    return FeatureMap(x, width, height), anchors, 0.05 * spread, float(np.sqrt(spread))


def compute_outputs() -> dict:
    out = {}
    for d, width, height, heads in SHAPES:
        fm = _feature_map(d, width, height)
        tag = f"{d}x{width}x{height}"
        for method in ("vit", "cait", "simpool", "how"):
            raw = {"method": method, "seed": SEED, "iters": ITERS, "heads": heads}
            pooled = run_method(config_from_dict(raw), fm)
            out[f"{tag}/{method}/u"] = pooled.u
            out[f"{tag}/{method}/a"] = pooled.attention.a
        slot_weights = SlotWeights.seeded(d, seed=SEED)
        for mode in ("full", "simple"):
            pooled = slot_pool(fm, SLOTS, ITERS, slot_weights, seed=SEED,
                               simplified=mode == "simple")
            out[f"{tag}/slot_{mode}/u"] = pooled.u
            out[f"{tag}/slot_{mode}/a"] = pooled.attention.a
        rng = np.random.default_rng([2001, d])
        supplied = HowConfig(centering=rng.normal(size=d), projection=rng.normal(size=(d, d)))
        out[f"{tag}/how_projected/u"] = how(fm, supplied)
        _, _, cache = simpool_forward(fm, SimPoolParams.seeded(d, seed=SEED))
        grads = simpool_backward(cache, rng.normal(size=d))
        for name, g in zip(("d_wq", "d_wk", "d_x"), grads):
            rows, cols = _row_and_column_samples(np.asarray(g))
            out[f"{tag}/simpool_backward/{name}/rows"] = rows
            out[f"{tag}/simpool_backward/{name}/cols"] = cols
        for k in ANCHORS:
            fm_k, anchors, eps, sigma = _otk_inputs(d, width, height, k)
            pooled = otk_pool(fm_k, anchors, eps, psi=NystromMap(anchors, sigma),
                              params=SinkhornParams(epsilon=eps, tol=1e-8))
            out[f"{tag}/otk_nystrom_k{k}/u"] = pooled.u
            out[f"{tag}/otk_nystrom_k{k}/a"] = pooled.attention.a
    return out


def test_bench_shape_outputs_unchanged():
    assert_unchanged(compute_outputs(), GOLDEN)


if __name__ == "__main__":
    regenerate(compute_outputs, GOLDEN)
