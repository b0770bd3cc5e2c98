"""Frozen outputs: every method on fixed inputs must keep its results.

``golden_outputs.npz`` holds the pooled vectors and attention of all
CLI methods, vit and cait at 2 and 4 heads, plus the library-only slot,
k-means and simplified CBAM modes, on two small feature maps.  Regenerate it (only when a change of output is intended)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import numpy as np

from poolkit.cli import run_method
from poolkit.cluster_poolers import SlotWeights, kmeans_pool, slot_pool
from poolkit.framework import FeatureMap
from poolkit.reweight_poolers import CbamWeights, cbam_pool
from poolkit.tensor_io import METHOD_NAMES, config_from_dict

GOLDEN = Path(__file__).with_name("golden_outputs.npz")
SHAPES = ((8, 4, 3, 0), (16, 8, 8, 1))  # (d, width, height, seed)
K, ITERS = 3, 3


def _feature_map(d, width, height, seed):
    rng = np.random.default_rng(1000 + seed)
    return FeatureMap(rng.uniform(0.1, 3.0, size=(d, width * height)), width, height)


def compute_outputs() -> dict:
    out = {}
    for d, width, height, seed in SHAPES:
        fm = _feature_map(d, width, height, seed)
        runs = {}
        for method in METHOD_NAMES:
            raw = {"method": method, "seed": seed, "k": K, "iters": ITERS}
            if method == "sinkhorn-otk":
                # the epsilon rule of `poolkit tournament`
                raw["epsilon"] = max(0.1, 0.05 * float(np.var(fm.x, axis=1).sum()))
            runs[method] = run_method(config_from_dict(raw), fm)
        for method in ("vit", "cait"):
            for heads in (2, 4):
                raw = {"method": method, "seed": seed, "iters": ITERS, "heads": heads}
                runs[f"{method}_heads{heads}"] = run_method(config_from_dict(raw), fm)
        weights = SlotWeights.seeded(d, seed=seed)
        runs["slot_full"] = slot_pool(fm, K, ITERS, weights, seed=seed)
        for simplified in (False, True):
            runs[f"slot_noln_{'simple' if simplified else 'full'}"] = slot_pool(
                fm, K, ITERS, weights, seed=seed, simplified=simplified,
                use_layernorm=False)
        runs["kmeans_pool"] = kmeans_pool(fm, K, ITERS, seed=seed)
        runs["cbam_simplified"] = cbam_pool(fm, CbamWeights.seeded(d, seed=seed),
                                            simplified=True)
        for name, pooled in runs.items():
            tag = f"{d}x{width}x{height}/{name}"
            out[f"{tag}/u"] = pooled.u
            if pooled.attention is not None:
                out[f"{tag}/a"] = pooled.attention.a
    return out


def assert_unchanged(current: dict, path: Path) -> None:
    """Every frozen array in ``path`` is in ``current``, within 1e-12."""
    with np.load(path) as golden:
        expected = {key: golden[key] for key in golden.files}
    assert sorted(current) == sorted(expected)
    moved = [key for key, want in expected.items()
             if current[key].shape != want.shape
             or np.max(np.abs(current[key] - want)) > 1e-12]
    assert not moved, f"outputs moved by more than 1e-12: {moved}"


def test_outputs_unchanged():
    assert_unchanged(compute_outputs(), GOLDEN)


if __name__ == "__main__":
    np.savez(GOLDEN, **compute_outputs())
    print(f"wrote {GOLDEN}")
