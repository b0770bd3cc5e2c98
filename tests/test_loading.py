"""What ``import poolkit`` and one ``poolkit pool`` request execute.

Submodules are registered as lazily executed modules and run on first use.
The checks that count executed modules run in a fresh interpreter, since
this test session has executed them all."""

import json
import subprocess
import sys

import numpy as np

import poolkit
from poolkit import simple_poolers

SUBMODULES = ["attnmap", "cluster_poolers", "errors", "framework", "gradcheck", "matcore",
              "meanfam", "nncells", "reweight_poolers", "simple_poolers", "simpool",
              "tensor_io", "transformer_poolers"]
PUBLIC = [
    "AttentionMatrix", "AttnGrid", "AttnRule", "BBox", "CbamWeights", "FeatureMap", "GradReport",
    "HowConfig", "InitRule", "MapRule", "NystromMap", "PoolRule", "PooledSet", "PoolingSpec",
    "RunConfig", "SeWeights", "SimPoolParams", "SinkhornParams", "SlotWeights",
    "UpdateRule", "VitWeights", "cbam_pool", "central_diff", "gap", "gem", "how",
    "kmeans_distortion", "kmeans_pool", "largest_component_bbox", "load_config",
    "load_feature_map", "lse", "lse_pool", "mass_threshold", "max_pool", "otk_pool",
    "pairwise_similarity", "read_npy", "reshape_attention", "run_pooling", "se_pool",
    "simpool_backward", "simpool_forward", "simpool_gradcheck", "sinkhorn", "slot_pool",
    "vit_cls_pool", "weighted_generalized_mean", "write_npy", "write_pgm",
]
# in a fresh interpreter: print the executed and the registered poolkit submodules
REPORT = """
import json, sys, types
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "executed": sorted(name[8:] for name, m in sys.modules.items()
                       if name.startswith("poolkit.") and type(m) is types.ModuleType),
    "registered": sorted(name[8:] for name in sys.modules if name.startswith("poolkit.")),
}))
"""


def _fresh(code: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code + REPORT], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_executes_no_submodule_and_no_numpy():
    assert _fresh("import poolkit") == {"numpy": False, "executed": [], "registered": SUBMODULES}


def test_gap_request_executes_no_other_pooler(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.random.default_rng(0).random((8, 3, 4)))
    out = _fresh(f"from poolkit import cli; cli.main(['pool', '--input', {str(path)!r}, "
                 f"'--method', 'gap'])")
    assert out["executed"] == ["cli", "errors", "framework", "matcore", "meanfam", "nncells",
                               "simple_poolers", "tensor_io"]


def test_public_names_resolve_on_their_module():
    assert poolkit.__all__ == sorted(SUBMODULES + PUBLIC)
    for name in PUBLIC:
        assert getattr(poolkit, name) is not None
    for name in SUBMODULES:
        assert getattr(poolkit, name) is sys.modules[f"poolkit.{name}"]


def test_public_names_are_read_at_each_access(monkeypatch):
    # a patched module attribute is what the package serves, as tracers need
    monkeypatch.setattr(simple_poolers, "gap", len)
    assert poolkit.gap is len


def test_module_entry_point_prints_no_warning(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.zeros((2, 3)))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "poolkit.cli", "inspect",
                           "--input", str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
