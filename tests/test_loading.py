"""What ``import poolkit`` and one CLI command execute, and what records are.

Submodules are registered as lazily executed modules and run on first use.
The checks that count executed modules run in a fresh interpreter, since
this test session has executed them all."""

import dataclasses
import json
import subprocess
import sys
import typing

import numpy as np
import pytest

import poolkit
from poolkit import simple_poolers, simpool
from poolkit.errors import PoolkitError
from poolkit.framework import FeatureMap, PoolingSpec
from poolkit.gradcheck import GradReport
from poolkit.simple_poolers import HowConfig
from poolkit.simpool import SimPoolParams
from poolkit.tensor_io import WEIGHT_ROLES

SUBMODULES = ["attnmap", "cluster_poolers", "errors", "framework", "gradcheck", "matcore",
              "meanfam", "nncells", "reweight_poolers", "simple_poolers", "simpool",
              "tensor_io", "transformer_poolers"]
PUBLIC = [
    "AttentionMatrix", "AttnGrid", "BBox", "CbamWeights", "FeatureMap", "GradReport",
    "HowConfig", "MapRule", "NystromMap", "PoolRule", "PooledSet", "PoolingSpec",
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


def _command(argv: list) -> tuple[list, bool]:
    """The poolkit submodules one CLI command executes, and whether it imports
    NumPy, in a fresh interpreter."""
    report = _fresh(f"from poolkit import cli; assert cli.main({argv!r}) == 0")
    return report["executed"], report["numpy"]


def test_import_statement_executes_and_from_import_binds():
    assert _fresh("from poolkit import framework")["executed"] == []
    assert "framework" in _fresh("import poolkit\nimport poolkit.framework")["executed"]


def test_gap_request_executes_no_other_pooler(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.random.default_rng(0).random((8, 3, 4)))
    assert _command(["pool", "--input", str(path), "--method", "gap"]) == ([
        "cli", "errors", "framework", "matcore", "meanfam", "simple_poolers", "tensor_io"], True)


def test_kmeans_request_executes_its_pooler_and_no_simple_pooler(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.random.default_rng(0).random((8, 3, 4)))
    assert _command(["pool", "--input", str(path), "--method", "kmeans", "--k", "2"]) == ([
        "cli", "cluster_poolers", "errors", "framework", "matcore", "meanfam", "nncells",
        "tensor_io"], True)


def test_simpool_request_executes_no_gradcheck(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.random.default_rng(0).random((8, 3, 4)))
    assert _command(["pool", "--input", str(path), "--method", "simpool"]) == ([
        "cli", "errors", "framework", "matcore", "meanfam", "nncells", "simpool", "tensor_io"], True)


def test_simpool_gradcheck_hints_resolve():
    hints = typing.get_type_hints(simpool.simpool_gradcheck)
    assert hints["return"] == tuple[GradReport, GradReport, GradReport]
    assert hints["fm"] is FeatureMap


def test_attnmap_and_inspect_execute_no_engine_module(tmp_path):
    # and neither imports NumPy
    path = tmp_path / "a.npy"
    np.save(path, np.random.default_rng(0).random(12))
    assert _command(["attnmap", "--attn", str(path), "--width", "4", "--height", "3", "--bbox",
                     "--pgm", str(tmp_path / "a.pgm")]) == (
        ["attnmap", "cli", "errors", "tensor_io"], False)
    assert _command(["inspect", "--input", str(path)]) == (["cli", "errors", "tensor_io"], False)


def test_records_are_plain_dataclasses_whose_replace_revalidates():
    records = [obj for name in SUBMODULES for obj in vars(getattr(poolkit, name)).values()
               if isinstance(obj, type) and obj.__module__ == f"poolkit.{name}"
               and dataclasses.is_dataclass(obj)]
    assert len(records) == 23  # SeWeights by inheritance from MlpWeights
    assert not [cls for cls in records if cls.__dataclass_params__.frozen]
    rng = np.random.default_rng(0)
    fm = FeatureMap.from_array(rng.random((4, 6)))
    params = SimPoolParams.seeded(4)
    for record, bad in ((PoolingSpec(), {"iters": 0}), (fm, {"width": 0}),
                        (params, {"gamma": 0.0}), (params, {"w_k": np.eye(3)})):
        with pytest.raises(PoolkitError):
            dataclasses.replace(record, **bad)
    assert dataclasses.replace(params, gamma=3.0).w_q is params.w_q


def test_how_weight_roles_are_how_config_fields():
    assert WEIGHT_ROLES["how"] == tuple(f.name for f in dataclasses.fields(HowConfig))


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
