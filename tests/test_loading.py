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
from poolkit.attnmap import AttnGrid, BBox
from poolkit.errors import ContractError, FileFormatError, NumericError, PoolkitError, ShapeError
from poolkit.framework import FeatureMap, PoolingSpec
from poolkit.gradcheck import GradReport
from poolkit.npy import NpyHeader, read_values
from poolkit.simple_poolers import HowConfig
from poolkit.simpool import SimPoolParams
from poolkit.tensor_io import METHODS

SUBMODULES = ["attnmap", "cluster_poolers", "errors", "framework", "gradcheck", "matcore",
              "meanfam", "nncells", "npy", "reweight_poolers", "simple_poolers", "simpool",
              "tensor_io", "tournament", "transformer_poolers"]
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
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
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
    assert _fresh("import poolkit") == {"numpy": False, "dataclasses": False, "inspect": False,
                                        "executed": [], "registered": SUBMODULES}


def _command(argv: list) -> tuple[list, bool]:
    """The poolkit submodules one CLI command executes, and whether it imports
    NumPy, in a fresh interpreter."""
    return _command_report(argv)[:2]


def _command_report(argv: list) -> tuple[list, bool, bool, bool]:
    """The executed submodules, and whether NumPy, ``dataclasses`` and ``inspect`` are
    imported, after one CLI command in a fresh interpreter."""
    report = _fresh(f"from poolkit import cli; assert cli.main({argv!r}) == 0")
    return report["executed"], report["numpy"], report["dataclasses"], report["inspect"]


def test_import_statement_executes_and_from_import_binds():
    assert _fresh("from poolkit import framework")["executed"] == []
    assert "framework" in _fresh("import poolkit\nimport poolkit.framework")["executed"]


def test_gap_request_executes_no_other_pooler(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.random.default_rng(0).random((8, 3, 4)))
    assert _command(["pool", "--input", str(path), "--method", "gap"]) == ([
        "cli", "errors", "framework", "matcore", "meanfam", "npy", "simple_poolers", "tensor_io"], True)


def test_kmeans_request_executes_its_pooler_and_no_simple_pooler(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.random.default_rng(0).random((8, 3, 4)))
    assert _command(["pool", "--input", str(path), "--method", "kmeans", "--k", "2"]) == ([
        "cli", "cluster_poolers", "errors", "framework", "matcore", "meanfam", "nncells", "npy",
        "tensor_io"], True)


def test_simpool_request_executes_no_gradcheck(tmp_path):
    path = tmp_path / "x.npy"
    np.save(path, np.random.default_rng(0).random((8, 3, 4)))
    assert _command(["pool", "--input", str(path), "--method", "simpool"]) == ([
        "cli", "errors", "framework", "matcore", "meanfam", "nncells", "npy", "simpool", "tensor_io"], True)


def test_simpool_gradcheck_hints_resolve():
    hints = typing.get_type_hints(simpool.simpool_gradcheck)
    assert hints["return"] == tuple[GradReport, GradReport, GradReport]
    assert hints["fm"] is FeatureMap


def test_attnmap_and_inspect_execute_no_engine_module(tmp_path):
    # and neither imports NumPy, dataclasses or inspect
    path = tmp_path / "a.npy"
    np.save(path, np.random.default_rng(0).random(12))
    assert _command_report(["attnmap", "--attn", str(path), "--width", "4", "--height", "3",
                            "--bbox", "--pgm", str(tmp_path / "a.pgm")]) == (
        ["attnmap", "cli", "errors", "npy"], False, False, False)
    assert _command_report(["inspect", "--input", str(path)]) == (
        ["cli", "errors", "npy"], False, False, False)


def test_records_are_plain_dataclasses_whose_replace_revalidates():
    records = [obj for name in SUBMODULES for obj in vars(getattr(poolkit, name)).values()
               if isinstance(obj, type) and obj.__module__ == f"poolkit.{name}"
               and dataclasses.is_dataclass(obj)]
    assert len(records) == 20  # SeWeights by inheritance; AttnGrid, BBox and NpyHeader are not
    assert not [cls for cls in records if cls.__dataclass_params__.frozen]
    rng = np.random.default_rng(0)
    fm = FeatureMap.from_array(rng.random((4, 6)))
    params = SimPoolParams.seeded(4)
    for record, bad in ((PoolingSpec(), {"iters": 0}), (fm, {"width": 0}),
                        (params, {"gamma": 0.0}), (params, {"w_k": np.eye(3)})):
        with pytest.raises(PoolkitError):
            dataclasses.replace(record, **bad)
    assert dataclasses.replace(params, gamma=3.0).w_q is params.w_q


# the records of `attnmap` and `inspect`, which import no dataclasses: a bad one raises the
# error class and message of the dataclass it replaced ({path}: the NPY file written)
PLAIN_RECORD_RAISES = {
    "grid_non_finite": (lambda path: AttnGrid([[1.0, float("nan")]], width=2, height=1),
                        NumericError, "AttnGrid values: contains non-finite entries"),
    "grid_shape": (lambda path: AttnGrid([[1.0, 2.0]], width=1, height=1), ShapeError,
                   "AttnGrid: values (1, 2) vs grid 1x1"),
    "grid_negative": (lambda path: AttnGrid([[1.0, -2.0]], width=2, height=1), ContractError,
                      "AttnGrid: negative values"),
    "bbox_inverted": (lambda path: BBox(2, 0, 1, 0), ContractError,
                      "BBox: inverted or negative box BBox(x_min=2, y_min=0, x_max=1, y_max=0)"),
    "bbox_negative": (lambda path: BBox(x_min=0, y_min=-1, x_max=0, y_max=0), ContractError,
                      "BBox: inverted or negative box BBox(x_min=0, y_min=-1, x_max=0, y_max=0)"),
    "header_dtype": (lambda path: read_values(_npy(path, "'<i8'", "False")), FileFormatError,
                     "{path}: unsupported dtype '<i8'"),
    "header_order": (lambda path: read_values(_npy(path, "'<f8'", "True")), FileFormatError,
                     "{path}: fortran_order arrays are not supported"),
}


def _npy(path, descr: str, fortran_order: str):
    """An NPY v1.0 file with this header and a (2,) float64 payload."""
    text = f"{{'descr': {descr}, 'fortran_order': {fortran_order}, 'shape': (2,), }}\n"
    path.write_bytes(b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode()
                     + bytes(16))
    return path


@pytest.mark.parametrize("name", PLAIN_RECORD_RAISES)
def test_plain_records_raise_as_their_dataclasses_did(tmp_path, name):
    call, error, message = PLAIN_RECORD_RAISES[name]
    with pytest.raises(PoolkitError) as raised:
        call(tmp_path / "h.npy")
    assert type(raised.value) is error
    assert str(raised.value) == message.format(path=tmp_path / "h.npy")


def test_plain_records_read_and_compare_as_their_dataclasses_did():
    grid = AttnGrid([[0.0, 1]], width=2, height=1)
    assert repr(grid) == "AttnGrid(values=[[0.0, 1.0]], width=2, height=1)"
    assert grid != AttnGrid([[0.0, 1]], width=2, height=1) and grid == grid  # by identity
    box = BBox(0, 1, 2, 3)
    assert repr(box) == "BBox(x_min=0, y_min=1, x_max=2, y_max=3)"
    assert box == BBox(x_min=0, y_min=1, x_max=2, y_max=3) != BBox(0, 1, 2, 4)
    assert box._replace(x_max=4) == BBox(0, 1, 4, 3)
    with pytest.raises(ContractError):  # a replaced field is checked, as dataclasses.replace did
        box._replace(x_min=3)
    header = NpyHeader(dtype="<f8", fortran_order=False, shape=(2,))
    assert repr(header) == "NpyHeader(dtype='<f8', fortran_order=False, shape=(2,))"
    assert header == NpyHeader("<f8", False, (2,))


def test_how_weight_roles_are_how_config_fields():
    assert METHODS["how"].roles == tuple(f.name for f in dataclasses.fields(HowConfig))


def test_public_names_resolve_on_their_module():
    assert poolkit.__all__ == sorted(SUBMODULES + PUBLIC)
    for name in PUBLIC:
        assert getattr(poolkit, name) is not None
    for name in SUBMODULES:
        assert getattr(poolkit, name) is sys.modules[f"poolkit.{name}"]


def test_dir_is_sorted_and_lists_every_public_name():
    names = dir(poolkit)
    assert names == sorted(names)
    assert set(poolkit.__all__) <= set(names)


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
