"""Per-function spans over poolkit, recorded from outside the program.

Each target function is found by identity, and every ``poolkit.*`` module
attribute bound to it is replaced by one wrapper, so a call is counted
once however the caller imported the name.  The wrapper records the
call's duration and credits it to the enclosing span, so self time
excludes nested calls (``how`` -> ``_avg3`` -> ``conv2d_same``).  A target
missing from the measured commit is reported as absent, not as an error.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
from time import perf_counter

import numpy as np

# "<module>.<function>" or "<module>.<Class>.<method>", under poolkit.
TARGETS = (
    "cli.main", "cli.run_method",
    "tensor_io.read_npy", "tensor_io.write_npy", "tensor_io.load_feature_map",
    "framework.run_pooling", "framework.pairwise_similarity", "framework._avg3",
    "matcore.conv2d_same", "matcore.col_softmax", "matcore.layernorm_cols", "matcore.jacobi_eigh",
    "meanfam.weighted_generalized_mean", "meanfam.lse_pool",
    "simple_poolers.gap", "simple_poolers.max_pool", "simple_poolers.gem",
    "simple_poolers.lse", "simple_poolers.how",
    "cluster_poolers.sinkhorn", "cluster_poolers.otk_pool",
    "cluster_poolers.NystromMap.__init__", "cluster_poolers.NystromMap.__call__",
    "cluster_poolers.kmeans_pool", "cluster_poolers.lloyd_step",
    "cluster_poolers.slot_pool", "cluster_poolers.SlotWeights.seeded",
    "reweight_poolers.se_pool", "reweight_poolers.cbam_pool",
    "reweight_poolers.SeWeights.seeded", "reweight_poolers.CbamWeights.seeded",
    "transformer_poolers.vit_cls_pool", "transformer_poolers.cait_class_attention",
    "transformer_poolers.VitWeights.seeded", "transformer_poolers.VitIterWeights.seeded",
    "simpool.simpool_forward", "simpool.simpool_backward", "simpool.SimPoolParams.seeded",
    "nncells.gru_cell", "nncells.mlp2", "nncells.GruWeights.seeded", "nncells.MlpWeights.seeded",
    "attnmap.reshape_attention", "attnmap.mass_threshold",
    "attnmap.largest_component_bbox", "attnmap.write_pgm",
)
# Counts computed from outside, at the function boundary.
COUNTS = ("tensor_io.read_npy.bytes", "tensor_io.write_npy.bytes", "weights.normals",
          "cluster_poolers.sinkhorn.failures")


def metric_units() -> dict[str, str]:
    """Every metric the tracer reports, with its unit."""
    units = {}
    for key in TARGETS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    for key in COUNTS:
        units[key] = "bytes" if key.endswith(".bytes") else "count"
    return units


@dataclasses.dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    failures: int = 0


def array_elements(obj) -> int:
    """Elements in every array held by a (nested) weight object."""
    if isinstance(obj, np.ndarray):
        return obj.size
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_elements(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(array_elements(item) for item in obj)
    return 0


def _path_argument(fn, args, kwargs):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get("path")
    except (TypeError, ValueError):
        return None


class Tracer:
    """Install, run, uninstall: only calls made while installed are recorded."""

    def __init__(self):
        self.stats = {key: Stat() for key in TARGETS}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.absent: list[str] = []
        self.top_s = 0.0            # time in spans with no enclosing span
        self._stack: list[list] = []  # [key, time spent in child spans]
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, replacement) for every binding of every target."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "poolkit" or name.startswith("poolkit."))]
        patches = []
        for key in TARGETS:
            module_name, *path = key.split(".")
            try:
                owner = importlib.import_module(f"poolkit.{module_name}")
            except ImportError:
                self.absent.append(key)
                continue
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            if len(path) == 2 and isinstance(owner, type) and path[1] in owner.__dict__:
                raw = owner.__dict__[path[1]]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self._wrap(key, fn)
                patches.append((owner, path[1], raw,
                                classmethod(wrapped) if isinstance(raw, classmethod) else wrapped))
                continue
            fn = getattr(owner, path[-1], None) if len(path) == 1 else None
            if not inspect.isfunction(fn):
                self.absent.append(key)
                continue
            wrapped = self._wrap(key, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patches.append((module, attr, fn, wrapped))
        return patches

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        stack = self._stack
        after = self._after_hook(key, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failures += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_hook(self, key: str, fn):
        counts = self.counts
        if key in ("tensor_io.read_npy", "tensor_io.write_npy"):
            def file_bytes(args, kwargs, result):
                path = _path_argument(fn, args, kwargs)
                if path is not None:
                    counts[f"{key}.bytes"] += os.path.getsize(path)
            return file_bytes
        if key.endswith(".seeded"):
            def normals(args, kwargs, result):
                # nested constructors (GruWeights inside SlotWeights) count once
                if not any(k.endswith(".seeded") for k, _ in self._stack):
                    counts["weights.normals"] += array_elements(result)
            return normals
        return None

    def metrics(self) -> dict[str, float]:
        values = {}
        for key, stat in self.stats.items():
            values[f"{key}.calls"] = stat.calls
            values[f"{key}.self_s"] = stat.self_s
        values.update(self.counts)
        values["cluster_poolers.sinkhorn.failures"] = self.stats["cluster_poolers.sinkhorn"].failures
        return values
