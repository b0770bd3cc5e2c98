"""poolkit: feature-map pooling operators and the generic engine behind them.

Submodules load on first use.  ``import poolkit`` registers every submodule but ``cli``
in ``sys.modules`` as a lazily executed module, so it runs no pooler code and does not
import NumPy, while ``poolkit.framework`` and the rest exist from the start for code that
patches them.  A module executes when one of its attributes is first read, or at
``import poolkit.<name>`` once ``poolkit`` is loaded; ``from poolkit import <name>`` only
binds it.  The public names below are looked up on their module at every access, so a
patched module attribute is what ``poolkit.<name>`` returns.

A ``poolkit pool`` request executes ``cli``, ``errors``, ``tensor_io``, ``framework``,
``matcore``, ``meanfam`` and ``simple_poolers``, or for a method outside the simple five
its one pooler module and ``nncells`` in place of ``simple_poolers``; ``attnmap`` executes
``cli``, ``errors``, ``tensor_io`` and ``attnmap``, and ``inspect`` the first three.  Neither
``attnmap`` nor ``inspect`` imports NumPy.
"""

import importlib.util
import sys

_EXPORTS = {
    "framework": ("AttentionMatrix", "FeatureMap", "MapRule", "PooledSet", "PoolingSpec",
                  "PoolRule", "UpdateRule", "pairwise_similarity", "run_pooling"),
    "meanfam": ("lse_pool", "weighted_generalized_mean"),
    "simple_poolers": ("HowConfig", "gap", "gem", "how", "lse", "max_pool"),
    "cluster_poolers": ("NystromMap", "SinkhornParams", "SlotWeights", "kmeans_distortion",
                        "kmeans_pool", "otk_pool", "sinkhorn", "slot_pool"),
    "reweight_poolers": ("CbamWeights", "SeWeights", "cbam_pool", "se_pool"),
    "transformer_poolers": ("VitWeights", "vit_cls_pool"),
    "simpool": ("SimPoolParams", "simpool_backward", "simpool_forward", "simpool_gradcheck"),
    "gradcheck": ("GradReport", "central_diff"),
    "attnmap": ("AttnGrid", "BBox", "largest_component_bbox", "mass_threshold",
                "reshape_attention", "write_pgm"),
    "tensor_io": ("RunConfig", "load_config", "load_feature_map", "read_npy", "write_npy"),
}
# `cli` stays out: registered ahead of `python -m poolkit.cli`, runpy would warn
_SUBMODULES = (*_EXPORTS, "errors", "matcore", "nncells")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers the module body to its first attribute read
    return module


for _name in _SUBMODULES:
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    """A public name, read from its module at each access (never cached here)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted([*globals(), *_HOME])


__all__ = sorted([*_SUBMODULES, *_HOME])
__version__ = "0.1.0"
