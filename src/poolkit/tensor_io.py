"""NPY (v1.0 subset) arrays read through ``npy`` and written bit-exact, the JSON run
configuration and the table of methods."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

# the engine and pooler modules are bound here, and executed when a method's record is called
from . import cluster_poolers, framework, reweight_poolers, simple_poolers, simpool, transformer_poolers
from .errors import ConfigError
from .npy import NpyHeader, read_values

if TYPE_CHECKING:  # imported where they are read: building `pool`'s parser needs neither
    import numpy as np

    from .framework import FeatureMap, PooledSet


def read_npy(path) -> tuple[np.ndarray, NpyHeader]:
    """A file ``npy.read_values`` accepts as a float64 array; '<f4' payloads are widened."""
    import numpy as np

    values, header = read_values(path)
    return np.frombuffer(values, dtype=values.typecode).reshape(header.shape).astype(np.float64), header


def write_npy(arr, path) -> None:
    """Write float64 C-order NPY v1.0 with a 64-byte-aligned header."""
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    try:
        with Path(path).open("wb") as fh:
            np.lib.format.write_array(fh, arr, version=(1, 0), allow_pickle=False)
    except OSError as exc:
        raise OSError(f"write_npy: cannot write {path}: {exc}") from exc


def load_feature_map(path, width: Optional[int] = None, height: Optional[int] = None) -> FeatureMap:
    """Load features: 2-d (d, p) arrays directly, 3-d (d, H, W) flattened."""
    arr, _ = read_npy(path)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim == 3:
        d, h, w = arr.shape
        if width is not None and width != w or height is not None and height != h:
            asked = [f"{side} {n}" for side, n in (("width", width), ("height", height)) if n is not None]
            raise ConfigError(f"{path}: 3-d shape {arr.shape} conflicts with requested {', '.join(asked)}")
        return framework.FeatureMap(arr.reshape(d, h * w), width=w, height=h)
    return framework.FeatureMap.from_array(arr, width=width, height=height)


# --- run configuration -----------------------------------------------------

TYPED_FIELDS = (  # (fields, type, description); a field whose default is None may be None
    (("k", "iters", "heads", "seed", "width", "height"), numbers.Integral, "an integer"),
    (("gamma", "epsilon", "r"), numbers.Real, "a finite number"),
)


def _check_field_types(cfg) -> None:
    for names, kind, what in TYPED_FIELDS:
        for name in names:
            val = getattr(cfg, name)
            if val is None and getattr(RunConfig, name) is None:
                continue
            if (not isinstance(val, kind) or isinstance(val, bool)
                    or kind is numbers.Real and not math.isfinite(val)):
                raise ConfigError(f"{name} must be {what}, got {val!r}")
    if not isinstance(cfg.weights, dict) or not all(
        isinstance(s, str) for item in cfg.weights.items() for s in item
    ):
        raise ConfigError(f"weights must map role names to NPY paths, got {cfg.weights!r}")


class Method(NamedTuple):
    """A pooling method: the ``weights`` roles it reads, and ``pool(cfg, fm, w)``, which
    pools ``fm`` as ``cfg`` asks, ``w`` holding the array of each role supplied."""
    roles: tuple[str, ...]
    pool: Callable[[RunConfig, FeatureMap, dict], PooledSet]


def _vit_cls(cfg, fm, w):  # with the patch stream fixed, CaiT's class attention is ViT's
    weights = transformer_poolers.VitWeights.seeded(fm.d, cfg.iters, seed=cfg.seed)
    return transformer_poolers.vit_cls_pool(fm, weights, cfg.heads, cfg.iters)


METHODS = {  # every method, in the order of `--method`'s choices and the tournament's rows
    "gap": Method((), lambda cfg, fm, w: framework.run_pooling(simple_poolers.gem_spec(1.0), fm)),
    "max": Method((), lambda cfg, fm, w: framework.run_pooling(simple_poolers.max_spec(), fm)),
    "gem": Method((), lambda cfg, fm, w: framework.run_pooling(
        simple_poolers.gem_spec(cfg.resolved_gamma), fm)),
    "lse": Method((), lambda cfg, fm, w: framework.run_pooling(simple_poolers.lse_spec(cfg.r), fm)),
    "how": Method(("centering", "projection"),  # HowConfig's fields
                  lambda cfg, fm, w: framework.run_pooling(
                      simple_poolers.how_spec(fm, simple_poolers.HowConfig(**w)), fm)),
    "sinkhorn-otk": Method(("anchors",), lambda cfg, fm, w: cluster_poolers.otk_pool(
        fm, w["anchors"] if "anchors" in w else fm.sample_columns(cfg.k, cfg.seed), cfg.epsilon)),
    "kmeans": Method((), lambda cfg, fm, w: cluster_poolers.kmeans_pool(
        fm, cfg.k, cfg.iters, seed=cfg.seed)),
    "slot": Method((), lambda cfg, fm, w: cluster_poolers.slot_pool(  # simplified: no GRU or MLP
        fm, cfg.k, cfg.iters, cluster_poolers.SlotWeights.seeded(fm.d, seed=cfg.seed, simplified=True),
        seed=cfg.seed, simplified=True)),
    "se": Method((), lambda cfg, fm, w: reweight_poolers.se_pool(
        fm, reweight_poolers.SeWeights.seeded(fm.d, seed=cfg.seed))),
    "cbam": Method((), lambda cfg, fm, w: reweight_poolers.cbam_pool(
        fm, reweight_poolers.CbamWeights.seeded(fm.d, seed=cfg.seed))),
    "vit": Method((), _vit_cls),
    "cait": Method((), _vit_cls),
    "simpool": Method((), lambda cfg, fm, w: framework.run_pooling(simpool.simpool_spec(
        fm, simpool.SimPoolParams.seeded(fm.d, gamma=cfg.resolved_gamma, seed=cfg.seed)), fm)),
}


@dataclass
class RunConfig:
    method: str = "simpool"
    family: str = "conv"           # conv | transformer; selects the gamma default
    gamma: Optional[float] = None  # resolved against family when absent
    k: int = 1
    iters: int = 3
    heads: int = 1
    epsilon: float = 0.1
    r: float = 1.0
    seed: int = 0
    weights: dict = field(default_factory=dict)  # role -> NPY path
    width: Optional[int] = None
    height: Optional[int] = None

    def __post_init__(self):
        _check_field_types(self)
        if not isinstance(self.method, str) or self.method not in METHODS:  # a list is unhashable
            raise ConfigError(f"unknown method {self.method!r}; choose from {', '.join(METHODS)}")
        roles = METHODS[self.method].roles
        unread = sorted(set(self.weights) - set(roles))
        if unread:
            raise ConfigError(f"method {self.method!r} does not read weights {unread} "
                              f"(it reads {', '.join(roles) or 'none'})")
        if self.family not in ("conv", "transformer"):
            raise ConfigError(f"family must be 'conv' or 'transformer', got {self.family!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if abs(self.r) < 1e-9:
            raise ConfigError(f"|r| must be >= 1e-9, got {self.r}")
        if self.k < 1 or self.iters < 1 or self.heads < 1:
            raise ConfigError("k, iters and heads must all be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, val in (("width", self.width), ("height", self.height)):
            if val is not None and val < 1:
                raise ConfigError(f"{name} must be >= 1, got {val}")

    @property
    def resolved_gamma(self) -> float:
        from .meanfam import GAMMA_CONV_DEFAULT, GAMMA_TRANSFORMER_DEFAULT
        if self.gamma is not None:
            return self.gamma
        return GAMMA_TRANSFORMER_DEFAULT if self.family == "transformer" else GAMMA_CONV_DEFAULT


def load_config(path) -> RunConfig:
    """Strict JSON parse: unknown keys are rejected, defaults applied."""
    import json  # here, so a run without a config file loads no JSON parser

    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"load_config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw, origin=str(path))


def config_from_dict(raw: dict, origin: str = "config") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{origin}: top level must be an object")
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"{origin}: unknown keys {sorted(unknown)}")
    return RunConfig(**raw)
