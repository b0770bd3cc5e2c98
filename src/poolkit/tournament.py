"""``poolkit tournament``: every method on synthetic clustered features, one TSV row per method
and trial of the pooled norm, the k-means distortion and the attention entropy."""

from __future__ import annotations

import sys
import time

import numpy as np

from .cluster_poolers import kmeans_distortion
from .errors import ConfigError, PoolkitError
from .framework import FeatureMap, PooledSet
from .tensor_io import METHODS, config_from_dict


def _synthesize_features(d: int, p: int, k_clusters: int, seed: int) -> FeatureMap:
    """Gaussian cluster mixture, shifted to be nonnegative."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(d, k_clusters))
    assign = rng.integers(k_clusters, size=p)
    x = centers[:, assign] + 0.3 * rng.standard_normal((d, p))
    return FeatureMap.from_array(x - x.min())


def tournament_epsilon(fm: FeatureMap) -> float:
    """The tournament's Sinkhorn epsilon: 0.05 x the total per-channel variance, at least 0.1,
    scaled to the squared-distance costs so the plan stays solvable on any feature magnitude."""
    return max(0.1, 0.05 * float(np.var(fm.x, axis=1).sum()))


def _attention_entropy(pooled: PooledSet) -> float:
    a = pooled.attention.a
    mass = a.sum()
    if mass <= 0:
        return float("nan")
    q = (a / mass).reshape(-1)
    q = q[q > 0]
    return float(-(q * np.log(q)).sum()) + 0.0  # + 0.0: one location's -0.0 prints as 0


def _report(path, lines: list, timings: dict) -> None:
    """The TSV lines to ``path``, or to stdout without one, then each method's wall time to stderr,
    so stdout (the TSV without --out) stays byte-deterministic."""
    report = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    for method, ms in timings.items():
        print(f"# {method}: {ms:.1f} ms total", file=sys.stderr)


def cmd_tournament(args) -> None:
    methods = args.methods.split(",") if args.methods else list(METHODS)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} in --methods")
    lines, timings = ["method\ttrial\tnorm\tdistortion\tentropy"], {}
    for trial in range(args.trials):
        fm = _synthesize_features(args.d, args.p, args.k_clusters, args.seed + trial)
        overrides = {"seed": args.seed, "k": min(args.k_clusters, fm.p),
                     "epsilon": tournament_epsilon(fm)}  # read by sinkhorn-otk alone
        for method in methods:
            start = time.perf_counter()
            try:  # no weight files: each method draws its seeded weights, as `cli.run_method` does
                pooled = METHODS[method].pool(config_from_dict({"method": method, **overrides}), fm, {})
            except PoolkitError as exc:  # raised once the rows that ran are out
                _report(args.out, lines, timings)
                raise type(exc)(f"{method}: {exc}") from None
            timings[method] = timings.get(method, 0.0) + (time.perf_counter() - start) * 1e3
            lines.append(f"{method}\t{trial}\t{np.linalg.norm(pooled.u):.12g}\t"
                         f"{kmeans_distortion(fm.x, pooled.u):.12g}\t{_attention_entropy(pooled):.12g}")
    _report(args.out, lines, timings)
