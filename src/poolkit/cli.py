"""Command-line interface: pool, attnmap, gradcheck, tournament, inspect.

Exit codes: 0 success, 1 configuration/contract errors, 2 I/O errors,
3 numeric failures (non-convergence, failed gradient tolerance).
"""

from __future__ import annotations

import argparse
import numbers
import sys
import time
from dataclasses import fields, replace
from typing import TYPE_CHECKING

# Only what every command runs is imported here; NumPy, the engine and each pooler module
# are imported where a command runs them (`attnmap` and `inspect` import none of them).
from .errors import ConfigError, ContractError, FileFormatError, NumericError, PoolkitError, ShapeError
from .tensor_io import (
    METHOD_NAMES,
    TYPED_FIELDS,
    RunConfig,
    config_from_dict,
    load_config,
    load_feature_map,
    read_npy,
    read_values,
    write_npy,
)

if TYPE_CHECKING:
    from .framework import FeatureMap, PooledSet

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def run_method(cfg: RunConfig, fm: FeatureMap) -> PooledSet:
    """Dispatch a configured method on a feature map."""
    from .framework import run_pooling
    method = cfg.method
    gamma = cfg.resolved_gamma
    d = fm.d
    # RunConfig admits only the roles this method reads (tensor_io.WEIGHT_ROLES)
    supplied = {role: read_npy(path)[0] for role, path in cfg.weights.items()}
    if method in ("gap", "max", "gem", "lse", "how"):  # no other method runs simple_poolers
        from .simple_poolers import HowConfig, gem_spec, how_spec, lse_spec, max_spec
        if method == "gap":
            return run_pooling(gem_spec(1.0), fm)
        if method == "max":
            return run_pooling(max_spec(), fm)
        if method == "gem":
            return run_pooling(gem_spec(gamma), fm)
        if method == "lse":
            return run_pooling(lse_spec(cfg.r), fm)
        return run_pooling(how_spec(fm, HowConfig(**supplied)), fm)
    if method == "sinkhorn-otk":
        from .cluster_poolers import otk_pool
        anchors = supplied.get("anchors")
        if anchors is None:
            anchors = fm.sample_columns(cfg.k, cfg.seed)
        return otk_pool(fm, anchors, cfg.epsilon)
    if method == "kmeans":
        from .cluster_poolers import kmeans_pool
        return kmeans_pool(fm, cfg.k, cfg.iters, seed=cfg.seed)
    if method == "slot":
        from .cluster_poolers import SlotWeights, slot_pool
        weights = SlotWeights.seeded(d, seed=cfg.seed, simplified=True)  # no GRU or MLP
        return slot_pool(fm, cfg.k, cfg.iters, weights, seed=cfg.seed, simplified=True)
    if method == "se":
        from .reweight_poolers import SeWeights, se_pool
        return se_pool(fm, SeWeights.seeded(d, seed=cfg.seed))
    if method == "cbam":
        from .reweight_poolers import CbamWeights, cbam_pool
        return cbam_pool(fm, CbamWeights.seeded(d, seed=cfg.seed))
    if method in ("vit", "cait"):  # with the patch stream fixed, CaiT's class attention is ViT's
        from .transformer_poolers import VitWeights, vit_cls_pool
        return vit_cls_pool(fm, VitWeights.seeded(d, cfg.iters, seed=cfg.seed), cfg.heads, cfg.iters)
    if method == "simpool":
        from .simpool import SimPoolParams, simpool_spec
        return run_pooling(simpool_spec(fm, SimPoolParams.seeded(d, gamma=gamma, seed=cfg.seed)), fm)
    raise ConfigError(f"unknown method {method!r}")


def _config_from_args(args) -> RunConfig:
    base = {}
    if args.config:
        base = vars(load_config(args.config)).copy()
    for f in fields(RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            base[f.name] = val
    return config_from_dict(base, origin="command line")


def cmd_pool(args) -> int:
    cfg = _config_from_args(args)
    fm = load_feature_map(args.input, width=cfg.width, height=cfg.height)
    pooled = run_method(cfg, fm)
    if args.out:
        write_npy(pooled.u, args.out)
    if args.attn_out:
        write_npy(pooled.attention.a, args.attn_out)
    d_out, k_out = pooled.u.shape
    print(f"method={cfg.method} input d={fm.d} p={fm.p} "
          f"grid={fm.width}x{fm.height} -> pooled {d_out}x{k_out}")
    return EXIT_OK


def cmd_attnmap(args) -> int:
    from . import attnmap as attnmap_mod
    a, _ = read_values(args.attn)
    grid = attnmap_mod.reshape_attention(a, args.width, args.height)
    mask = attnmap_mod.mass_threshold(grid, args.mass)
    if args.pgm:
        attnmap_mod.write_pgm(grid, args.pgm)
    if args.mask_pgm:
        attnmap_mod.write_pgm(mask, args.mask_pgm)
    if args.bbox:
        box = attnmap_mod.largest_component_bbox(mask)
        print(f"{box.x_min} {box.y_min} {box.x_max} {box.y_max}")
    else:
        kept = sum(map(sum, mask))
        print(f"grid {args.width}x{args.height}, mass {args.mass:g}: {kept} cells kept")
    return EXIT_OK


def _check_at_least(args, **floors) -> None:
    """ConfigError naming the first flag below its floor."""
    for name, low in floors.items():
        val = getattr(args, name)
        if val < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}, got {val}")


def cmd_gradcheck(args) -> int:
    import numpy as np

    from .framework import FeatureMap
    from .simpool import SimPoolParams, simpool_gradcheck
    _check_at_least(args, seed=0, d=1, p=1, trials=1)
    if not (np.isfinite(args.tol) and args.tol > 0):  # nan or <= 0 fails every check, inf none
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol}")
    d, p = args.d, args.p
    reports = []
    for trial in range(args.trials):
        rng = np.random.default_rng(args.seed + trial)
        fm = FeatureMap.from_array(rng.normal(size=(d, p)))
        params = SimPoolParams.seeded(d, gamma=args.gamma, seed=args.seed + 1000 + trial)
        du = rng.normal(size=d)
        reports += [replace(rep, name=f"{rep.name}[{trial}]")
                    for rep in simpool_gradcheck(fm, params, du, args.h)]

    print(f"{'parameter':<12} {'max rel err':>12} {'mean rel err':>13} {'worst':>10}")
    ok = True
    for rep in reports:
        status = "ok" if rep.passes(args.tol) else "FAIL"
        ok &= rep.passes(args.tol)
        print(f"{rep.name:<12} {rep.max_rel_error:>12.3e} {rep.mean_rel_error:>13.3e} "
              f"{str(rep.worst_index):>10} {status}")
    if not ok:
        raise NumericError(f"gradient check failed at tol {args.tol:g}")
    return EXIT_OK


def _synthesize_features(d: int, p: int, k_clusters: int, seed: int) -> FeatureMap:
    """Gaussian cluster mixture, shifted to be nonnegative."""
    import numpy as np

    from .framework import FeatureMap
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(d, k_clusters))
    assign = rng.integers(k_clusters, size=p)
    x = centers[:, assign] + 0.3 * rng.standard_normal((d, p))
    return FeatureMap.from_array(x - x.min())


def _attention_entropy(pooled: PooledSet) -> float:
    import numpy as np

    a = pooled.attention.a
    mass = a.sum()
    if mass <= 0:
        return float("nan")
    q = (a / mass).reshape(-1)
    q = q[q > 0]
    return float(-(q * np.log(q)).sum())


def cmd_tournament(args) -> int:
    import numpy as np

    from .cluster_poolers import kmeans_distortion
    _check_at_least(args, seed=0, d=1, p=1, k_clusters=1, trials=1)
    methods = args.methods.split(",") if args.methods else list(METHOD_NAMES)
    for m in methods:
        if m not in METHOD_NAMES:
            raise ConfigError(f"unknown method {m!r} in --methods")
    rows, timings, failure = [], {}, None
    for trial in range(args.trials):
        fm = _synthesize_features(args.d, args.p, args.k_clusters, args.seed + trial)
        for method in methods:
            overrides = {"method": method, "seed": args.seed,
                         "k": min(args.k_clusters, fm.p)}
            if method == "sinkhorn-otk":
                # scale the entropic regularizer to the squared-distance
                # costs so the plan stays solvable on any feature magnitude
                spread = float(np.var(fm.x, axis=1).sum())
                overrides["epsilon"] = max(0.1, 0.05 * spread)
            start = time.perf_counter()
            try:
                pooled = run_method(config_from_dict(overrides), fm)
            except PoolkitError as exc:  # raised once the rows that ran are out
                failure = type(exc)(f"{method}: {exc}")
                break
            elapsed = (time.perf_counter() - start) * 1e3
            timings[method] = timings.get(method, 0.0) + elapsed
            rows.append((
                method,
                trial,
                float(np.linalg.norm(pooled.u)),
                kmeans_distortion(fm.x, pooled.u),
                _attention_entropy(pooled),
            ))
        if failure is not None:
            break
    header = "method\ttrial\tnorm\tdistortion\tentropy"
    lines = [header]
    for method, trial, norm, dist, ent in rows:
        lines.append(f"{method}\t{trial}\t{norm:.12g}\t{dist:.12g}\t{ent:.12g}")
    report = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    # wall times go to stderr, so stdout (the TSV without --out) stays byte-deterministic
    for method, ms in timings.items():
        print(f"# {method}: {ms:.1f} ms total", file=sys.stderr)
    if failure is not None:
        raise failure
    return EXIT_OK


def cmd_inspect(args) -> int:
    _, header = read_values(args.input)
    print(f"dtype={header.dtype} fortran_order={header.fortran_order} "
          f"shape={header.shape}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The ``poolkit`` parser: every subcommand, each with all of its arguments."""
    parser = argparse.ArgumentParser(prog="poolkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_pool = sub.add_parser("pool", help="pool a feature file")
    p_attn = sub.add_parser("attnmap", help="threshold an attention map")
    p_grad = sub.add_parser("gradcheck", help="verify analytic gradients")
    p_tour = sub.add_parser("tournament", help="run every method on synthetic features")
    p_ins = sub.add_parser("inspect", help="print an NPY header")

    p_pool.add_argument("--input", required=True)
    p_pool.add_argument("--method", choices=METHOD_NAMES)
    for names, kind, _ in TYPED_FIELDS:  # one override flag per typed RunConfig field
        for name in names:
            p_pool.add_argument(f"--{name}", type=int if kind is numbers.Integral else float)
    p_pool.add_argument("--config")
    p_pool.add_argument("--out")
    p_pool.add_argument("--attn-out")
    p_pool.set_defaults(fn=cmd_pool)

    p_attn.add_argument("--attn", required=True)
    p_attn.add_argument("--width", type=int, required=True)
    p_attn.add_argument("--height", type=int, required=True)
    p_attn.add_argument("--mass", type=float, default=0.6)
    p_attn.add_argument("--pgm")
    p_attn.add_argument("--mask-pgm")
    p_attn.add_argument("--bbox", action="store_true")
    p_attn.set_defaults(fn=cmd_attnmap)

    p_grad.add_argument("--d", type=int, default=8)
    p_grad.add_argument("--p", type=int, default=12)
    p_grad.add_argument("--gamma", type=float, default=2.0)
    p_grad.add_argument("--h", type=float, default=1e-4)
    p_grad.add_argument("--tol", type=float, default=1e-5)
    p_grad.add_argument("--trials", type=int, default=3)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_tour.add_argument("--d", type=int, default=16)
    p_tour.add_argument("--p", type=int, default=64)
    p_tour.add_argument("--k-clusters", type=int, default=4)
    p_tour.add_argument("--trials", type=int, default=1)
    p_tour.add_argument("--seed", type=int, default=0)
    p_tour.add_argument("--methods")
    p_tour.add_argument("--out")
    p_tour.set_defaults(fn=cmd_tournament)

    p_ins.add_argument("--input", required=True)
    p_ins.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PoolkitError, OSError, MemoryError) as exc:  # a MemoryError: a size too large to allocate
        bare = isinstance(exc, MemoryError) and not str(exc)  # NumPy's names its array; Python's is blank
        print(f"error: {'out of memory' if bare else exc}", file=sys.stderr)
        return (EXIT_CONFIG if isinstance(exc, (ContractError, ShapeError, MemoryError))  # ConfigError too
                else EXIT_IO if isinstance(exc, (FileFormatError, OSError)) else EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
