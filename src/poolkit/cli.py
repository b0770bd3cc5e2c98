"""Command-line interface: pool, attnmap, gradcheck, tournament, inspect.

Exit codes: 0 success, 1 configuration/contract errors, 2 I/O errors,
3 numeric failures (non-convergence, failed gradient tolerance).
"""

import argparse
import importlib
import sys
from typing import TYPE_CHECKING

# The dispatcher and `pool` only.  Each other command is defined in the module that runs it, which
# is imported when that command runs, and a request builds only its own command's arguments.
from . import tensor_io  # bound, not executed: `attnmap` and `inspect` never read it
from .errors import ConfigError, ContractError, FileFormatError, PoolkitError, ShapeError

if TYPE_CHECKING:  # annotations naming these are quoted: `from __future__` is an import per request
    from .framework import FeatureMap, PooledSet
    from .tensor_io import RunConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

COMMANDS = {  # name: (help, the module defining cmd_<name>, the floor of each integer flag)
    "pool": ("pool a feature file", __name__, {}),  # this module, "__main__" under `python -m`
    "attnmap": ("threshold an attention map", "poolkit.attnmap", {}),
    "gradcheck": ("verify analytic gradients", "poolkit.gradcheck",
                  {"seed": 0, "d": 1, "p": 1, "trials": 1}),
    "tournament": ("run every method on synthetic features", "poolkit.tournament",
                   {"seed": 0, "d": 1, "p": 1, "k_clusters": 1, "trials": 1}),
    "inspect": ("print an NPY header", "poolkit.npy", {}),
}


def run_method(cfg: "RunConfig", fm: "FeatureMap") -> "PooledSet":
    """Pool a feature map with the configured method's record in ``tensor_io.METHODS``."""
    # RunConfig checked the roles
    supplied = {role: tensor_io.read_npy(path)[0] for role, path in cfg.weights.items()}
    return tensor_io.METHODS[cfg.method].pool(cfg, fm, supplied)


def _config_from_args(args) -> "RunConfig":
    from dataclasses import fields

    base = {}
    if args.config:
        base = vars(tensor_io.load_config(args.config)).copy()
    for f in fields(tensor_io.RunConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            base[f.name] = val
    return tensor_io.config_from_dict(base, origin="command line")


def cmd_pool(args) -> None:
    cfg = _config_from_args(args)
    fm = tensor_io.load_feature_map(args.input, width=cfg.width, height=cfg.height)
    pooled = run_method(cfg, fm)
    if args.out:
        tensor_io.write_npy(pooled.u, args.out)
    if args.attn_out:
        tensor_io.write_npy(pooled.attention.a, args.attn_out)
    d_out, k_out = pooled.u.shape
    print(f"method={cfg.method} input d={fm.d} p={fm.p} "
          f"grid={fm.width}x{fm.height} -> pooled {d_out}x{k_out}")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``poolkit`` parser, listing every subcommand; only ``command``'s gets its arguments,
    or every one's if ``command`` is None."""
    parser = argparse.ArgumentParser(prog="poolkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_pool, p_attn, p_grad, p_tour, p_ins = (sub.add_parser(name, help=help_)
                                             for name, (help_, _, _) in COMMANDS.items())

    if command in (None, "pool"):
        import numbers

        p_pool.add_argument("--input", required=True)
        p_pool.add_argument("--method", choices=tensor_io.METHODS)
        for names, kind, _ in tensor_io.TYPED_FIELDS:  # one override flag per typed RunConfig field
            for name in names:
                p_pool.add_argument(f"--{name}", type=int if kind is numbers.Integral else float)
        p_pool.add_argument("--config")
        p_pool.add_argument("--out")
        p_pool.add_argument("--attn-out")

    if command in (None, "attnmap"):
        p_attn.add_argument("--attn", required=True)
        p_attn.add_argument("--width", type=int, required=True)
        p_attn.add_argument("--height", type=int, required=True)
        p_attn.add_argument("--mass", type=float, default=0.6)
        p_attn.add_argument("--pgm")
        p_attn.add_argument("--mask-pgm")
        p_attn.add_argument("--bbox", action="store_true")

    if command in (None, "gradcheck"):
        p_grad.add_argument("--d", type=int, default=8)
        p_grad.add_argument("--p", type=int, default=12)
        p_grad.add_argument("--gamma", type=float, default=2.0)
        p_grad.add_argument("--h", type=float, default=1e-4)
        p_grad.add_argument("--tol", type=float, default=1e-5)
        p_grad.add_argument("--trials", type=int, default=3)
        p_grad.add_argument("--seed", type=int, default=0)

    if command in (None, "tournament"):
        p_tour.add_argument("--d", type=int, default=16)
        p_tour.add_argument("--p", type=int, default=64)
        p_tour.add_argument("--k-clusters", type=int, default=4)
        p_tour.add_argument("--trials", type=int, default=1)
        p_tour.add_argument("--seed", type=int, default=0)
        p_tour.add_argument("--methods")
        p_tour.add_argument("--out")

    if command in (None, "inspect"):
        p_ins.add_argument("--input", required=True)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    _, home, floors = COMMANDS[args.command]
    try:
        for name, low in floors.items():  # a ConfigError names the first flag below its floor
            if (val := getattr(args, name)) < low:
                raise ConfigError(f"--{name.replace('_', '-')} must be >= {low}, got {val}")
        getattr(importlib.import_module(home), f"cmd_{args.command}")(args)
    except (PoolkitError, OSError, MemoryError) as exc:  # a MemoryError: a size too large to allocate
        bare = isinstance(exc, MemoryError) and not str(exc)  # NumPy's names its array; Python's is blank
        print(f"error: {'out of memory' if bare else exc}", file=sys.stderr)
        return (EXIT_CONFIG if isinstance(exc, (ContractError, ShapeError, MemoryError))  # ConfigError too
                else EXIT_IO if isinstance(exc, (FileFormatError, OSError)) else EXIT_NUMERIC)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
