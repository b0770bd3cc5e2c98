"""Frozen outputs: every method on fixed inputs must keep its results.

``golden_outputs.npz`` holds the pooled vectors and attention of all
CLI methods, vit and cait at 2 and 4 heads, plus the library-only full slot,
k-means and Nystrom-mapped transport modes, on two small feature maps.
Regenerate it (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_golden.py``, or rewrite just some arrays,
adding new ones, with ``... tests/test_golden.py --only KEY [KEY ...]``, or
delete the arrays of outputs no longer computed with ``--drop KEY [KEY ...]``;
both refuse if any other array moved by more than 1e-12.

The frozen files only hold to 1e-12 on another BLAS build.  To check that
a change keeps every output byte for byte on one host, dump the outputs of
both golden scripts at each commit with ``... tests/test_golden.py --dump
OUT.npz`` and compare the dumps with ``--compare BEFORE.npz AFTER.npz``,
which prints how many arrays are byte-identical and the largest absolute
difference of each array that is not, and exits 1 unless all are.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poolkit.cli import run_method
from poolkit.cluster_poolers import NystromMap, SlotWeights, kmeans_pool, otk_pool, slot_pool
from poolkit.framework import FeatureMap
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
        scale = float(np.var(fm.x, axis=1).sum())
        eps = max(0.1, 0.05 * scale)  # the epsilon rule of `poolkit tournament`
        runs = {}
        for method in METHOD_NAMES:
            raw = {"method": method, "seed": seed, "k": K, "iters": ITERS}
            if method == "sinkhorn-otk":
                raw["epsilon"] = eps
            runs[method] = run_method(config_from_dict(raw), fm)
        for method in ("vit", "cait"):
            for heads in (2, 4):
                raw = {"method": method, "seed": seed, "iters": ITERS, "heads": heads}
                runs[f"{method}_heads{heads}"] = run_method(config_from_dict(raw), fm)
        runs["slot_full"] = slot_pool(fm, K, ITERS, SlotWeights.seeded(d, seed=seed), seed=seed)
        runs["kmeans_pool"] = kmeans_pool(fm, K, ITERS, seed=seed)
        # the Nystrom map anchored at the transport anchors, as the transport
        # benchmark builds it; sampled columns are not C-contiguous
        anchors = fm.sample_columns(K, seed)
        runs["otk_nystrom"] = otk_pool(fm, anchors, eps,
                                       psi=NystromMap(anchors, sigma=float(np.sqrt(scale))))
        for name, pooled in runs.items():
            tag = f"{d}x{width}x{height}/{name}"
            out[f"{tag}/u"] = pooled.u
            out[f"{tag}/a"] = pooled.attention.a
    return out


def _load(path: Path) -> dict:
    with np.load(path) as golden:
        return {key: golden[key] for key in golden.files}


def _moved(current: dict, expected: dict) -> list:
    """Keys of ``expected`` that ``current`` lacks or holds more than 1e-12 away."""
    return [key for key, want in expected.items()
            if key not in current or current[key].shape != want.shape
            or np.max(np.abs(current[key] - want)) > 1e-12]


def assert_unchanged(current: dict, path: Path) -> None:
    """Every frozen array in ``path`` is in ``current``, within 1e-12."""
    expected = _load(path)
    assert sorted(current) == sorted(expected)
    moved = _moved(current, expected)
    assert not moved, f"outputs moved by more than 1e-12: {moved}"


def all_outputs() -> dict:
    """The outputs of both golden scripts, keyed "<golden file>:<array key>"."""
    import test_golden_bench  # it imports this module, so not at the top

    sets = ((GOLDEN, compute_outputs), (test_golden_bench.GOLDEN, test_golden_bench.compute_outputs))
    return {f"{path.name}:{key}": val for path, compute in sets for key, val in compute().items()}


def compare_dumps(before: Path, after: Path) -> list:
    """Print how many arrays the two dumps hold byte for byte, and how each
    other array differs; return the keys that differ."""
    a, b = _load(before), _load(after)
    keys = sorted(a.keys() | b.keys())
    differ = [key for key in keys if key not in a or key not in b
              or a[key].shape != b[key].shape or a[key].tobytes() != b[key].tobytes()]
    print(f"{len(keys) - len(differ)} of {len(keys)} arrays byte-identical")
    for key in differ:
        if key not in a or key not in b:
            print(f"{key}: only in {before if key in a else after}")
        elif a[key].shape != b[key].shape:
            print(f"{key}: shape {a[key].shape} vs {b[key].shape}")
        else:
            print(f"{key}: max abs difference {np.max(np.abs(a[key] - b[key])):.3e}")
    return differ


def regenerate(compute, path: Path, argv=None) -> None:
    """Write ``compute()`` to ``path``.  With ``--only KEY ...`` write just
    those keys, new or frozen, and copy every other frozen array unchanged;
    with ``--drop KEY ...`` delete those frozen keys, which must no longer
    be computed, and copy every other array unchanged.  Either exits 1,
    naming them, if any other key moved, is missing or is unfrozen.
    ``--dump`` and ``--compare`` write and compare both scripts' outputs
    instead (see the module docstring)."""
    parser = argparse.ArgumentParser(description=f"regenerate {path.name}")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--only", nargs="+", metavar="KEY", help="write only these keys")
    mode.add_argument("--drop", nargs="+", metavar="KEY", help="delete these frozen keys")
    mode.add_argument("--dump", metavar="NPZ", help="write both golden scripts' outputs to NPZ")
    mode.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                      help="compare two dumps array by array")
    args = parser.parse_args(argv)
    if args.dump:
        np.savez(args.dump, **all_outputs())
        print(f"wrote {args.dump}")
        return
    if args.compare:
        sys.exit(1 if compare_dumps(*map(Path, args.compare)) else 0)
    named = args.only or args.drop
    current = compute()
    if named is None:
        np.savez(path, **current)
        print(f"wrote {path}")
        return
    frozen = _load(path)
    out = {key: want for key, want in frozen.items() if key not in named}
    bad = [f"{'moved' if key in current else 'missing'}: {key}" for key in _moved(current, out)]
    if args.only:
        bad += [f"not computed: {key}" for key in named if key not in current]
    else:
        bad += [f"still computed: {key}" for key in named if key in current]
        bad += [f"not frozen: {key}" for key in named if key not in frozen]
    bad += [f"neither frozen nor named: {key}" for key in current
            if key not in out and key not in named]
    if bad:
        sys.exit("refusing to write " + str(path) + "\n" + "\n".join(bad))
    if args.only:
        out.update((key, current[key]) for key in named)
    np.savez(path, **out)
    print(f"wrote {len(out)} arrays to {path}: {len(named)} "
          f"{'written' if args.only else 'dropped'}")


def test_outputs_unchanged():
    assert_unchanged(compute_outputs(), GOLDEN)


def test_outputs_are_byte_identical_at_one_and_two_blas_threads(tmp_path):
    """Both golden scripts' outputs, every method's, dumped in fresh interpreters."""
    dumps = [str(tmp_path / f"threads_{n}.npz") for n in ("1", "2")]
    for n, dump in zip(("1", "2"), dumps):
        subprocess.run([sys.executable, __file__, "--dump", dump], check=True, capture_output=True,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": n})
    proc = subprocess.run([sys.executable, __file__, "--compare", *dumps], capture_output=True,
                          text=True)
    with np.load(dumps[0]) as dumped:
        count = len(dumped.files)
    assert (proc.returncode, proc.stdout) == (0, f"{count} of {count} arrays byte-identical\n")


def test_regenerate_only_writes_named_keys(tmp_path):
    path = tmp_path / "golden.npz"
    np.savez(path, kept=np.zeros(2), named=np.zeros(2))
    current = {"kept": np.full(2, 1e-13), "named": np.ones(2), "new": np.ones(3)}
    regenerate(lambda: current, path, ["--only", "named", "new"])
    with np.load(path) as out:
        assert sorted(out.files) == ["kept", "named", "new"]
        assert not out["kept"].any() and out["named"].all() and out["new"].shape == (3,)
    current["kept"] = np.full(2, 2e-12)
    del current["new"]
    current["unfrozen"] = np.ones(1)
    with pytest.raises(SystemExit) as refused:
        regenerate(lambda: current, path, ["--only", "named", "new"])
    for line in ("moved: kept", "not computed: new", "neither frozen nor named: unfrozen"):
        assert line in str(refused.value)
    with np.load(path) as out:
        assert not out["kept"].any()


def test_regenerate_drop_deletes_named_keys(tmp_path):
    path = tmp_path / "golden.npz"
    np.savez(path, kept=np.zeros(2), gone=np.zeros(2))
    regenerate(lambda: {"kept": np.full(2, 1e-13)}, path, ["--drop", "gone"])
    with np.load(path) as out:
        assert out.files == ["kept"] and not out["kept"].any()
    np.savez(path, kept=np.zeros(2), gone=np.zeros(2), lost=np.zeros(1))
    current = {"kept": np.full(2, 2e-12), "gone": np.zeros(2), "unfrozen": np.ones(1)}
    with pytest.raises(SystemExit) as refused:
        regenerate(lambda: current, path, ["--drop", "gone", "typo"])
    for line in ("moved: kept", "missing: lost", "still computed: gone", "not frozen: typo",
                 "neither frozen nor named: unfrozen"):
        assert line in str(refused.value)
    with np.load(path) as out:
        assert sorted(out.files) == ["gone", "kept", "lost"]


def test_compare_dumps_reports_each_difference(tmp_path, capsys):
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    np.savez(before, same=np.ones(2), moved=np.ones(2), gone=np.ones(1), signed=np.zeros(1))
    np.savez(after, same=np.ones(2), moved=np.array([1.0, 1.5]), new=np.ones(1),
             signed=-np.zeros(1))
    assert compare_dumps(before, after) == ["gone", "moved", "new", "signed"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1 of 5 arrays byte-identical"
    assert out[1:] == [f"gone: only in {before}", "moved: max abs difference 5.000e-01",
                       f"new: only in {after}", "signed: max abs difference 0.000e+00"]


if __name__ == "__main__":
    regenerate(compute_outputs, GOLDEN)
