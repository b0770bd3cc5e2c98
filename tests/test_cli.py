import contextlib
import io
import json
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolkit.cli import _config_from_args, build_parser, main
from poolkit.cluster_poolers import kmeans_distortion, otk_pool
from poolkit.framework import AttentionMatrix, FeatureMap, PooledSet
from poolkit.simple_poolers import HowConfig, gap, how
from poolkit.tensor_io import METHODS, read_npy, write_npy
from poolkit.tournament import _attention_entropy


# exit code, stdout and stderr of help and usage errors at COLUMNS=80, frozen from the
# parser that added every subcommand's arguments on every command (commit cf9fa30)
PARSER_OUTPUTS = json.loads(Path(__file__).with_name("cli_parser_outputs.json").read_text())


def _write_features(path, arr):
    write_npy(np.asarray(arr, dtype=float), path)
    return str(path)


def _cli_error(argv, code):
    """Run ``poolkit`` in a fresh interpreter; it must exit with ``code`` and a
    single ``error:`` line, never a traceback.  Returns that line."""
    proc = subprocess.run([sys.executable, "-m", "poolkit.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    return proc.stderr


class TestCmdPool:
    def test_gap_writes_expected_vector(self, tmp_path, capsys):
        x = _write_features(tmp_path / "x.npy", [[1.0, 3.0], [5.0, 7.0]])
        out = tmp_path / "u.npy"
        code = main(["pool", "--input", x, "--method", "gap", "--out", str(out)])
        assert code == 0
        u, _ = read_npy(out)
        np.testing.assert_allclose(u[:, 0], [2.0, 6.0])
        assert "method=gap" in capsys.readouterr().out

    def test_simpool_deterministic(self, tmp_path):
        rng = np.random.default_rng(46)
        x = _write_features(tmp_path / "x.npy", rng.normal(size=(4, 9)))
        outs = []
        for name in ("u1.npy", "u2.npy"):
            out = tmp_path / name
            code = main(["pool", "--input", x, "--method", "simpool",
                         "--gamma", "2", "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_epsilon_zero_exit_1(self, tmp_path, capsys):
        x = _write_features(tmp_path / "x.npy", [[1.0, 2.0], [3.0, 4.0]])
        code = main(["pool", "--input", x, "--method", "sinkhorn-otk",
                     "--epsilon", "0"])
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = main(["pool", "--input", str(tmp_path / "nope.npy"),
                     "--method", "gap"])
        assert code == 2
        assert capsys.readouterr().err

    def test_attention_output(self, tmp_path):
        rng = np.random.default_rng(47)
        x = _write_features(tmp_path / "x.npy", rng.normal(size=(4, 6)))
        attn = tmp_path / "a.npy"
        code = main(["pool", "--input", x, "--method", "simpool",
                     "--attn-out", str(attn)])
        assert code == 0
        a, _ = read_npy(attn)
        np.testing.assert_allclose(a.sum(), 1.0, atol=1e-9)

    @pytest.mark.parametrize("method", list(METHODS))
    def test_every_method_writes_a_p_by_k_attention(self, tmp_path, method):
        rng = np.random.default_rng(49)
        x = _write_features(tmp_path / "x.npy", rng.uniform(0.1, 3.0, size=(8, 12)))
        attn = tmp_path / "a.npy"
        code = main(["pool", "--input", x, "--method", method, "--k", "3", "--heads", "2",
                     "--epsilon", "1.0", "--width", "4", "--height", "3",
                     "--attn-out", str(attn)])
        assert code == 0
        k = 3 if method in ("sinkhorn-otk", "kmeans", "slot") else 1
        assert read_npy(attn)[0].shape == (12, k)

    def test_config_file_with_override(self, tmp_path, capsys):
        x = _write_features(tmp_path / "x.npy", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"method": "gap"}')
        out = tmp_path / "u.npy"
        code = main(["pool", "--input", x, "--config", str(cfg),
                     "--method", "max", "--out", str(out)])
        assert code == 0
        u, _ = read_npy(out)
        np.testing.assert_allclose(u[:, 0], [3.0, 6.0])


    def test_every_config_flag_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"method": "gap", "gamma": 1.5, "k": 3, "iters": 2, "heads": 4,'
                       ' "epsilon": 0.2, "r": 3.0, "seed": 1, "width": 4, "height": 4}')
        flags = {"method": "gem", "gamma": 2.5, "k": 2, "iters": 5, "heads": 2,
                 "epsilon": 0.5, "r": 2.0, "seed": 9, "width": 3, "height": 1}
        argv = ["pool", "--input", "x.npy", "--config", str(cfg)]
        for name, val in flags.items():
            argv += [f"--{name}", str(val)]
        cfg_run = _config_from_args(build_parser().parse_args(argv))
        assert {name: getattr(cfg_run, name) for name in flags} == flags

    def test_supplied_weights_are_used(self, tmp_path):
        rng = np.random.default_rng(48)
        x = rng.uniform(0.5, 2.0, size=(4, 6))
        fm = FeatureMap.from_array(x)
        arrays = {"centering": rng.normal(size=4), "projection": rng.normal(size=(4, 4)),
                  "anchors": x[:, [0, 3]]}
        paths = {role: _write_features(tmp_path / f"{role}.npy", arr) for role, arr in arrays.items()}
        cases = [
            ({"method": "how", "weights": {r: paths[r] for r in ("centering", "projection")}},
             how(fm, HowConfig(arrays["centering"], arrays["projection"]))[:, None]),
            ({"method": "sinkhorn-otk", "epsilon": 0.5, "weights": {"anchors": paths["anchors"]}},
             otk_pool(fm, arrays["anchors"], 0.5).u),
        ]
        for config, expected in cases:
            cfg, out = tmp_path / "cfg.json", tmp_path / "u.npy"
            cfg.write_text(json.dumps(config))
            assert main(["pool", "--input", _write_features(tmp_path / "x.npy", x),
                         "--config", str(cfg), "--out", str(out)]) == 0
            np.testing.assert_array_equal(read_npy(out)[0], expected)

    @staticmethod
    def _pool_with_config(tmp_path, config):
        x = _write_features(tmp_path / "x.npy", [[1.0, 2.0], [3.0, 4.0]])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        return _cli_error(["pool", "--input", x, "--config", str(cfg)], 1)

    @pytest.mark.parametrize("config", ['{"k": "3"}', '{"gamma": "2"}', '{"weights": ["a"]}'])
    def test_mistyped_config_exit_1(self, tmp_path, config):
        self._pool_with_config(tmp_path, config)

    @pytest.mark.parametrize("config", ['{"input": "feats.npy"}', '{"output": "u.npy"}',
                                        '{"attention_output": "a.npy"}', '{"mass": 0.5}'])
    def test_unread_config_key_exit_1(self, tmp_path, config):
        assert "unknown keys" in self._pool_with_config(tmp_path, config)

    @pytest.mark.parametrize("config", ['{"method": "how", "weights": {"projecton": "m.npy"}}',
                                        '{"method": "simpool", "weights": {"w_q": "m.npy"}}'])
    def test_unread_weight_role_exit_1(self, tmp_path, config):
        assert "does not read weights" in self._pool_with_config(tmp_path, config)

    @pytest.mark.parametrize("method, role, shape", [
        ("how", "projection", (3, 3)),
        ("how", "projection", (4,)),
        ("how", "centering", (3,)),
        ("how", "centering", (4, 1)),
        ("sinkhorn-otk", "anchors", (4,)),
        ("sinkhorn-otk", "anchors", (3, 2)),
        ("sinkhorn-otk", "anchors", (4, 0)),
        ("how", "projection", (0, 4)),
    ])
    def test_misshapen_weights_exit_1(self, tmp_path, method, role, shape):
        # the feature map has d = 4 channels
        x = _write_features(tmp_path / "x.npy", np.ones((4, 6)))
        w = _write_features(tmp_path / "w.npy", np.ones(shape))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": method, "epsilon": 0.5, "weights": {role: w}}))
        line = _cli_error(["pool", "--input", x, "--config", str(cfg)], 1)
        assert f"weights '{role}' has shape {shape}" in line

    def test_non_finite_anchors_exit_3(self, tmp_path):
        # named as the anchors' entries, not as an overflow of their distances
        x = _write_features(tmp_path / "x.npy", np.ones((4, 6)))
        w = _write_features(tmp_path / "w.npy", [[np.nan, 1.0]] * 4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "sinkhorn-otk", "epsilon": 0.5, "weights": {"anchors": w}}))
        line = _cli_error(["pool", "--input", x, "--config", str(cfg)], 3)
        assert line == "error: otk_pool: weights 'anchors' contain non-finite entries\n"

    @pytest.mark.parametrize("method", ["se", "cbam"])
    def test_indivisible_d_exit_1(self, tmp_path, method):
        x = _write_features(tmp_path / "x.npy", np.ones((6, 4)))
        assert "not divisible" in _cli_error(["pool", "--input", x, "--method", method], 1)

    @pytest.mark.parametrize("flags, reason", [
        (["--method", "sinkhorn-otk", "--k", "100"], "cannot sample 100 distinct columns"),
        (["--method", "gap", "--width", "0"], "width must be >= 1"),
        (["--method", "gap", "--height", "0"], "height must be >= 1"),
        (["--method", "slot", "--seed", "-1"], "seed must be >= 0"),
    ], ids=["otk-k-above-p", "width-0", "height-0", "negative-seed"])
    def test_out_of_range_flag_exit_1(self, tmp_path, flags, reason):
        x = _write_features(tmp_path / "x.npy", np.ones((16, 12)))
        assert reason in _cli_error(["pool", "--input", x, *flags], 1)

    @pytest.mark.parametrize("flags, asked", [
        (["--width", "5"], "requested width 5"),
        (["--width", "4", "--height", "2"], "requested width 4, height 2"),
    ], ids=["width-only", "both-sides"])
    def test_grid_conflicting_with_3d_shape_exit_1(self, tmp_path, flags, asked):
        # only the requested sides are named: an unset side is not printed as None
        x = _write_features(tmp_path / "x.npy", np.ones((6, 3, 4)))
        line = _cli_error(["pool", "--input", x, "--method", "how", *flags], 1)
        assert f"3-d shape (6, 3, 4) conflicts with {asked}" in line and "None" not in line

    def test_heads_not_dividing_d_exit_1(self, tmp_path):
        x = _write_features(tmp_path / "x.npy", np.ones((12, 4)))
        assert "heads m=5 do not divide d=12" in _cli_error(
            ["pool", "--input", x, "--method", "vit", "--heads", "5"], 1)

    @pytest.mark.parametrize("method", ["slot", "simpool", "kmeans"])
    def test_large_features_exit_0(self, tmp_path, capsys, method):
        # LayerNorm and k-means scale by a power of two before squaring: no
        # variance or squared distance overflows, and no RuntimeWarning
        x = _write_features(tmp_path / "x.npy", 1e200 * np.random.default_rng(0).normal(size=(8, 12)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["pool", "--input", x, "--method", method, "--k", "2"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", ["simpool", "cbam"])
    def test_features_whose_sum_overflows_exit_cleanly(self, tmp_path, method):
        # entries up to 1.5e307 have a GAP in range but a sum over 196 columns past it: SimPool's
        # start is the GAP of x 2^-e scaled back, and CBAM's averages are products with 1/p or 1/d
        x = np.random.default_rng(0).uniform(0.0, 1.5e307, size=(16, 196))
        out = tmp_path / "u.npy"
        argv = ["pool", "--input", _write_features(tmp_path / "x.npy", x), "--method", method,
                "--width", "14", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "poolkit.cli", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        u = read_npy(out)[0]
        assert np.all(np.isfinite(u)) and np.abs(u).max() <= np.abs(x).max()

    @pytest.mark.parametrize("method, reason", [
        ("vit", "col_softmax: non-finite input"), ("cait", "col_softmax: non-finite input"),
        ("sinkhorn-otk", "squared distance overflows"),
    ])
    def test_overflowing_features_exit_3(self, tmp_path, method, reason):
        # attention scores or squared distances overflow: one error line, no RuntimeWarning
        x = _write_features(tmp_path / "x.npy", 1e200 * np.random.default_rng(0).normal(size=(8, 12)))
        assert reason in _cli_error(["pool", "--input", x, "--method", method, "--k", "2"], 3)

    @pytest.mark.parametrize("scale", [1e100, 1e-80])
    def test_how_is_scale_invariant_at_large_and_small_magnitudes(self, tmp_path, capsys, scale):
        # the norm of how's pooled vector overflows at 1e100 and underflows at
        # 1e-80 unless l2_normalize rescales it first
        x = np.abs(np.random.default_rng(0).normal(size=(8, 12))) + 0.1
        outs = []
        for s in (1.0, scale):
            out = tmp_path / f"u{s}.npy"
            argv = ["pool", "--input", _write_features(tmp_path / f"x{s}.npy", s * x),
                    "--method", "how", "--width", "4", "--height", "3", "--out", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0
            outs.append(read_npy(out)[0])
        assert capsys.readouterr().err == ""
        assert np.max(np.abs(outs[1] - outs[0])) <= 1e-15

    def test_non_finite_output_exit_3(self, tmp_path, capsys):
        # r * v overflows to inf, and the max-factored sum turns it into NaN
        x = _write_features(tmp_path / "x.npy", np.full((4, 6), 2.0))
        assert main(["pool", "--input", x, "--method", "lse", "--r", "1e308"]) == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error: PooledSet: non-finite")


HUGE = str(10 ** 15)


@pytest.mark.parametrize("argv", [
    ["pool", "--method", "slot", "--k", HUGE], ["pool", "--method", "vit", "--iters", HUGE],
    ["tournament", "--d", HUGE], ["gradcheck", "--trials", "1", "--d", HUGE]],
    ids=["slot_k", "vit_iters", "tournament_d", "gradcheck_d"])
def test_an_unallocatable_size_exit_1(tmp_path, argv):
    """Petabytes, past any process's address space: the allocation fails with nothing
    touched, and a MemoryError, with or without text, is one nonempty ``error:`` line."""
    if argv[0] == "pool":
        argv = [*argv, "--input", _write_features(tmp_path / "vits.npy", np.ones((384, 196)))]
    assert _cli_error(argv, 1).strip() != "error:"


def _flag_args(flags):
    return [tok for name, val in flags.items() for tok in (f"--{name}", str(val))]


def _main_cleanly(argv):
    """Run ``poolkit`` in-process; it must end with exit 0-3, and unless 0
    with its ``error:`` message as the last stderr line, never a traceback.
    Returns the exit code, stdout and the last stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    last = (err.getvalue().splitlines() or [""])[-1]
    if code != 0:
        assert last.startswith("error:")
        assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), last


P = 12  # columns of the feature map the property test pools
INT_FIELDS = {name: st.integers(-2, 2 * P) for name in ("k", "heads", "seed", "width", "height")}
INT_FIELDS["iters"] = st.integers(-2, 5)  # keeps the valid runs fast
FLOAT_FIELDS = dict.fromkeys(("gamma", "epsilon", "r"),
                             st.sampled_from([0.0, -1.0, 1e-300, 1e308, np.nan, np.inf]))
WRONG_TYPES = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.just([1]),
                        st.just({"k": 1}), st.just(2.5))


@pytest.fixture(scope="module")
def pool_files(tmp_path_factory):
    """A 16 x 12 feature file, and paths for a config and an output beside it."""
    root = tmp_path_factory.mktemp("pool")
    x = _write_features(root / "x.npy", np.random.default_rng(0).uniform(0.1, 3.0, (16, P)))
    return x, root / "cfg.json", root / "u.npy"


@settings(max_examples=150, deadline=None)
@given(flags=st.fixed_dictionaries({}, optional={"method": st.sampled_from(list(METHODS)),
                                                **INT_FIELDS, **FLOAT_FIELDS}),
       config=st.none() | st.fixed_dictionaries({}, optional={
           name: strategy | WRONG_TYPES for name, strategy in {
               **INT_FIELDS, **FLOAT_FIELDS, "method": st.sampled_from(list(METHODS)),
               "family": st.sampled_from(["conv", "transformer"]), "weights": st.just({}),
           }.items()}))
@example(flags={"method": "sinkhorn-otk", "k": 2 * P}, config=None)
@example(flags={"method": "gap", "width": 0}, config=None)
@example(flags={"method": "slot", "seed": -1}, config=None)
@example(flags={"method": "lse", "r": 1e308}, config=None)
@example(flags={"method": "sinkhorn-otk", "k": 1, "epsilon": 1e-300}, config=None)
@example(flags={}, config={"method": [1]})
def test_pool_exits_cleanly_on_any_flags_and_config(pool_files, flags, config):
    """`poolkit pool` ends with exit 0-3: 0 with a finite output, otherwise
    with its ``error:`` message as the last stderr line, never a traceback."""
    x, cfg, out = pool_files
    argv = ["pool", "--input", x, "--out", str(out)]
    if config is not None:
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    if _main_cleanly(argv + _flag_args(flags))[0] == 0:
        assert np.all(np.isfinite(read_npy(out)[0]))


FLAG_FLOORS = {"seed": 0, "d": 1, "p": 1, "k-clusters": 1, "trials": 1}
# Sizes are always drawn, small, so that no run falls back to the default sizes.
SIZE_FLAGS = {"d": st.integers(-1, 6), "p": st.integers(-1, 8), "trials": st.integers(-1, 2)}
EDGE_FLOATS = (0.0, -1.0, np.nan, np.inf)
RUN_COMMANDS = st.one_of(
    st.tuples(st.just("gradcheck"), st.fixed_dictionaries(SIZE_FLAGS, optional={
        "seed": st.integers(-2, 3),
        "gamma": st.sampled_from((0.5, 2.0, 100.0, 101.0) + EDGE_FLOATS),
        "h": st.sampled_from((1e-4, 1e-2, 1e-9) + EDGE_FLOATS),
        "tol": st.sampled_from((1e-5, 1e-12) + EDGE_FLOATS)})),
    st.tuples(st.just("tournament"), st.fixed_dictionaries(SIZE_FLAGS, optional={
        "seed": st.integers(-2, 3),
        "k-clusters": st.integers(-1, 10),
        "methods": st.lists(st.sampled_from(list(METHODS)), min_size=1, max_size=4,
                            unique=True).map(",".join)})))


@settings(max_examples=100, deadline=None)
@given(command=RUN_COMMANDS)
@example(command=("tournament", {"d": 4, "p": 8, "trials": 1, "seed": -1}))
@example(command=("tournament", {"d": 4, "p": 8, "trials": 1, "k-clusters": 0}))
@example(command=("tournament", {"d": 4, "p": 0, "trials": 1}))
@example(command=("tournament", {"d": 4, "p": 8, "trials": -1}))
@example(command=("gradcheck", {"d": 4, "p": 8, "trials": 1, "seed": -1}))
@example(command=("gradcheck", {"d": 4, "p": 8, "trials": 0}))
def test_tournament_and_gradcheck_exit_cleanly_on_any_flags(command):
    """`poolkit gradcheck` and `poolkit tournament` end with exit 0-3 and an
    ``error:`` line, never a traceback; a seed below 0 or a size below 1
    exits 1 naming its flag, and exit 0 means every trial was reported."""
    name, flags = command
    code, out, last = _main_cleanly([name] + _flag_args(flags))
    low = [flag for flag, floor in FLAG_FLOORS.items() if flags.get(flag, floor) < floor]
    if low:
        assert code == 1 and any(last.startswith(f"error: --{flag} must be >= ") for flag in low)
    elif code == 0:
        rows = out.splitlines()[1:]
        per_trial = (len(flags.get("methods", ",".join(METHODS)).split(","))
                     if name == "tournament" else 3)  # gradcheck: W_Q, W_K and X
        assert len(rows) == flags["trials"] * per_trial



ATTN_VALUES = st.one_of(st.floats(0.0, 10.0),
                        st.sampled_from([0.0, -1.0, 1e308, np.nan, np.inf, -np.inf]))


@st.composite
def attn_runs(draw):
    """Grid sizes from -2 up, and an attention file that often fills the grid:
    drawn entries with NaN, inf, negative and 1e308 ones among them, or all
    zeros."""
    width, height = draw(st.integers(-2, 4)), draw(st.integers(-2, 4))
    n = width * height if width * height >= 1 and draw(st.booleans()) else draw(st.integers(1, 12))
    values = draw(st.one_of(st.lists(ATTN_VALUES, min_size=n, max_size=n).map(np.array),
                            st.just(np.zeros(n))))
    return width, height, values


@pytest.fixture(scope="module")
def attn_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("attnmap")
    return root / "a.npy", root / "grid.pgm", root / "mask.pgm"


@settings(max_examples=150, deadline=None)
@given(run=attn_runs(), mass=st.sampled_from((0.6, 1.0, 1e-300, 1.5) + EDGE_FLOATS),
       bbox=st.booleans(), pgm=st.booleans())
@example(run=(-2, -3, np.arange(6.0)), mass=0.6, bbox=False, pgm=False)
@example(run=(3, 2, np.array([1.0, 1.0, np.nan, 1.0, 1.0, 1.0])), mass=0.6, bbox=True, pgm=True)
def test_attnmap_exits_cleanly_on_any_flags_and_attention(attn_files, run, mass, bbox, pgm):
    """`poolkit attnmap` ends with exit 0-3 and an ``error:`` line, never a
    traceback or a NumPy warning: a size below 1 exits 1, and a non-finite
    entry in a file that fits the grid exits 3."""
    width, height, values = run
    attn, grid, mask = attn_files
    _write_features(attn, values.reshape(1, -1))
    for out in (grid, mask):
        out.unlink(missing_ok=True)
    argv = ["attnmap", "--attn", str(attn), "--width", str(width), "--height", str(height),
            "--mass", str(mass)]
    argv += ["--bbox"] * bbox + ["--pgm", str(grid), "--mask-pgm", str(mask)] * pgm
    code, out, last = _main_cleanly(argv)
    if width < 1 or height < 1:
        assert code == 1 and last.startswith("error: reshape_attention: ")
    elif width * height == values.size and not np.all(np.isfinite(values)):
        assert code == 3 and last.startswith("error: AttnGrid values: ")
    if code == 0:
        assert out.count("\n") == 1 and grid.exists() == mask.exists() == pgm


@pytest.mark.parametrize("case", PARSER_OUTPUTS, ids=lambda case: " ".join(case["argv"]))
def test_help_and_usage_errors_are_unchanged(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(case["argv"])
    assert exit_.value.code == case["exit"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


class TestCmdAttnmap:
    def test_bbox_output(self, tmp_path, capsys):
        a = np.zeros(12)
        a[5] = 1.0  # grid 4x3, cell (x=1, y=1)
        path = _write_features(tmp_path / "a.npy", a.reshape(1, -1))
        code = main(["attnmap", "--attn", path, "--width", "4", "--height", "3",
                     "--bbox"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1 1 1 1"

    def test_pgm_outputs(self, tmp_path, capsys):
        a = np.array([[0.0, 1.0, 2.0, 3.0]])
        path = _write_features(tmp_path / "a.npy", a)
        pgm = tmp_path / "grid.pgm"
        mask_pgm = tmp_path / "mask.pgm"
        code = main(["attnmap", "--attn", path, "--width", "2", "--height", "2",
                     "--pgm", str(pgm), "--mask-pgm", str(mask_pgm)])
        assert code == 0
        assert pgm.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])
        assert mask_pgm.read_bytes().startswith(b"P5\n2 2\n255\n")

    def test_negative_sizes_exit_1(self, tmp_path, capsys):
        # -2 x -3 holds the file's 6 entries, so only the sign can reject it
        path = _write_features(tmp_path / "a.npy", np.arange(6.0).reshape(1, -1))
        assert main(["attnmap", "--attn", path, "--width", "-2", "--height", "-3"]) == 1
        assert capsys.readouterr().err == "error: reshape_attention: 6 values for -2x-3 grid\n"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_attention_exit_3(self, tmp_path, capsys, bad):
        a = np.ones((1, 6))
        a[0, 2] = bad
        path = _write_features(tmp_path / "a.npy", a)
        pgm = tmp_path / "grid.pgm"
        code = main(["attnmap", "--attn", path, "--width", "3", "--height", "2", "--bbox",
                     "--pgm", str(pgm)])
        assert code == 3 and not pgm.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: AttnGrid values: ")


class TestCmdGradcheck:
    def test_defaults_pass(self, capsys):
        code = main(["gradcheck", "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "W_Q[0]" in out and "FAIL" not in out

    def test_impossible_tolerance_exit_3(self, capsys):
        code = main(["gradcheck", "--trials", "1", "--tol", "1e-12"])
        assert code == 3

    def test_d1_exit_1(self, capsys):
        code = main(["gradcheck", "--d", "1", "--trials", "1"])
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        # nan, -1 and 0 fail every check and inf passes every one: a bad flag, not a result
        code = main(["gradcheck", "--trials", "1", "--tol", tol])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: --tol must be finite and > 0")


class TestCmdTournament:
    def test_all_methods_smoke(self, tmp_path):
        out = tmp_path / "report.tsv"
        code = main(["tournament", "--d", "16", "--p", "64", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method\ttrial\tnorm\tdistortion\tentropy"
        assert len(lines) == 1 + 13

    def test_gap_distortion_matches_analytic(self, tmp_path):
        out = tmp_path / "report.tsv"
        code = main(["tournament", "--d", "8", "--p", "32", "--seed", "3",
                     "--methods", "gap", "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().split("\n")[1].split("\t")
        from poolkit.tournament import _synthesize_features
        fm = _synthesize_features(8, 32, 4, 3)
        expected = kmeans_distortion(fm.x, gap(fm)[:, None])
        np.testing.assert_allclose(float(row[3]), expected, rtol=1e-10)

    def test_fixed_seed_identical_tsv(self, tmp_path):
        reports = []
        for name in ("r1.tsv", "r2.tsv"):
            out = tmp_path / name
            code = main(["tournament", "--d", "8", "--p", "16", "--seed", "5",
                         "--methods", "gap,gem,simpool,kmeans", "--out", str(out)])
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_stdout_is_only_the_deterministic_tsv(self, capsys):
        argv = ["tournament", "--d", "8", "--p", "16", "--seed", "5",
                "--methods", "gap,gem,simpool,kmeans"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert "# gap:" in captured.err
            outs.append(captured.out)
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert lines[0] == "method\ttrial\tnorm\tdistortion\tentropy"
        assert len(lines) == 1 + 4
        assert all(len(line.split("\t")) == 5 for line in lines)

    def test_one_location_entropy_prints_0(self, capsys):
        # a one-location attention has entropy 0, printed without a minus sign
        assert main(["tournament", "--d", "4", "--p", "1", "--k-clusters", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split("\t")[4] for row in rows] == ["0"] * len(METHODS)

    def test_entropy_of_a_zero_mass_attention_is_nan(self):
        # no distribution to normalize: the entropy column reads nan, not a division by zero
        pooled = PooledSet(np.ones((2, 1)), AttentionMatrix(np.zeros((3, 1))))
        assert np.isnan(_attention_entropy(pooled))

    def test_unknown_method_exit_1(self, capsys):
        code = main(["tournament", "--methods", "gap,unknown"])
        assert code == 1

    @pytest.mark.parametrize("flags, failing, code", [
        (["--d", "1"], "se", 1),  # SeWeights: d not divisible by the reduction 4
        (["--d", "1", "--p", "1"], "how", 3),  # how: all-zero shifted features
    ], ids=["se-d1", "how-p1"])
    def test_method_error_keeps_the_rows_that_ran(self, capsys, flags, failing, code):
        assert main(["tournament", *flags, "--methods", "gap"]) == 0
        gap_only = capsys.readouterr().out
        assert main(["tournament", *flags, "--methods", f"gap,{failing}"]) == code
        captured = capsys.readouterr()
        assert captured.out == gap_only
        assert "# gap:" in captured.err
        assert captured.err.splitlines()[-1].startswith(f"error: {failing}: ")


class TestCmdInspect:
    def test_prints_header(self, tmp_path, capsys):
        path = _write_features(tmp_path / "x.npy", np.zeros((3, 4)))
        code = main(["inspect", "--input", path])
        assert code == 0
        out = capsys.readouterr().out
        assert "dtype=<f8" in out and "shape=(3, 4)" in out

    def test_reads_stdin_pipe(self, tmp_path):
        write_npy(np.zeros((3, 4)), tmp_path / "x.npy")
        proc = subprocess.run([sys.executable, "-m", "poolkit.cli", "inspect", "--input",
                               "/dev/stdin"], input=(tmp_path / "x.npy").read_bytes(),
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert b"shape=(3, 4)" in proc.stdout

    @pytest.mark.parametrize("header", [
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2.5,), }\n",
        "{'descr': '<f8', 'fortran_order': False, 'shape': ('a',), }\n",
        "{'descr': '<f8', 'fortran_order': False, 'shape': (-1, 2), }\n",
        "{'descr': '<f8', 'fortran_order': False, 'shape': (True, 2), }\n",
        "{'descr': '<f8', 'fortran_order': 'no', 'shape': (2,), }\n",
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2,), 'extra': 1, }\n",
        "-" * 4000 + "1\n",  # RecursionError in ast.literal_eval
    ], ids=["float-dim", "str-dim", "negative-dim", "bool-dim", "fortran-str", "extra-key",
         "deep-unary"])
    def test_malformed_header_exit_2(self, tmp_path, header):
        header = header.encode("latin1")
        path = tmp_path / "probe.npy"
        path.write_bytes(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header
                         + bytes(16))
        _cli_error(["inspect", "--input", str(path)], 2)
