import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from poolkit.cli import _config_from_args, build_parser, main
from poolkit.cluster_poolers import kmeans_distortion, otk_pool
from poolkit.framework import FeatureMap
from poolkit.simple_poolers import HowConfig, gap, how
from poolkit.tensor_io import read_npy, write_npy


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

    @pytest.mark.parametrize("method", ["se", "cbam"])
    def test_indivisible_d_exit_1(self, tmp_path, method):
        x = _write_features(tmp_path / "x.npy", np.ones((6, 4)))
        assert "not divisible" in _cli_error(["pool", "--input", x, "--method", method], 1)


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
        from poolkit.cli import _synthesize_features
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

    def test_unknown_method_exit_1(self, capsys):
        code = main(["tournament", "--methods", "gap,unknown"])
        assert code == 1


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
        "{'descr': '<f8', 'fortran_order': 'no', 'shape': (2,), }\n",
        "{'descr': '<f8', 'fortran_order': False, 'shape': (2,), 'extra': 1, }\n",
        "-" * 4000 + "1\n",  # RecursionError in ast.literal_eval
    ], ids=["float-dim", "str-dim", "negative-dim", "fortran-str", "extra-key", "deep-unary"])
    def test_malformed_header_exit_2(self, tmp_path, header):
        header = header.encode("latin1")
        path = tmp_path / "probe.npy"
        path.write_bytes(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header
                         + bytes(16))
        _cli_error(["inspect", "--input", str(path)], 2)
