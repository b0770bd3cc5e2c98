import json

import numpy as np
import pytest

from poolkit.errors import ConfigError, FileFormatError
from poolkit.tensor_io import (
    RunConfig,
    config_from_dict,
    load_config,
    load_feature_map,
    read_npy,
    write_npy,
)


class TestNpyRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(45)
        arr = rng.normal(size=(3, 4))
        path = tmp_path / "a.npy"
        write_npy(arr, path)
        back, header = read_npy(path)
        assert back.tobytes() == arr.tobytes()
        assert header.dtype == "<f8"
        assert header.shape == (3, 4)

    def test_matches_numpy_writer(self, tmp_path):
        arr = np.arange(6.0).reshape(2, 3)
        ours = tmp_path / "ours.npy"
        theirs = tmp_path / "theirs.npy"
        write_npy(arr, ours)
        np.save(theirs, arr)
        assert ours.read_bytes() == theirs.read_bytes()

    def test_header_body(self, tmp_path):
        path = tmp_path / "h.npy"
        write_npy(np.zeros((2, 3)), path)
        raw = path.read_bytes()
        assert raw[:6] == b"\x93NUMPY"
        assert raw[6:8] == b"\x01\x00"
        header = raw[10 : 10 + int.from_bytes(raw[8:10], "little")]
        assert header.startswith(
            b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), }"
        )
        assert header.endswith(b"\n")
        assert (10 + len(header)) % 64 == 0

    def test_f4_widened(self, tmp_path):
        path = tmp_path / "f4.npy"
        np.save(path, np.array([[1.5, 2.5]], dtype=np.float32))
        arr, header = read_npy(path)
        assert header.dtype == "<f4"
        assert arr.dtype == np.float64
        np.testing.assert_array_equal(arr, [[1.5, 2.5]])

    def test_rank_three_allowed(self, tmp_path):
        path = tmp_path / "r3.npy"
        np.save(path, np.zeros((2, 3, 4)))
        arr, _ = read_npy(path)
        assert arr.shape == (2, 3, 4)


class TestNpyErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"NOTNPY??" + bytes(32))
        with pytest.raises(FileFormatError, match="magic"):
            read_npy(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v2.npy"
        good = tmp_path / "good.npy"
        write_npy(np.zeros((1, 1)), good)
        raw = bytearray(good.read_bytes())
        raw[6] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="version"):
            read_npy(path)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.arange(6.0).reshape(2, 3)))
        with pytest.raises(FileFormatError, match="fortran"):
            read_npy(path)

    def test_int_dtype_rejected(self, tmp_path):
        path = tmp_path / "i.npy"
        np.save(path, np.arange(6).reshape(2, 3))
        with pytest.raises(FileFormatError, match="dtype"):
            read_npy(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.npy"
        write_npy(np.zeros((2, 3)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FileFormatError, match="truncated"):
            read_npy(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.npy"
        write_npy(np.zeros((2, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError, match="trailing"):
            read_npy(path)


class TestLoadFeatureMap:
    def test_2d_default_grid(self, tmp_path):
        path = tmp_path / "fm.npy"
        write_npy(np.arange(6.0).reshape(2, 3), path)
        fm = load_feature_map(path)
        assert (fm.d, fm.p, fm.width, fm.height) == (2, 3, 3, 1)

    def test_3d_flattening(self, tmp_path):
        path = tmp_path / "fm3.npy"
        arr = np.arange(24.0).reshape(2, 3, 4)  # (d, H, W)
        np.save(path, arr)
        fm = load_feature_map(path)
        assert (fm.d, fm.width, fm.height) == (2, 4, 3)
        np.testing.assert_array_equal(fm.x[0].reshape(3, 4), arr[0])


class TestRunConfig:
    def test_empty_object_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.method == "simpool"
        assert cfg.resolved_gamma == 2.0

    def test_transformer_family_gamma(self):
        cfg = config_from_dict({"method": "simpool", "family": "transformer"})
        assert cfg.resolved_gamma == 1.25

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"gamma": -1.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"gamm": 2.0})

    @pytest.mark.parametrize("raw", [
        {"k": "3"}, {"k": 2.0}, {"iters": True}, {"seed": None}, {"width": 1.5},
        {"gamma": "2"}, {"epsilon": False}, {"r": float("nan")}, {"heads": "2"},
        {"weights": ["a"]}, {"weights": {"anchors": 1}}, {"height": 2.5},
    ])
    def test_field_types_checked(self, raw):
        with pytest.raises(ConfigError, match=f"^{next(iter(raw))} must"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key", ["input", "output", "attention_output", "mass"])
    def test_unread_keys_rejected(self, key):
        # paths come from the command line and the mass from attnmap's flag
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            config_from_dict({key: 0.5})

    def test_numeric_fields_accept_numbers(self):
        cfg = config_from_dict({"k": 3, "gamma": 2, "epsilon": 0.5, "width": None})
        assert (cfg.k, cfg.gamma, cfg.epsilon) == (3, 2, 0.5)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(method="meanpool")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_json_round_trip_of_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"method": "gem", "gamma": 3.0, "seed": 5}))
        cfg = load_config(path)
        assert (cfg.method, cfg.gamma, cfg.seed) == ("gem", 3.0, 5)
