import errno
import json
import math
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolkit.attnmap import write_pgm
from poolkit.cli import main
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


def _npy_error(path) -> str:
    """read_npy's FileFormatError message without its "<path>: " prefix, which
    would let a match succeed on the test's own directory name."""
    with pytest.raises(FileFormatError) as info:
        read_npy(path)
    prefix = f"{path}: "
    assert str(info.value).startswith(prefix)
    return str(info.value)[len(prefix):]


class TestNpyErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"NOTNPY??" + bytes(32))
        assert "magic" in _npy_error(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v2.npy"
        good = tmp_path / "good.npy"
        write_npy(np.zeros((1, 1)), good)
        raw = bytearray(good.read_bytes())
        raw[6] = 2
        path.write_bytes(bytes(raw))
        assert "version" in _npy_error(path)

    def test_fortran_order_rejected(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.arange(6.0).reshape(2, 3)))
        assert "fortran" in _npy_error(path)

    def test_int_dtype_rejected(self, tmp_path):
        path = tmp_path / "i.npy"
        np.save(path, np.arange(6).reshape(2, 3))
        assert "dtype" in _npy_error(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.npy"
        write_npy(np.zeros((2, 3)), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        assert "truncated" in _npy_error(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.npy"
        write_npy(np.zeros((2, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        assert "trailing" in _npy_error(path)


def _npy_bytes(header: str, payload: bytes = b"") -> bytes:
    """An NPY v1.0 file with the given header text, byte for byte."""
    raw = header.encode("latin1")
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(raw)) + raw + payload


def _raw_npy(path, header: str, payload: bytes = b"") -> None:
    path.write_bytes(_npy_bytes(header, payload))


def _fifo(tmp_path, data: bytes):
    """A named pipe that a thread fills with ``data`` once a reader opens it."""
    path = tmp_path / "pipe.npy"
    os.mkfifo(path)

    def feed():
        try:
            with path.open("wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    threading.Thread(target=feed, daemon=True).start()
    return path


_F8_HEADER = "{'descr': '<f8', 'fortran_order': False, 'shape': %s, }\n"


class TestNpyPipe:
    """read_npy reads a pipe as it reads a file, up to one byte past the claim."""

    def test_round_trip_over_one_chunk(self, tmp_path):
        arr = np.random.default_rng(3).normal(size=(300, 500))  # 1.2 MB, over one 1 MiB read
        write_npy(arr, tmp_path / "a.npy")
        back, header = read_npy(_fifo(tmp_path, (tmp_path / "a.npy").read_bytes()))
        assert back.tobytes() == arr.tobytes() and header.shape == (300, 500)

    def test_truncated_payload(self, tmp_path):
        write_npy(np.zeros((2, 3)), tmp_path / "t.npy")
        fifo = _fifo(tmp_path, (tmp_path / "t.npy").read_bytes()[:-8])
        assert _npy_error(fifo) == "truncated payload (40 of 48 bytes)"

    def test_trailing_bytes(self, tmp_path):
        write_npy(np.zeros((2, 3)), tmp_path / "x.npy")
        fifo = _fifo(tmp_path, (tmp_path / "x.npy").read_bytes() + b"\x00")
        assert _npy_error(fifo) == "trailing bytes after payload"


class TestNpyBoundary:
    @pytest.mark.parametrize("header", [
        _F8_HEADER % "(2,",                                # unterminated: NumPy's Python 2 fallback
        "{'descr': (), 'fortran_order': False, 'shape': (2,), }\n",  # IndexError inside NumPy
        "x\n  y\n z\n",                                  # IndentationError from that fallback
        "-" * 9000 + "1\n",                              # parser nesting depth
        "-" * 4000 + "1\n",                              # RecursionError in ast.literal_eval
        _F8_HEADER % "(2,)" + " " * 10000,                 # over NumPy's header size limit
        "[1, 2]\n",
    ], ids=["unterminated", "empty-descr", "indent", "deep-unary", "deep-unary-recursion",
            "oversize", "not-a-dict"])
    def test_hostile_header_one_line_error(self, tmp_path, header):
        path = tmp_path / "h.npy"
        _raw_npy(path, header, bytes(16))
        assert "\n" not in _npy_error(path)

    def test_huge_claim_rejected_without_allocating(self, tmp_path):
        path = tmp_path / "huge.npy"
        _raw_npy(path, _F8_HEADER % "(1099511627776, 1099511627776)", bytes(16))
        assert _npy_error(path).startswith("truncated payload (16 of ")

    def test_pipe_huge_claim_rejected(self, tmp_path):
        fifo = _fifo(tmp_path, _npy_bytes(_F8_HEADER % "(1099511627776, 1099511627776)",
                                          bytes(16)))
        assert _npy_error(fifo).startswith("truncated payload (16 of ")

    @settings(max_examples=200, deadline=None)
    @example(descr="<f8", fortran_order=False, shape=[-1, -2], extra={}, slack=0)
    @example(descr="<f8", fortran_order=False, shape=[0, -1], extra={}, slack=0)
    @example(descr="<f8", fortran_order=False, shape=[True, 2], extra={}, slack=0)
    @given(
        descr=st.sampled_from(["<f8", "<f4", ">f8", "<i8", 3]),
        fortran_order=st.sampled_from([False, True, "no", 0]),
        shape=st.lists(st.one_of(st.integers(-2, 6), st.just(2.5), st.just("a"), st.just(True)),
                       max_size=4),
        extra=st.dictionaries(st.sampled_from(["x", "version"]), st.integers(0, 3), max_size=2),
        slack=st.integers(-16, 16),
    )
    def test_reads_claimed_array_or_rejects(self, tmp_path_factory, descr, fortran_order, shape,
                                            extra, slack):
        shape = tuple(shape)
        itemsize = 4 if descr == "<f4" else 8
        # the size the dims claim, negative ones included: (-1, -2) claims 16 bytes
        claim = itemsize * math.prod(s for s in shape if isinstance(s, int))
        payload = (bytes(range(256)) * 64)[:max(0, claim + slack)]
        meta = {"descr": descr, "fortran_order": fortran_order, "shape": shape, **extra}
        path = tmp_path_factory.getbasetemp() / "drawn.npy"
        _raw_npy(path, repr(meta) + "\n", payload)

        valid = (descr in ("<f8", "<f4") and fortran_order is False and not extra
                 and 1 <= len(shape) <= 3 and all(type(s) is int and s >= 0 for s in shape)
                 and len(payload) == itemsize * math.prod(shape))
        if not valid:
            _npy_error(path)
            return
        arr, header = read_npy(path)
        assert arr.dtype == np.float64 and arr.shape == shape == header.shape
        np.testing.assert_array_equal(arr, np.frombuffer(payload, dtype=descr).reshape(shape))


class TestNpyHeader:
    @settings(max_examples=100, deadline=None)
    @example(dtype=np.float32, shape=[0, 1099511627776, 3])
    @given(dtype=st.sampled_from([np.float64, np.float32]),
           shape=st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2**20)),
                          min_size=1, max_size=3))
    def test_parses_every_header_np_save_writes_as_numpy_does(self, tmp_path_factory, dtype,
                                                              shape):
        if math.prod(shape) > 64:
            shape[0] = 0  # zero-size: long dimensions in the header, no payload
        path = tmp_path_factory.getbasetemp() / "saved.npy"
        np.save(path, np.zeros(shape, dtype=dtype))
        with path.open("rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            want, fortran_order, descr = np.lib.format.read_array_header_1_0(fh)
        arr, header = read_npy(path)
        assert (header.dtype, header.fortran_order, header.shape) == (descr.str, fortran_order,
                                                                      want)
        assert arr.shape == want and arr.dtype == np.float64

    @pytest.mark.parametrize("descr", ["<f8", "<f4"])
    def test_zero_size_beyond_the_array_limit_rejected(self, tmp_path, descr):
        # no payload is claimed, but NumPy cannot form the shape
        path = tmp_path / "z.npy"
        _raw_npy(path, _F8_HEADER.replace("<f8", descr) % "(0, 1099511627776, 1099511627776)")
        assert _npy_error(path) == "shape (0, 1099511627776, 1099511627776) is too big for an array"


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

    def test_1d_is_one_channel(self, tmp_path, capsys):
        path = tmp_path / "fm1.npy"
        write_npy(np.arange(1.0, 7.0), path)
        fm = load_feature_map(path)
        assert (fm.d, fm.p, fm.width, fm.height) == (1, 6, 6, 1)
        assert fm.x.tobytes() == np.arange(1.0, 7.0).tobytes()
        fm = load_feature_map(path, width=3)
        assert (fm.d, fm.width, fm.height) == (1, 3, 2)
        out = tmp_path / "u.npy"
        assert main(["pool", "--input", str(path), "--method", "gap", "--width", "3",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == "method=gap input d=1 p=6 grid=3x2 -> pooled 1x1\n"
        assert read_npy(out)[0].tolist() == [[3.5]]


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

    @pytest.mark.parametrize("raw", [
        {"method": "how", "weights": {"projecton": "p.npy"}},
        {"method": "simpool", "weights": {"w_q": "q.npy"}},
        {"method": "sinkhorn-otk", "weights": {"anchors": "a.npy", "centering": "c.npy"}},
    ])
    def test_unread_weight_role_rejected(self, raw):
        with pytest.raises(ConfigError, match="does not read weights"):
            config_from_dict(raw)

    def test_read_weight_roles_accepted(self):
        roles = {"centering": "c.npy", "projection": "p.npy"}
        assert config_from_dict({"method": "how", "weights": roles}).weights == roles
        anchors = {"anchors": "a.npy"}
        assert config_from_dict({"method": "sinkhorn-otk", "weights": anchors}).weights == anchors

    def test_numeric_fields_accept_numbers(self):
        cfg = config_from_dict({"k": 3, "gamma": 2, "epsilon": 0.5, "width": None})
        assert (cfg.k, cfg.gamma, cfg.epsilon) == (3, 2, 0.5)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(method="meanpool")

    def test_unhashable_method_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown method \[1\]"):
            config_from_dict({"method": [1]})

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


# name: (a call given a scratch directory, the exact error class, its message, where {tmp} is that
# directory and {enoent} the text of a missing file's error); one row per error raise that no other
# in-process test reaches
ERROR_PATHS = {
    "write_pgm": (lambda tmp: write_pgm([[0.0, 1.0]], tmp / "absent" / "a.pgm"), OSError,
                  "write_pgm: cannot write {tmp}/absent/a.pgm: {enoent}: '{tmp}/absent/a.pgm'"),
    "write_npy": (lambda tmp: write_npy(np.ones(2), tmp / "absent" / "a.npy"), OSError,
                  "write_npy: cannot write {tmp}/absent/a.npy: {enoent}: '{tmp}/absent/a.npy'"),
    "load_config": (lambda tmp: load_config(tmp / "absent.json"), OSError,
                    "load_config: cannot read {tmp}/absent.json: {enoent}: '{tmp}/absent.json'"),
    "npy_header_eof": (  # the header claims 100 bytes and holds 8
        lambda tmp: read_npy(_written(tmp / "cut.npy", b"\x93NUMPY\x01\x00\x64\x00{'descr'")),
        FileFormatError, "{tmp}/cut.npy: EOF reading header (8 of 100 bytes)"),
    "family": (lambda tmp: RunConfig(family="cnn"), ConfigError,
               "family must be 'conv' or 'transformer', got 'cnn'"),
    "top_level": (lambda tmp: config_from_dict([1]), ConfigError, "config: top level must be an object"),
}


def _written(path, data: bytes):
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("name", ERROR_PATHS)
def test_error_paths_raise_their_class_and_one_line(tmp_path, name):
    call, error, message = ERROR_PATHS[name]
    with pytest.raises(Exception) as raised:
        call(tmp_path)
    assert type(raised.value) is error
    enoent = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
    assert str(raised.value) == message.format(tmp=tmp_path, enoent=enoent)
