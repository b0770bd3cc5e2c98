import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolkit import matcore
from poolkit.cli import main, run_method
from poolkit.errors import ContractError, ShapeError
from poolkit.framework import FeatureMap
from poolkit.matcore import col_softmax
from poolkit.nncells import MlpWeights, mlp2
from poolkit.tensor_io import config_from_dict, read_npy, write_npy
from poolkit.transformer_poolers import VitIterWeights, VitWeights, vit_cls_pool

from memory_peaks import traced_peak
from numeric_edges import COLUMN_EDGES, SCALES, assert_within_rounding, feature_matrices, shape_columns


def split_heads(a, m):
    """Split rows into m contiguous blocks, one per head."""
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    if d % m != 0:
        raise ShapeError(f"split_heads: {m} does not divide dimension {d}")
    step = d // m
    return [a[i * step : (i + 1) * step] for i in range(m)]


def block_diagonal_query(q, m):
    """Arrange the m head sub-queries as a (d, m) block-diagonal matrix."""
    out = np.zeros((q.shape[0], m))
    for i, h in enumerate(split_heads(q[:, None], m)):
        out[i * h.shape[0] : (i + 1) * h.shape[0], i] = h[:, 0]
    return out


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


def _identity_mlp(d):
    """An MLP that is exactly the identity despite its ReLU: x == relu(x) - relu(-x)."""
    eye = np.eye(d)
    return MlpWeights(np.vstack([eye, -eye]), np.hstack([eye, -eye]))


def _per_head_reference(x, w, m, iters):
    """vit_cls_pool written as a loop over heads, each forming its rows of
    W_K x and W_V x: (u, mean attention, majorant of u, kappa).

    The majorant is the same computation on absolute values; kappa is the
    product over the iterations of the logits' majorant, each at least 1
    (see ``numeric_edges.assert_within_rounding``)."""
    scale = np.sqrt(x.shape[0] // m)
    u, u_abs, kappa = w.u0, np.abs(w.u0), 1.0
    for iw in w.iters[:iters]:
        heads = zip(split_heads((iw.w_q @ u)[:, None], m), split_heads(iw.w_k @ x, m),
                    split_heads(iw.w_v @ x, m))
        attn, z = [], []
        for qi, ki, vi in heads:
            attn.append(col_softmax(ki.T @ qi, scale))
            z.append(vi @ attn[-1])
        u = mlp2(iw.w_u @ np.concatenate(z), iw.mlp)[:, 0]

        abs_heads = zip(split_heads((np.abs(iw.w_q) @ u_abs)[:, None], m),
                        split_heads(np.abs(iw.w_k) @ np.abs(x), m),
                        split_heads(np.abs(iw.w_v) @ np.abs(x), m), attn)
        z_abs = []
        for qi, ki, vi, ai in abs_heads:
            # past 1e12 the bound exceeds the outputs, and products of 1e6-scale
            # logits over three iterations would overflow
            kappa = min(1e12, kappa * max(1.0, np.max(ki.T @ qi) / scale))
            z_abs.append(vi @ ai)
        h_abs = np.abs(iw.mlp.w1) @ (np.abs(iw.w_u) @ np.concatenate(z_abs)[:, 0])
        u_abs = np.abs(iw.mlp.w2) @ h_abs
    return u, np.mean(attn, axis=0)[:, 0], u_abs, kappa


@st.composite
def _features_and_heads(draw):
    x = draw(feature_matrices(rows=st.integers(2, 12)))
    d = x.shape[0]
    return x, draw(st.sampled_from([m for m in range(1, d + 1) if d % m == 0]))


class TestHeadSplit:
    def test_m1_identity(self):
        a = np.arange(10.0).reshape(5, 2)
        [h] = split_heads(a, 1)
        np.testing.assert_array_equal(h, a)

    def test_m_equals_d(self):
        a = np.arange(6.0).reshape(3, 2)
        heads = split_heads(a, 3)
        assert len(heads) == 3
        np.testing.assert_array_equal(heads[1], a[1:2])

    def test_divisibility(self):
        with pytest.raises(ShapeError):
            split_heads(np.zeros((5, 2)), 2)


class TestVitClsPool:
    def test_identical_columns_returns_column(self):
        c = np.array([1.0, -2.0, 0.5, 3.0])
        fm = _fm(np.tile(c[:, None], (1, 6)))
        eye = np.eye(4)
        w = VitWeights(iters=(VitIterWeights(eye, eye, eye, eye, _identity_mlp(4)),), u0=np.ones(4))
        out = vit_cls_pool(fm, w, m=1, iters=1)
        np.testing.assert_allclose(out.u[:, 0], c, atol=1e-12)
        np.testing.assert_allclose(out.attention.a, 1.0 / 6.0, atol=1e-12)

    @pytest.mark.parametrize("m, error, reason", [(0, ContractError, "heads must be >= 1"),
                                                   (3, ShapeError, "heads m=3 do not divide d=4")])
    def test_heads_that_cannot_split_d_are_rejected(self, m, error, reason):
        with pytest.raises(error, match=reason):
            vit_cls_pool(_fm(np.ones((4, 6)), width=3, height=2), VitWeights.seeded(4, 1), m, 1)

    def test_block_diagonal_equivalence(self):
        rng = np.random.default_rng(31)
        for m in (2, 4):
            d = 8
            x = rng.normal(size=(d, 10))
            w = VitWeights.seeded(d, iters=1, seed=int(rng.integers(1e6)))
            fm = _fm(x)
            out = vit_cls_pool(fm, w, m=m, iters=1)

            # the per-head attention stack computed through one block-diagonal
            # product: (K^T Q_blk)[:, i] restricted to head i's rows
            iw = w.iters[0]
            q_blk = block_diagonal_query(iw.w_q @ w.u0, m)
            keys = iw.w_k @ x
            step = d // m
            logits = np.stack([
                keys[i * step:(i + 1) * step].T @ q_blk[i * step:(i + 1) * step, i]
                for i in range(m)
            ], axis=1)
            attn = col_softmax(logits, np.sqrt(step))
            np.testing.assert_allclose(out.attention.a[:, 0], attn.mean(axis=1),
                                       atol=1e-12)

            # the pooled vector too, over two iterations, against a loop over heads
            w2 = VitWeights.seeded(d, iters=2, seed=m)
            out2 = vit_cls_pool(fm, w2, m=m, iters=2)
            u_ref, attn_ref, _, _ = _per_head_reference(x, w2, m, iters=2)
            np.testing.assert_allclose(out2.u[:, 0], u_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out2.attention.a[:, 0], attn_ref, rtol=0, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(case=_features_and_heads(), scale=SCALES, columns=COLUMN_EDGES,
           iters=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(case=(np.array([[1.0], [-3.0]]), 2), scale=1e6, columns="drawn", iters=1, seed=0)
    def test_matches_materialized_keys_and_values(self, case, scale, columns, iters, seed):
        # the step never forms W_K x or W_V x; the per-head loop forms both
        x, m = case
        x = scale * shape_columns(x, columns)
        w = VitWeights.seeded(x.shape[0], iters, seed=seed)
        out = vit_cls_pool(_fm(x), w, m, iters)
        u_ref, attn_ref, u_abs, kappa = _per_head_reference(x, w, m, iters)
        assert_within_rounding(out.u[:, 0], u_ref, u_abs, kappa)
        assert_within_rounding(out.attention.a[:, 0], attn_ref, attn_ref, kappa)

    def test_two_iterations_compose(self):
        rng = np.random.default_rng(32)
        fm = _fm(rng.normal(size=(4, 7)))
        w = VitWeights.seeded(4, iters=2, seed=9)
        out = vit_cls_pool(fm, w, m=2, iters=2)
        # apply the one-step operation twice by hand
        one = vit_cls_pool(fm, w, m=2, iters=1)
        w2 = VitWeights(iters=w.iters[1:], u0=one.u[:, 0])
        two = vit_cls_pool(fm, w2, m=2, iters=1)
        np.testing.assert_allclose(out.u, two.u, atol=1e-12)


class TestCait:
    """The CLI method ``cait``: class attention over a fixed patch stream,
    which is exactly ``vit_cls_pool``."""

    @staticmethod
    def _run(method, fm, **raw):
        return run_method(config_from_dict({"method": method, **raw}), fm)

    def test_matches_vit_single_iteration(self):
        rng = np.random.default_rng(33)
        fm = _fm(rng.normal(size=(6, 9)))
        a = self._run("cait", fm, heads=2, iters=1, seed=11)
        b = self._run("vit", fm, heads=2, iters=1, seed=11)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.attention.a, b.attention.a)

    def test_identical_columns(self):
        fm = _fm(np.tile(np.array([[0.5], [1.5]]), (1, 4)))
        out = self._run("cait", fm, iters=1)
        np.testing.assert_allclose(out.attention.a[:, 0], 0.25, atol=1e-12)

    def test_attention_stochastic(self):
        rng = np.random.default_rng(34)
        fm = _fm(rng.normal(size=(4, 11)))
        out = self._run("cait", fm, heads=2, iters=2, seed=12)
        np.testing.assert_allclose(out.attention.a.sum(axis=0), 1.0, atol=1e-9)


def _expanded(w: VitWeights) -> VitWeights:
    """``w`` with each matrix expanded and kept: every product of it is the dense one."""
    for iw in w.iters:
        for matrix in (iw.w_q, iw.w_k, iw.w_v, iw.w_u, iw.mlp.w1, iw.mlp.w2):
            np.asarray(matrix)
    return w


class TestPackedWeights:
    """Seeded d x d matrices are ``SignMatrix``es, which ``matcore.weigh`` multiplies from their
    sign bytes; these tests take the bytes at every size (SIGN_ENTRIES = 0).  Those products sum
    in another order than the dense ones, so the outputs are the dense ones within rounding,
    and the CLI's are the library's byte for byte."""

    @pytest.mark.parametrize("d", [3, 4, 8, 48, 384])  # d = 3: 9 signs in 2 bytes
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=2**64 - 1)
    def test_packed_weights_give_the_dense_outputs(self, d, seed):
        fm = _fm(np.random.default_rng(seed).normal(size=(d, 5)))
        dense, packed = _expanded(VitWeights.seeded(d, 3, seed=seed)), VitWeights.seeded(d, 3, seed=seed)
        assert packed.u0.tobytes() == dense.u0.tobytes()
        for m in [m for m in range(1, d + 1) if d % m == 0]:
            for iters in (1, 2, 3):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(matcore, "SIGN_ENTRIES", 0)
                    want, got = vit_cls_pool(fm, dense, m, iters), vit_cls_pool(fm, packed, m, iters)
                _, _, u_abs, kappa = _per_head_reference(fm.x, dense, m, iters)
                assert_within_rounding(got.u[:, 0], want.u[:, 0], u_abs, kappa)
                assert_within_rounding(got.attention.a, want.attention.a, want.attention.a, kappa)

    @pytest.mark.parametrize("method", ["vit", "cait"])
    def test_cli_is_the_library_on_seeded_weights(self, tmp_path, capsys, monkeypatch, method):
        # d = 96 with 3 heads keeps every product on the sign bytes (32 rows per table)
        monkeypatch.setattr(matcore, "SIGN_ENTRIES", 0)
        x = np.random.default_rng(5).normal(size=(96, 3, 4))
        write_npy(x, tmp_path / "x.npy")
        assert main(["pool", "--input", str(tmp_path / "x.npy"), "--method", method, "--heads", "3",
                     "--iters", "2", "--seed", "9", "--out", str(tmp_path / "u.npy"),
                     "--attn-out", str(tmp_path / "a.npy")]) == 0
        fm = FeatureMap(x.reshape(96, 12), 4, 3)
        u, a = read_npy(tmp_path / "u.npy")[0], read_npy(tmp_path / "a.npy")[0]
        want = vit_cls_pool(fm, VitWeights.seeded(96, 2, seed=9), 3, 2)
        assert u.tobytes() == want.u.tobytes()
        assert a.tobytes() == want.attention.a.tobytes()
        dense = _expanded(VitWeights.seeded(96, 2, seed=9))
        _, _, u_abs, kappa = _per_head_reference(fm.x, dense, 3, 2)
        want = vit_cls_pool(fm, dense, 3, 2)
        assert_within_rounding(u[:, 0], want.u[:, 0], u_abs, kappa)
        assert_within_rounding(a, want.attention.a, want.attention.a, kappa)

    def test_one_shot_request_holds_under_two_square_matrices(self):
        d = 512
        fm = FeatureMap(np.random.default_rng(0).normal(size=(d, 49)), 7, 7)
        cfg = config_from_dict({"method": "vit", "iters": 3, "heads": 8, "seed": 3})
        # dense weights hold 18 d x d matrices; packed ones 18 d^2 / 8 bytes and one buffer
        assert traced_peak(run_method, cfg, fm) <= 2 * 8 * d * d
        # dense SimPool weights are two d x d matrices; packed ones 2 d^2 / 8 bytes
        cfg = config_from_dict({"method": "simpool", "seed": 3})
        assert traced_peak(run_method, cfg, fm) <= 0.5 * 8 * d * d
        # at d heads the sign tables, one per head and group, would hold 32 d^2 floats, so
        # each matrix is expanded for its product (about 3.6 * 8 d^2 traced)
        cfg = config_from_dict({"method": "vit", "iters": 3, "heads": d, "seed": 3})
        assert traced_peak(run_method, cfg, fm) <= 4 * 8 * d * d


# name: (a call, the error class it raises, the start of its message), one row per
# contract raise of this module that no other test reaches
CONTRACT_RAISES = {
    "more_iterations_than_weight_sets": (
        lambda: vit_cls_pool(FeatureMap(np.ones((4, 2)), 2, 1), VitWeights.seeded(4, 1), 1, 2),
        ContractError, "vit_cls_pool: 1 weight sets for 2 iterations"),
}


@pytest.mark.parametrize("name", CONTRACT_RAISES)
def test_contract_raises(name):
    call, error, message = CONTRACT_RAISES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)
