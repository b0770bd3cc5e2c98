import numpy as np
import pytest

from poolkit.cli import run_method
from poolkit.errors import ShapeError
from poolkit.framework import FeatureMap
from poolkit.matcore import col_softmax
from poolkit.nncells import MlpWeights, mlp2
from poolkit.tensor_io import config_from_dict
from poolkit.transformer_poolers import (VitIterWeights, VitWeights, block_diagonal_query,
                                         split_heads, vit_cls_pool)


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


def _identity_mlp(d):
    """An MLP that is exactly the identity despite its ReLU: x == relu(x) - relu(-x)."""
    eye = np.eye(d)
    return MlpWeights(np.vstack([eye, -eye]), np.zeros(2 * d), np.hstack([eye, -eye]), np.zeros(d))


def _per_head_reference(x, w, m, iters):
    """vit_cls_pool written as a loop over heads: (u, mean attention)."""
    u = w.u0
    for iw in w.iters[:iters]:
        heads = zip(split_heads((iw.w_q @ u)[:, None], m), split_heads(iw.w_k @ x, m),
                    split_heads(iw.w_v @ x, m))
        attn, z = [], []
        for qi, ki, vi in heads:
            attn.append(col_softmax(ki.T @ qi, np.sqrt(x.shape[0] // m)))
            z.append(vi @ attn[-1])
        u = mlp2(iw.w_u @ np.concatenate(z)[:, 0], iw.mlp)
    return u, np.mean(attn, axis=0)[:, 0]


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
            u_ref, attn_ref = _per_head_reference(x, w2, m, iters=2)
            np.testing.assert_allclose(out2.u[:, 0], u_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out2.attention.a[:, 0], attn_ref, rtol=0, atol=1e-12)

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
