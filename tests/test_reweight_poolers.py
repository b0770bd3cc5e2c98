import numpy as np

from poolkit.framework import FeatureMap
from poolkit.reweight_poolers import CbamWeights, SeWeights, cbam_pool, se_pool
from poolkit.simple_poolers import gap


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


def _zero_gate(d):
    """A d -> 1 -> d bottleneck with zero weights: every gate is sigmoid(0) = 1/2."""
    return SeWeights(np.zeros((1, d)), np.zeros((d, 1)))


class TestSePool:
    def test_zero_weights_half_gap(self):
        fm = _fm([[1.0, 3.0], [5.0, 7.0]])
        out = se_pool(fm, _zero_gate(2))
        np.testing.assert_allclose(out.u[:, 0], 0.5 * gap(fm), atol=1e-15)

    def test_identical_columns_zero_weights(self):
        c = np.array([2.0, -1.0, 4.0, 0.5])
        fm = _fm(np.tile(c[:, None], (1, 6)))
        out = se_pool(fm, _zero_gate(4))
        np.testing.assert_allclose(out.u[:, 0], 0.5 * c, atol=1e-15)

    def test_not_homogeneous(self):
        rng = np.random.default_rng(24)
        fm = _fm(rng.uniform(0.5, 2.0, size=(4, 5)))
        fm2 = _fm(2.0 * fm.x)
        w = SeWeights.seeded(4, seed=6)
        u1 = se_pool(fm, w).u
        u2 = se_pool(fm2, w).u
        assert np.max(np.abs(u2 - 2.0 * u1)) > 1e-8

    def test_saturated_gate_recovers_gap(self):
        # hand-built bottleneck driving every logit to +20
        fm = _fm(np.full((4, 3), 5.0))
        w = SeWeights(w1=np.ones((1, 4)), w2=np.ones((4, 1)))
        out = se_pool(fm, w)  # logits = 20 -> gate ~ 1
        np.testing.assert_allclose(out.u[:, 0], gap(fm), atol=1e-6)


class TestCbamPool:
    def test_zero_conv_half_gap_of_gated(self):
        rng = np.random.default_rng(25)
        x = rng.uniform(0.1, 2.0, size=(4, 6))
        fm = FeatureMap(x, width=3, height=2)
        out = cbam_pool(fm, CbamWeights(channel_mlp=_zero_gate(4), conv7=np.zeros((2, 7, 7))))
        # channel gate is 0.5 everywhere, spatial attention sigmoid(0)=0.5
        v = 0.5 * x
        np.testing.assert_allclose(out.u[:, 0], 0.5 * v.mean(axis=1), atol=1e-12)

    def test_saturated_spatial_gate(self):
        rng = np.random.default_rng(26)
        x = rng.uniform(0.1, 2.0, size=(4, 6))
        fm = FeatureMap(x, width=3, height=2)
        w = CbamWeights(channel_mlp=_zero_gate(4),
                        conv7=np.zeros((2, 7, 7)), conv_bias=20.0)
        out = cbam_pool(fm, w)
        v = 0.5 * x  # zero channel MLP -> gate 0.5
        np.testing.assert_allclose(out.u[:, 0], v.mean(axis=1), atol=1e-6)

    def test_one_by_one_grid_hand_trace(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        fm = FeatureMap(x, width=1, height=1)
        rng = np.random.default_rng(28)
        w = CbamWeights(channel_mlp=_zero_gate(4),
                        conv7=rng.normal(size=(2, 7, 7)), conv_bias=0.3)
        out = cbam_pool(fm, w)
        v = 0.5 * x
        s_avg, s_max = v.mean(), v.max()
        logit = w.conv7[0, 3, 3] * s_avg + w.conv7[1, 3, 3] * s_max + 0.3
        a = 1.0 / (1.0 + np.exp(-logit))
        np.testing.assert_allclose(out.u[:, 0], v[:, 0] * a, atol=1e-12)
