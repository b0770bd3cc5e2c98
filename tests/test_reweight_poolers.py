import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolkit import reweight_poolers
from poolkit.errors import ShapeError
from poolkit.framework import FeatureMap
from poolkit.reweight_poolers import CbamWeights, SeWeights, cbam_pool, se_pool
from poolkit.simple_poolers import gap

from numeric_edges import COLUMN_EDGES, SCALES, assert_within_rounding, feature_matrices, shape_columns
from test_simple_poolers import _gate_reference, cbam_reference


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


@st.composite
def _gated_cases(draw):
    """Features on the numeric edges with d in {4, 8} (the reduction divides
    d), a grid for them (1 x p, p x 1 and every other factorization) and a
    weight seed."""
    x = draw(SCALES) * shape_columns(draw(feature_matrices(rows=st.sampled_from([4, 8]))),
                                     draw(COLUMN_EDGES))
    p = x.shape[1]
    width = draw(st.sampled_from([w for w in range(1, p + 1) if p % w == 0]))
    return FeatureMap(x, width, p // width), draw(st.integers(0, 2**16))


def _zero_gate(d):
    """A d -> 1 -> d bottleneck with zero weights: every gate is sigmoid(0) = 1/2."""
    return SeWeights(np.zeros((1, d)), np.zeros((d, 1)))


@pytest.mark.parametrize("pool, weights", [(se_pool, SeWeights.seeded),
                                           (cbam_pool, CbamWeights.seeded)])
def test_misfit_weights_raise_shape_error(pool, weights):
    """The channel gate is mlp2, whose shape check names it."""
    with pytest.raises(ShapeError, match="mlp2"):
        pool(FeatureMap(np.ones((8, 4)), 2, 2), weights(4))


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

    @settings(max_examples=100, deadline=None)
    @given(case=_gated_cases())
    def test_matches_reference(self, case):
        """z = sigmoid(w2 relu(w1 u0)) * u0 with u0 = gap(X), and uniform
        attention; the gate's error is at most its logits' rounding."""
        fm, seed = case
        w = SeWeights.seeded(fm.d, seed=seed)
        u0 = fm.x.mean(axis=1)
        q, kappa = _gate_reference(w, u0[:, None])
        out = se_pool(fm, w)
        assert_within_rounding(out.u[:, 0], q * u0, np.abs(fm.x), kappa)
        np.testing.assert_array_equal(out.attention.a, np.full((fm.p, 1), 1.0 / fm.p))


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
        # the [avg, max] maps are at least 0.05 everywhere, so a kernel of 100s
        # drives every spatial logit past 60 on this 3x2 grid
        w = CbamWeights(channel_mlp=_zero_gate(4), conv7=np.full((2, 7, 7), 100.0))
        out = cbam_pool(fm, w)
        v = 0.5 * x  # zero channel MLP -> gate 0.5
        np.testing.assert_allclose(out.u[:, 0], v.mean(axis=1), atol=1e-6)

    def test_one_by_one_grid_hand_trace(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        fm = FeatureMap(x, width=1, height=1)
        rng = np.random.default_rng(28)
        w = CbamWeights(channel_mlp=_zero_gate(4), conv7=rng.normal(size=(2, 7, 7)))
        out = cbam_pool(fm, w)
        v = 0.5 * x
        s_avg, s_max = v.mean(), v.max()
        logit = w.conv7[0, 3, 3] * s_avg + w.conv7[1, 3, 3] * s_max
        a = 1.0 / (1.0 + np.exp(-logit))
        np.testing.assert_allclose(out.u[:, 0], v[:, 0] * a, atol=1e-12)

    def test_channel_average_is_gap(self, monkeypatch):
        # the gate's [avg, max] input: its average is the gap pool's product with 1/p, bit for bit
        fm = FeatureMap(np.random.default_rng(29).uniform(0.0, 3.0, size=(8, 35)), width=7, height=5)
        seen = []
        mlp2 = reweight_poolers.mlp2
        monkeypatch.setattr(reweight_poolers, "mlp2", lambda u0, w: seen.append(u0) or mlp2(u0, w))
        cbam_pool(fm, CbamWeights.seeded(8))
        assert seen[0][:, 0].tobytes() == gap(fm).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=_gated_cases())
    def test_matches_reference(self, case):
        """cbam_pool and its attention match ``cbam_reference``."""
        fm, seed = case
        w = CbamWeights.seeded(fm.d, seed=seed)
        z, a, kappa = cbam_reference(fm, w)
        out = cbam_pool(fm, w)
        assert_within_rounding(out.u[:, 0], z, np.abs(fm.x), kappa)
        assert_within_rounding(out.attention.a[:, 0], a, np.ones(1), kappa)


# name: (a call, the error class it raises, the start of its message), one row per
# contract raise of this module that no other test reaches
CONTRACT_RAISES = {
    "cbam_conv7_of_one_channel": (lambda: CbamWeights(SeWeights.seeded(4), np.ones((7, 7))),
                                  ShapeError, "CbamWeights: conv7 must be (2, 7, 7), got (7, 7)"),
}


@pytest.mark.parametrize("name", CONTRACT_RAISES)
def test_contract_raises(name):
    call, error, message = CONTRACT_RAISES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)
