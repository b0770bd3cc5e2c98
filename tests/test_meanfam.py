import math
import warnings

import numpy as np
import pytest

from poolkit.errors import ContractError
from poolkit.matcore import col_softmax
from poolkit.meanfam import EPS, SMALL_GAMMA, lse_pool, weighted_generalized_mean

from numeric_edges import oracle_lse, oracle_power_mean


def _uniform(p):
    return np.full((p, 1), 1.0 / p)


def _extreme(v, gamma):
    """The uniform power mean of each row of v, near its max (gamma >> 1) or
    its min (gamma << -1)."""
    return weighted_generalized_mean(v, _uniform(v.shape[1]), gamma)


class TestGammaCheck:
    @pytest.mark.parametrize("gamma", [1e-12, -1e-12, np.nan, np.inf, -np.inf])
    def test_rejects_tiny_gamma_off_log_branch(self, gamma):
        # gamma is 0 (the log branch), or finite and at least 1e-9 in size
        with pytest.raises(ContractError, match="gamma must be finite"):
            weighted_generalized_mean(np.ones((1, 2)), _uniform(2), gamma)

    @pytest.mark.parametrize("gamma", [0.0, 1e-9, -1e-9])
    def test_accepts_the_log_branch_and_the_edge_of_the_range(self, gamma):
        # near 0 the power mean of [1, 4] is 2 exp(gamma ln(4)^2 / 8), to
        # within a term of order gamma^3
        v = np.array([[1.0, 4.0]])
        np.testing.assert_allclose(weighted_generalized_mean(v, _uniform(2), gamma),
                                   [[2.0 * np.exp(gamma * np.log(4.0) ** 2 / 8)]], rtol=1e-14)


class TestWeightedGeneralizedMean:
    def test_arithmetic(self):
        v = np.array([[1.0, 3.0]])
        np.testing.assert_allclose(
            weighted_generalized_mean(v, _uniform(2), 1.0), [[2.0]])

    def test_rms(self):
        v = np.array([[1.0, 4.0]])
        out = weighted_generalized_mean(v, _uniform(2), 2.0)
        np.testing.assert_allclose(out, [[np.sqrt(8.5)]], atol=1e-12)

    def test_geometric(self):
        v = np.array([[1.0, 4.0]])
        out = weighted_generalized_mean(v, _uniform(2), 0.0)
        np.testing.assert_allclose(out, [[2.0]], atol=1e-12)

    def test_harmonic(self):
        v = np.array([[1.0, 4.0]])
        out = weighted_generalized_mean(v, _uniform(2), -1.0)
        np.testing.assert_allclose(out, [[1.6]], atol=1e-12)

    def test_constant_input_fixed_point(self):
        # at |gamma| = 1e-9 too, where 5 weights of 1/5 sum to 1 only to
        # within rounding
        for gamma in (2.0, 1.0, 0.0, -1.0, 5.0, 1e-9, -1e-9):
            v = np.full((3, 5), 2.7)
            out = weighted_generalized_mean(v, _uniform(5), gamma)
            np.testing.assert_allclose(out, 2.7, rtol=0, atol=1e-10)

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0.1, 5.0, size=(4, 9))
        a = _uniform(9)
        prev = None
        for gamma in (0.5, 1.0, 2.0, 5.0, 20.0):
            cur = weighted_generalized_mean(v, a, gamma)
            if prev is not None:
                assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_zero_entries_clamped_on_negative_power(self):
        v = np.array([[0.0, 4.0]])
        out = weighted_generalized_mean(v, _uniform(2), -1.0)
        assert np.all(np.isfinite(out))


    @pytest.mark.parametrize("gamma", [100.0, -100.0])
    def test_attention_on_powers_below_normal_range(self, gamma):
        # column 0 is one-hot on the entry farthest from the factored row
        # extreme (ratio 6e-4 or 6e-8, or 1e4 / 6e-4 for gamma < 0), whose
        # power is subnormal or 0 at |gamma| = 100; column 1 splits evenly
        # between the two ends and takes the plain path
        v = np.array([[1e4, 6.0, 1e4], [1e4, 6e-4, 1e4]])
        far, near = (1, 0) if gamma > 0 else (0, 1)
        a = np.zeros((3, 2))
        a[far, 0] = 1.0
        a[:2, 1] = 0.5
        out = weighted_generalized_mean(v, a, gamma)
        np.testing.assert_allclose(out[:, 0], v[:, far], rtol=1e-14)
        np.testing.assert_allclose(out[:, 1], v[:, near] * 0.5 ** (1 / gamma), rtol=1e-14)

    @pytest.mark.parametrize("weights", ["uniform-8", "uniform-5", "softmax-196"])
    @pytest.mark.parametrize("gamma", [1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4])
    def test_small_gamma_matches_the_cumulant_expansion(self, gamma, weights):
        # ln M = k1 + gamma k2 / 2 + gamma^2 k3 / 6 + gamma^3 k4 / 24 + ...,
        # with k the cumulants of ln v under the weights normalized exactly;
        # 8 uniform weights sum to 1 exactly, 5 and a softmax column only
        # to within rounding
        rng = np.random.default_rng(3)
        if weights == "softmax-196":
            a = col_softmax(rng.normal(size=(196, 1)), 1.0)
        else:
            a = _uniform(int(weights.split("-")[1]))
        v = rng.uniform(0.5, 5.0, size=(4, a.shape[0]))
        w = a[:, 0] / math.fsum(a[:, 0])
        x = np.log(v)
        k1 = x @ w
        c = x - k1[:, None]
        k2, k3 = c**2 @ w, c**3 @ w
        k4 = c**4 @ w - 3 * k2**2
        expected = np.exp(k1 + gamma * k2 / 2 + gamma**2 * k3 / 6 + gamma**3 * k4 / 24)
        np.testing.assert_allclose(weighted_generalized_mean(v, a, gamma)[:, 0], expected,
                                   rtol=1e-14)

    def test_small_gamma_keeps_the_sum_of_other_columns(self):
        # a column that does not sum to 1 keeps its sum's power across
        # SMALL_GAMMA, where the two forms of the inner sum meet
        v = np.random.default_rng(4).uniform(0.5, 5.0, size=(4, 6))
        a = np.full((6, 1), 2.0 / 6)
        below = weighted_generalized_mean(v, a, np.nextafter(SMALL_GAMMA, 0.0))
        at = weighted_generalized_mean(v, a, SMALL_GAMMA)
        np.testing.assert_allclose(below, at, rtol=1e-12)
        assert np.all(at > 2.0 ** 19 * v.min(axis=1, keepdims=True))

    @pytest.mark.parametrize("gamma", [1e-9, -1e-9, 1e-6, -1e-6, 0.04, -0.04])
    def test_small_gamma_within_a_few_ulps_of_the_oracle(self, gamma):
        # the expm1/log1p form keeps the digits that 1/gamma would magnify
        rng = np.random.default_rng(8)
        v = rng.uniform(0.5, 5.0, size=(4, 12))
        a = np.hstack([col_softmax(rng.normal(size=(12, 2))), _uniform(12)])
        want = oracle_power_mean(v, a, gamma)
        assert np.all(np.abs(weighted_generalized_mean(v, a, gamma) - want) <= 4 * np.spacing(want))

    @pytest.mark.parametrize("gamma", [0.04, -0.04, 0.02])
    def test_small_gamma_near_the_oracle_where_little_weight_is_near_the_extreme(self, gamma):
        # v spans 1e-12 to 1e300, so one-hot and sparse columns may weigh only ratios whose
        # powers are as little as e^-28 of the weights' sum, where expm1/log1p cancels; what is left is
        # the rounding of ln(v / m), an ulp of ln of the row's range in relative terms
        rng = np.random.default_rng(9)
        v = np.exp(rng.uniform(np.log(1e-12), np.log(1e300), size=(4, 12)))
        one_hot, sparse = np.zeros((12, 1)), np.zeros((12, 1))
        one_hot[3], sparse[[1, 7]] = 1.0, 0.5
        a = np.hstack([col_softmax(rng.normal(size=(12, 2))), one_hot, sparse, _uniform(12)])
        want = oracle_power_mean(v, a, gamma)
        ln_range = np.log(v.max(axis=1, keepdims=True) / v.min(axis=1, keepdims=True))
        got = weighted_generalized_mean(v, a, gamma)
        assert np.all(np.abs(got - want) <= 4 * EPS * ln_range * want)


class TestFAlphaRoundTrip:
    def test_inverse(self):
        # one-hot attention makes f^-1(f(V) A) give back V itself
        x = np.geomspace(1e-6, 1e6, 41)
        for gamma in (2.0, 1.0, 0.5, -1.0, 0.0):
            got = weighted_generalized_mean(x[None, :], np.eye(x.size), gamma)
            np.testing.assert_allclose(got[0], x, rtol=1e-12)


class TestApproxExtreme:
    def test_near_max(self):
        # uniform weights cost a factor (1/p)^(1/gamma): ~1.4% at gamma=50
        # for p=2, under 1% by gamma=100
        v = np.array([[0.5, 2.0]])
        out50 = _extreme(v, 50.0)
        assert abs(out50[0, 0] - 2.0) / 2.0 < 0.02
        out100 = _extreme(v, 100.0)
        assert abs(out100[0, 0] - 2.0) / 2.0 < 0.01

    def test_constant_exact(self):
        v = np.full((2, 4), 3.0)
        np.testing.assert_allclose(_extreme(v, 25.0), 3.0, atol=1e-12)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(8)
        v = rng.uniform(0.0, 4.0, size=(3, 7))
        r20 = _extreme(v, 20.0)
        r50 = _extreme(v, 50.0)
        assert np.all(r20 <= r50 + 1e-12)
        assert np.all(r50 <= v.max(axis=1, keepdims=True) + 1e-12)

    def test_min_branch(self):
        v = np.array([[0.5, 2.0]])
        out = _extreme(v, -80.0)
        assert abs(out[0, 0] - 0.5) / 0.5 < 0.01


class TestLsePool:
    def test_zero_vector(self):
        out = lse_pool(np.zeros((1, 2)), _uniform(2), 1.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_hand_value(self):
        v = np.array([[0.0, np.log(3.0)]])
        out = lse_pool(v, _uniform(2), 1.0)
        np.testing.assert_allclose(out, np.log(2.0), atol=1e-12)

    def test_large_r_approaches_max(self):
        v = np.array([[1.0, 5.0]])
        out = lse_pool(v, _uniform(2), 100.0)
        assert abs(out[0, 0] - 5.0) < 0.05

    def test_rejects_tiny_r(self):
        with pytest.raises(ContractError):
            lse_pool(np.ones((1, 2)), _uniform(2), 1e-10)

    @pytest.mark.parametrize("r", [1e-9, -1e-9, 1e-6, -1e-6, 0.04, -0.04, 0.06, 1.0, 30.0])
    def test_within_a_few_ulps_of_the_oracle(self, r):
        # in ulps of the output's scale: the largest |v|, or |u| where the weights' sum moves u
        # past it; at |r| >= SMALL_GAMMA the plain log rounds by an ulp of 1, which 1/|r| makes an
        # ulp of 1/|r|, and below it the expm1/log1p form keeps those digits
        rng = np.random.default_rng(7)
        v = rng.uniform(-3.0, 3.0, size=(4, 12))
        a = np.hstack([col_softmax(rng.normal(size=(12, 2))), _uniform(12), np.full((12, 1), 2.0 / 12)])
        want = oracle_lse(v, a, r)
        scale = np.maximum(np.abs(want), max(np.abs(v).max(), 1.0 / abs(r) if abs(r) >= SMALL_GAMMA else 0.0))
        assert np.all(np.abs(lse_pool(v, a, r) - want) <= 4 * np.spacing(scale))

    @pytest.mark.parametrize("r", [1e-9, -1e-9, 1e-6, -1e-6, 0.04, -0.04])
    def test_small_r_within_a_few_ulps_of_the_oracle_where_little_weight_is_near_the_max(self, r):
        # r v spans 40, and one-hot and sparse columns may weigh only entries far from the
        # row's max: the inner sum falls to e^-40 of the weights' sum, where expm1/log1p cancels
        rng = np.random.default_rng(9)
        v = rng.uniform(-20.0, 20.0, size=(4, 12)) / abs(r)
        one_hot, sparse = np.zeros((12, 1)), np.zeros((12, 1))
        one_hot[3], sparse[[1, 7]] = 1.0, 0.5
        a = np.hstack([col_softmax(rng.normal(size=(12, 2))), one_hot, sparse, _uniform(12)])
        want = oracle_lse(v, a, r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lse_pool(v, a, r)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.maximum(np.abs(want), np.abs(v).max())))

    def test_small_r_keeps_the_sum_of_other_columns(self):
        # a column that does not sum to 1 keeps its sum's ln s / r across SMALL_GAMMA,
        # where the two forms of the log meet
        v = np.random.default_rng(4).uniform(0.5, 5.0, size=(4, 6))
        a = np.full((6, 1), 2.0 / 6)
        below = lse_pool(v, a, np.nextafter(SMALL_GAMMA, 0.0))
        at = lse_pool(v, a, SMALL_GAMMA)
        np.testing.assert_allclose(below, at, rtol=1e-12)
        assert np.all(at > np.log(2.0) / SMALL_GAMMA + v.min(axis=1, keepdims=True))


# name: (a call, the error class it raises, the start of its message), one row per
# contract raise of this module that no other test reaches
CONTRACT_RAISES = {
    "negative_value": (lambda: weighted_generalized_mean(np.array([[-1.0]]), _uniform(1), 2.0),
                       ContractError, "weighted_generalized_mean: negative values"),
}


@pytest.mark.parametrize("name", CONTRACT_RAISES)
def test_contract_raises(name):
    call, error, message = CONTRACT_RAISES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)
