import numpy as np
import pytest

from poolkit.errors import ContractError, NumericError
from poolkit.framework import FeatureMap
from poolkit.gradcheck import GradReport, central_diff, compare, rel_error_matrix
from poolkit.simpool import SimPoolParams, simpool_backward, simpool_forward, simpool_gradcheck


class TestCentralDiff:
    def test_linear(self):
        theta = np.arange(6.0).reshape(2, 3)
        grad, _ = central_diff(lambda t: float(t.sum()), theta, 1e-4)
        np.testing.assert_allclose(grad, 1.0, atol=1e-10)

    def test_quadratic(self):
        rng = np.random.default_rng(41)
        theta = rng.normal(size=(3, 3))
        grad, _ = central_diff(lambda t: 0.5 * float(np.sum(t**2)), theta, 1e-4)
        np.testing.assert_allclose(grad, theta, atol=1e-8)

    def test_degree_two_polynomial_exact(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        b = rng.normal(size=4)
        theta = rng.normal(size=4)
        grad, _ = central_diff(lambda t: float(t @ a @ t + b @ t), theta, 1e-4)
        np.testing.assert_allclose(grad, 2 * a @ theta + b, atol=1e-8)

    def test_noise_is_64_ulps_of_the_evaluations_over_2h(self):
        theta = np.array([1.0, 2.0])
        _, noise = central_diff(lambda t: 1e4 + float(t.sum()), theta, 1e-2)
        # f(t +- h e) = 1e4 + 3 +- h
        want = 64 * np.finfo(float).eps * 2 * (1e4 + 3) / 2e-2
        np.testing.assert_allclose(noise, want, rtol=1e-12)

    def test_h_range_enforced(self):
        with pytest.raises(ContractError):
            central_diff(lambda t: 0.0, np.zeros(2), h=1e-9)
        with pytest.raises(ContractError):
            central_diff(lambda t: 0.0, np.zeros(2), h=0.1)

    def test_non_finite_raises(self):
        with pytest.raises(NumericError):
            central_diff(lambda t: float("nan"), np.zeros(2), 1e-4)


class TestRelError:
    def test_identical_zero(self):
        g = np.array([1.0, -2.0])
        assert rel_error_matrix(g, g, 0.0).max() == 0.0

    def test_double_is_one_third(self):
        g = np.array([1.0, 4.0])
        np.testing.assert_allclose(rel_error_matrix(g, 2 * g, 0.0).max(), 1.0 / 3.0, atol=1e-15)

    def test_zero_vs_zero(self):
        assert rel_error_matrix(np.zeros(3), np.zeros(3), 0.0).max() == 0.0

    def test_difference_within_noise_is_no_error(self):
        # an exact zero against rounding noise, and a difference half beyond it
        errs = rel_error_matrix(np.array([0.0, 1.0]), np.array([3e-11, 1.0 + 2e-10]), 1e-10)
        np.testing.assert_allclose(errs, [0.0, 1e-10 / (2.0 + 2e-10)], rtol=1e-5)


class TestCompare:
    def test_report_fields(self):
        g1 = np.array([[1.0, 1.0], [1.0, 1.0]])
        g2 = np.array([[1.0, 1.0], [1.0, 3.0]])
        rep = compare("w", g1, g2, 0.0)
        assert isinstance(rep, GradReport)
        assert rep.worst_index == (1, 1)
        np.testing.assert_allclose(rep.max_rel_error, 0.5)
        assert rep.passes(0.5) and not rep.passes(0.4)


def _saturated_case():
    """SimPool at feature scale 1e4 without LayerNorm, gamma = 50: the
    attention saturates, so some analytic gradients are exactly 0 while the
    central difference of step 1e-2 returns rounding noise of about 1e-10."""
    d, p = 8, 12
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1e4, size=(d, p))
    params = SimPoolParams.seeded(d, gamma=50.0, seed=6, use_layernorm=False)
    return FeatureMap.from_array(x), params, rng.normal(size=d)


class TestSimPoolGradcheck:
    def test_rounding_noise_against_exact_zero_passes(self):
        # an absolute 1e-12 floor on the relative error reported 1.0 for X here
        fm, params, du = _saturated_case()
        for report in simpool_gradcheck(fm, params, du, 1e-2):
            assert report.passes(1e-5), report

    @pytest.mark.parametrize("case", ["saturated", "default"])
    def test_gradient_off_by_1e3_fails(self, case):
        if case == "saturated":
            (fm, params, du), h = _saturated_case(), 1e-2
        else:  # the draws of `poolkit gradcheck` with its default flags
            rng = np.random.default_rng(0)
            fm, h = FeatureMap.from_array(rng.normal(size=(8, 12))), 1e-4
            params, du = SimPoolParams.seeded(8, seed=1000), rng.normal(size=8)
        _, _, cache = simpool_forward(fm, params)
        d_x = simpool_backward(cache, du)[2]

        def loss(x):
            return float(du @ simpool_forward(FeatureMap.from_array(x), params)[0])

        numeric = central_diff(loss, fm.x, h)
        assert compare("X", d_x, *numeric).passes(1e-5)
        assert not compare("X", (1.0 + 1e-3) * d_x, *numeric).passes(1e-5)
