import numpy as np
import pytest

from poolkit.errors import ContractError, NumericError
from poolkit.gradcheck import GradReport, central_diff, compare, rel_error_matrix


class TestCentralDiff:
    def test_linear(self):
        theta = np.arange(6.0).reshape(2, 3)
        grad = central_diff(lambda t: float(t.sum()), theta, 1e-4)
        np.testing.assert_allclose(grad, 1.0, atol=1e-10)

    def test_quadratic(self):
        rng = np.random.default_rng(41)
        theta = rng.normal(size=(3, 3))
        grad = central_diff(lambda t: 0.5 * float(np.sum(t**2)), theta, 1e-4)
        np.testing.assert_allclose(grad, theta, atol=1e-8)

    def test_degree_two_polynomial_exact(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        b = rng.normal(size=4)
        theta = rng.normal(size=4)
        grad = central_diff(lambda t: float(t @ a @ t + b @ t), theta, 1e-4)
        np.testing.assert_allclose(grad, 2 * a @ theta + b, atol=1e-8)

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
        assert rel_error_matrix(g, g).max() == 0.0

    def test_double_is_one_third(self):
        g = np.array([1.0, 4.0])
        np.testing.assert_allclose(rel_error_matrix(g, 2 * g).max(), 1.0 / 3.0, atol=1e-15)

    def test_zero_vs_zero(self):
        assert rel_error_matrix(np.zeros(3), np.zeros(3)).max() == 0.0


class TestCompare:
    def test_report_fields(self):
        g1 = np.array([[1.0, 1.0], [1.0, 1.0]])
        g2 = np.array([[1.0, 1.0], [1.0, 3.0]])
        rep = compare("w", g1, g2)
        assert isinstance(rep, GradReport)
        assert rep.worst_index == (1, 1)
        np.testing.assert_allclose(rep.max_rel_error, 0.5)
        assert rep.passes(0.5) and not rep.passes(0.4)
