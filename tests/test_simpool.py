import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolkit import framework
from poolkit.errors import ContractError, ShapeError
from poolkit.framework import FeatureMap
from poolkit.matcore import LN_EPS, col_softmax
from poolkit.meanfam import CLAMP_FLOOR
from poolkit.simpool import SimPoolParams, simpool_backward, simpool_forward, simpool_gradcheck

from memory_peaks import traced_peak
from numeric_edges import (COLUMN_EDGES, SCALES, SIMPOOL_SATURATED, SIMPOOL_SETTINGS,
                           assert_within_rounding, feature_matrices, shape_columns)


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


def _identity_params(gamma):
    return SimPoolParams(w_q=np.eye(2), w_k=np.eye(2), gamma=gamma)


class TestForward:
    def test_hand_trace(self):
        fm = _fm([[1.0, 0.0], [0.0, 1.0]])
        u, a, _ = simpool_forward(fm, _identity_params(1.0))
        np.testing.assert_allclose(a, [0.5, 0.5], atol=1e-4)
        np.testing.assert_allclose(u, [1.0, 1.0], atol=1e-4)

    def test_identical_columns_uniform_attention(self):
        c = np.array([1.0, 3.0, -2.0])
        fm = _fm(np.tile(c[:, None], (1, 5)))
        _, a, _ = simpool_forward(fm, SimPoolParams.seeded(3, seed=1))
        np.testing.assert_allclose(a, 0.2, atol=1e-12)

    def test_gamma_sensitivity(self):
        fm = _fm([[1.0, 0.0], [0.0, 1.0]])
        u1, _, _ = simpool_forward(fm, _identity_params(1.0))
        u2, _, _ = simpool_forward(fm, _identity_params(2.0))
        assert np.max(np.abs(u1 - u2)) > 0.1
        np.testing.assert_allclose(u2, np.sqrt(2.0), atol=1e-4)

    def test_gamma_given_is_the_gamma_used(self, monkeypatch):
        # the forward pass hands the mean the gamma the backward pass reads
        seen = []
        real = framework.weighted_generalized_mean

        def spy(v, a, gamma):
            seen.append(gamma)
            return real(v, a, gamma)

        monkeypatch.setattr(framework, "weighted_generalized_mean", spy)
        simpool_forward(_fm([[1.0, 0.0], [0.0, 1.0]]), _identity_params(0.1))
        assert seen == [0.1]

    @pytest.mark.parametrize("gamma", [1e-9, 1.0, 100.0])
    def test_params_accept_gamma_in_range(self, gamma):
        assert _identity_params(gamma).gamma == gamma

    @pytest.mark.parametrize("gamma", [0.0, 9e-10, -1.0, 100.5, np.nan, np.inf])
    def test_params_reject_gamma_out_of_range(self, gamma):
        with pytest.raises(ContractError, match=r"gamma must be in \[1e-9, 100\]"):
            _identity_params(gamma)

    def test_d1_rejected(self):
        with pytest.raises(ContractError):
            simpool_forward(_fm([[1.0, 2.0]]), SimPoolParams(np.eye(1), np.eye(1)))

    def test_large_column_normalizes(self):
        # LayerNorm scales each column before squaring it, so a column at 1e200
        # beside constant ones neither overflows nor divides 0 by 0
        x = np.ones((3, 4))
        x[:, 2] = [1e200, 0.0, -1e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, a, _ = simpool_forward(_fm(x), SimPoolParams.seeded(3, seed=0))
        assert np.all(np.isfinite(u))
        np.testing.assert_allclose(a.sum(), 1.0, atol=1e-12)

    def test_attention_sums_to_one(self):
        rng = np.random.default_rng(35)
        fm = _fm(rng.normal(size=(5, 9)))
        _, a, _ = simpool_forward(fm, SimPoolParams.seeded(5, seed=2))
        np.testing.assert_allclose(a.sum(), 1.0, atol=1e-12)

    def test_logit_shift_invariance(self):
        # adding a constant to every logit is what happens when the query
        # grows along the all-ones key direction; check via direct softmax
        rng = np.random.default_rng(36)
        fm = _fm(rng.normal(size=(4, 7)))
        params = SimPoolParams.seeded(4, seed=3)
        _, a, tape = simpool_forward(fm, params)
        logits = tape["key_input"].T @ tape["wkt_q"] / np.sqrt(4)
        shifted = col_softmax(logits + 1e3, 1.0)[:, 0]
        np.testing.assert_allclose(shifted, a, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(4, 8))
        params = SimPoolParams.seeded(4, seed=4)
        perm = rng.permutation(8)
        u1, a1, _ = simpool_forward(_fm(x), params)
        u2, a2, _ = simpool_forward(_fm(x[:, perm]), params)
        np.testing.assert_allclose(u2, u1, atol=1e-12)
        np.testing.assert_allclose(a2, a1[perm], atol=1e-12)

    def test_gamma_one_convex_hull_bounds(self):
        rng = np.random.default_rng(38)
        x = rng.uniform(0.5, 2.0, size=(3, 6))
        params = SimPoolParams.seeded(3, gamma=1.0, seed=5)
        u, _, tape = simpool_forward(_fm(x), params)
        v = tape["key_input"] - tape["key_input"].min()
        assert np.all(u >= v.min(axis=1) - 1e-12)
        assert np.all(u <= v.max(axis=1) + 1e-12)


class TestBackward:
    def test_zero_cotangent(self):
        rng = np.random.default_rng(40)
        fm = _fm(rng.normal(size=(3, 5)))
        _, _, cache = simpool_forward(fm, SimPoolParams.seeded(3, seed=6))
        dwq, dwk, dx = simpool_backward(cache, np.zeros(3))
        assert not dwq.any() and not dwk.any() and not dx.any()

    @pytest.mark.parametrize("gamma", [1.25, 2.0])
    def test_matches_central_differences(self, gamma):
        # criterion 7 draws centered features, whose small average makes a
        # small query and a near-uniform attention (0.06 to 0.12 at p = 12);
        # features offset by 3 make it peaked (3.5e-5 to 0.45 here)
        d, p = 8, 12
        rng = np.random.default_rng(51)
        fm = _fm(rng.normal(size=(d, p)) + 3.0)
        params = SimPoolParams.seeded(d, gamma=gamma, seed=1)
        for report in simpool_gradcheck(fm, params, rng.normal(size=d), 1e-4):
            assert report.max_rel_error <= 1e-5, report

    def test_symmetric_instance_fd_directions(self):
        fm = _fm([[1.0, 0.0], [0.0, 1.0]])
        params = _identity_params(1.0)
        du = np.ones(2)
        _, _, cache = simpool_forward(fm, params)
        dwq, _, _ = simpool_backward(cache, du)
        for direction in (np.eye(2), np.ones((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])):
            h = 1e-4

            def loss(w):
                u, _, _ = simpool_forward(fm, SimPoolParams(
                    w_q=w, w_k=params.w_k, gamma=1.0))
                return float(du @ u)

            fd = (loss(params.w_q + h * direction) - loss(params.w_q - h * direction)) / (2 * h)
            np.testing.assert_allclose(np.sum(dwq * direction), fd, atol=1e-6)

    def test_updates_its_feature_sized_arrays_in_place(self):
        """At ViT-S (384 x 196) the pass holds its outputs, 4.92 d x p arrays
        (two d x d and one d x p), and about one more for scratch; formed
        anew, its intermediates reached 11.06."""
        d, p = 384, 196
        rng = np.random.default_rng(8)
        fm = _fm(rng.normal(size=(d, p)), width=14, height=14)
        _, _, cache = simpool_forward(fm, SimPoolParams.seeded(d, seed=2))
        assert traced_peak(simpool_backward, cache, rng.normal(size=d)) < 6.5 * d * p * 8


def _materialized_reference(x, params, du):
    """SimPool written with the d x p keys W_K xn formed, and its key
    gradients taken through them by two d x p x d products.

    Returns the outputs (u, a, d_wq, d_wk, d_x), their majorants (the same
    expressions on absolute values) and kappa, the logits' majorant, at
    least 1 (see ``numeric_edges.assert_within_rounding``)."""
    d, p = x.shape
    g, s = params.gamma, 1.0 / np.sqrt(d)
    u0 = x.mean(axis=1)
    inv_std = 1.0 / np.sqrt(x.var(axis=0) + LN_EPS)
    # divided as the engine divides, so the two agree on which of tied minima is the argmin
    xn = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + LN_EPS)
    q = params.w_q @ u0
    keys = params.w_k @ xn
    a = col_softmax((keys.T @ q * s)[:, None])[:, 0]
    argmin = np.unravel_index(np.argmin(xn), xn.shape)
    v = xn - xn[argmin]
    vc = np.maximum(v, CLAMP_FLOOR)
    # the mean and its gradients as written, in long double: its range (to
    # about 1e4932 on x86-64 and aarch64 Linux) holds every power of vc here
    vl, al = vc.astype(np.longdouble), a.astype(np.longdouble)
    inner = (vl**g) @ al
    u = (inner ** (1.0 / g)).astype(float)
    d_inner = du / g * inner ** (1.0 / g - 1.0)
    d_vc = (np.outer(d_inner, al) * g * vl ** (g - 1.0)).astype(float)
    d_v = np.where(v > CLAMP_FLOOR, d_vc, 0.0)
    d_xn = d_v.copy()
    d_xn[argmin] -= d_v.sum()
    d_a = (vl**g).T @ d_inner
    d_logits = (al * (d_a - al @ d_a)).astype(float)
    d_keys = np.outer(q, d_logits) * s
    d_q = keys @ d_logits * s
    d_xn += params.w_k.T @ d_keys
    d_x = inv_std * (d_xn - d_xn.mean(axis=0) - xn * (d_xn * xn).mean(axis=0))
    d_x += (params.w_q.T @ d_q)[:, None] / p
    outputs = (u, a, np.outer(d_q, u0), d_keys @ xn.T, d_x)

    abs_xn, abs_wk = np.abs(xn), np.abs(params.w_k)
    kappa = max(1.0, np.max(abs_xn.T @ (abs_wk.T @ np.abs(q))) * s)
    abs_da = (vl**g).T @ np.abs(d_inner)
    abs_dl = (al * (abs_da + al @ abs_da)).astype(float)
    abs_dq = abs_wk @ (abs_xn @ abs_dl) * s
    abs_dxn = np.abs(d_v) + np.outer(abs_wk.T @ np.abs(q), abs_dl) * s
    abs_dxn[argmin] += np.abs(d_v).sum()
    abs_dx = inv_std * (abs_dxn + abs_dxn.mean(axis=0) + abs_xn * (abs_dxn * abs_xn).mean(axis=0))
    abs_dx += (np.abs(params.w_q).T @ abs_dq)[:, None] / p
    majorants = (u, a, np.outer(abs_dq, np.abs(u0)),
                 np.outer(np.abs(q) * s, abs_xn @ abs_dl), abs_dx)
    return outputs, majorants, kappa


class TestNarrowProducts:
    """The forward and backward passes never form W_K xn; they must agree
    with the form that does, on every edge of the input domain."""

    @settings(max_examples=150, deadline=None)
    @given(x=feature_matrices(), scale=SCALES, columns=COLUMN_EDGES, setting=SIMPOOL_SETTINGS,
           seed=st.integers(0, 2**16))
    @example(x=np.array([[1.0], [-3.0]]), scale=1e6, columns="drawn", setting={"gamma": 2.0},
             seed=0)  # d=2, p=1
    @example(x=SIMPOOL_SATURATED, scale=1.0, columns="drawn",
             setting={"gamma": 100.0}, seed=0)
    @example(x=np.array([[-2.44803060091354, 0.0], [0.0, 0.0], [0.0, -2.44803060091354],
                         [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), scale=1.0, columns="drawn",
             setting={"gamma": 1.0}, seed=0)  # LayerNorm's minimum tied across two columns
    def test_matches_materialized_keys(self, x, scale, columns, setting, seed):
        d, p = x.shape
        x = scale * shape_columns(x, columns)
        rng = np.random.default_rng(seed)
        params = SimPoolParams.seeded(d, seed=seed, **setting)
        du = rng.normal(size=d)
        u, a, cache = simpool_forward(_fm(x), params)
        grads = simpool_backward(cache, du)
        expected, majorants, kappa = _materialized_reference(x, params, du)
        for got, want, majorant in zip((u, a, *grads), expected, majorants):
            assert_within_rounding(got, want, majorant, kappa)


# name: (a call, the error class it raises, the start of its message), one row per
# contract raise of this module that no other test reaches
CONTRACT_RAISES = {
    "non_square_weight": (lambda: SimPoolParams(np.ones((2, 3)), np.ones((2, 3))), ShapeError,
                          "SimPoolParams: w_q must be square, got (2, 3)"),
    "non_finite_weight": (lambda: SimPoolParams(np.full((2, 2), np.nan), np.ones((2, 2))),
                          ContractError, "SimPoolParams: non-finite weights"),
    "du_of_d_plus_1": (lambda: simpool_backward(simpool_forward(
        _fm(np.arange(1.0, 7.0).reshape(3, 2)), SimPoolParams.seeded(3))[2], np.ones(4)),
        ContractError, "simpool_backward: du shape (4,) vs d=3"),
}


@pytest.mark.parametrize("name", CONTRACT_RAISES)
def test_contract_raises(name):
    call, error, message = CONTRACT_RAISES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)
