import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poolkit import cluster_poolers
from poolkit.cluster_poolers import (
    NystromMap,
    SinkhornParams,
    SlotWeights,
    kmeans_distortion,
    kmeans_pool,
    kmeans_spec,
    otk_pool,
    sinkhorn,
    slot_pool,
    slot_spec,
)
from poolkit.errors import ContractError, ConvergenceError, DegenerateMassError, NumericError, ShapeError
from poolkit.framework import FeatureMap, InitRule, UpdateRule, _update, run_pooling
from poolkit.matcore import col_softmax, eta_norm, layernorm_cols, sq_distances
from poolkit.nncells import GruWeights, MlpWeights
from poolkit.simple_poolers import gap
from poolkit.simpool import SimPoolParams, simpool_forward

from numeric_edges import COLUMN_EDGES, SCALES, assert_within_rounding, feature_matrices, shape_columns


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


def _zero_gru(d):
    """A GRU cell with zero weights: both gates read sigmoid(0) = 1/2, the candidate 0."""
    w, b = np.zeros((d, d)), np.zeros(d)
    return GruWeights(w, w, b, w, w, b, w, w, b)


def _zero_mlp(d):
    return MlpWeights(np.zeros((d, d)), np.zeros(d), np.zeros((d, d)), np.zeros(d))


def lloyd_step(x, u):
    """One engine k-means iteration from centroids u: (new centroids, assignment)."""
    out = run_pooling(kmeans_spec(u.shape[1], 1, InitRule("matrix", matrix=u)), _fm(x))
    return out.u, out.attention.a


def _otk_costs(seed, cycles):
    """(cost, epsilon) of OTK solves drawn as the transport benchmark draws
    them: Gaussian-cluster features as ``poolkit tournament`` draws them,
    anchors drawn from the feature columns, at the ViT-S (384 x 196) and
    ResNet-50 (2048 x 49) shapes with k in {4, 16, 32}, epsilon 0.05 x the
    total per-channel variance."""
    shapes = [(d, p, k) for d, p in ((384, 196), (2048, 49)) for k in (4, 16, 32)]
    for c in range(cycles):
        for i, (d, p, k) in enumerate(shapes):
            rng = np.random.default_rng([seed, c, i])
            centers = rng.normal(scale=3.0, size=(d, 4))
            x = centers[:, rng.integers(4, size=p)] + 0.3 * rng.standard_normal((d, p))
            x = x - x.min()
            anchors = x[:, rng.choice(p, size=k, replace=False)]
            yield sq_distances(x, anchors), 0.05 * float(np.var(x, axis=1).sum())


class TestSinkhorn:
    def test_constant_cost_product_of_marginals(self):
        plan = sinkhorn(np.full((2, 2), 3.0), SinkhornParams(epsilon=1.0))
        np.testing.assert_allclose(plan, 0.25, atol=1e-9)

    def test_small_epsilon_assignment(self):
        cost = np.array([[0.0, 10.0], [10.0, 0.0]])
        plan = sinkhorn(cost, SinkhornParams(epsilon=0.05))
        np.testing.assert_allclose(plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6)

    def test_large_epsilon_entropy_limit(self):
        # entropy-dominated regime: the plan approaches the product of the
        # marginals as cost/epsilon vanishes
        rng = np.random.default_rng(17)
        cost = rng.uniform(0.0, 0.01, size=(4, 3))
        plan = sinkhorn(cost, SinkhornParams(epsilon=1000.0))
        np.testing.assert_allclose(plan, 1.0 / 12.0, atol=1e-6)

    def test_marginals_and_total_mass(self):
        rng = np.random.default_rng(18)
        for eps in (0.05, 0.1, 1.0):
            cost = rng.uniform(0.0, 10.0, size=(13, 5))
            plan = sinkhorn(cost, SinkhornParams(epsilon=eps))
            np.testing.assert_allclose(plan.sum(axis=1), 1.0 / 13.0, atol=1e-9)
            np.testing.assert_allclose(plan.sum(axis=0), 1.0 / 5.0, atol=1e-9)
            np.testing.assert_allclose(plan.sum(), 1.0, atol=1e-9)

    def test_huge_cost_small_epsilon_is_product_of_marginals(self):
        # exp(-cost/epsilon) = exp(-1e6) underflows; the log-domain plan does not
        plan = sinkhorn(np.full((3, 4), 1000.0), SinkhornParams(epsilon=1e-3))
        np.testing.assert_allclose(plan, 1.0 / 12.0, rtol=0, atol=1e-15)

    def test_clustered_duplicate_anchors_converge(self):
        # k = p anchors, each a near-duplicate of a feature column, three in
        # four from one of two equal clusters: the transport must carry mass
        # between clusters at a cost of about 190 epsilon, where alternating
        # scaling stalled past 1000 sweeps on 3 of these 10 seeds
        d, p = 8, 8
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(scale=3.0, size=(d, 2))[:, np.arange(p) % 2]
            x = x + 0.3 * rng.normal(size=(d, p))
            cols = np.r_[rng.choice(np.arange(0, p, 2), 6), rng.choice(np.arange(1, p, 2), 2)]
            anchors = x[:, cols] + 1e-6 * rng.normal(size=(d, p))
            eps = 0.02 * float(np.var(x, axis=1).sum())
            plan = otk_pool(_fm(x), anchors, eps).attention.a
            assert np.max(np.abs(plan.sum(axis=1) - 1.0 / p)) <= 1e-9
            assert np.max(np.abs(plan.sum(axis=0) - 1.0 / p)) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(shape=st.integers(2, 32).flatmap(lambda p: st.tuples(st.just(p), st.integers(2, p))),
           scale=SCALES, columns=st.sampled_from(["drawn", "near-duplicate", "constant"]),
           log_ratio=st.floats(-3.0, 0.0), data=st.data())
    def test_marginals_on_numeric_edges(self, shape, scale, columns, log_ratio, data):
        p, k = shape
        u = data.draw(arrays(np.float64, (p, k), elements=st.floats(0.0, 1.0)))
        u = {"drawn": u, "near-duplicate": u[:, :1] + 1e-9 * u,
             "constant": np.repeat(u[:1, :], p, axis=0)}[columns]
        cost = scale * u
        # epsilon from 1e-3 to 1 times the cost range, which is floored at
        # 1e-6 of the scale so that epsilon stays a normal float
        eps = 10.0**log_ratio * max(float(np.ptp(cost)), 1e-6 * scale)
        params = SinkhornParams(epsilon=eps)
        plan = sinkhorn(cost, params)
        assert np.max(np.abs(plan.sum(axis=1) - 1.0 / p)) <= params.tol
        assert np.max(np.abs(plan.sum(axis=0) - 1.0 / k)) <= params.tol

    def test_step_budget_on_criterion_grid(self, monkeypatch):
        # criterion 3's 300 solves took 5247 sweeps and Newton steps when each
        # level halved epsilon; the quarter levels, warm-started by
        # extrapolation, must stay within 80% of that
        calls = []

        def counted(step):
            def call(*args):
                calls.append(step)
                return step(*args)
            return call

        for name in ("_sweep", "_newton_step"):
            monkeypatch.setattr(cluster_poolers, name, counted(getattr(cluster_poolers, name)))
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for eps in (0.05, 0.1, 1.0):
                for _ in range(10):
                    p = int(rng.integers(2, 33))
                    k = int(rng.integers(2, min(p, 32) + 1))
                    sinkhorn(rng.uniform(0.0, 10.0, size=(p, k)), SinkhornParams(epsilon=eps, tol=1e-8))
        assert len(calls) <= 0.8 * 5247, len(calls)

    def test_step_budget_on_otk_shapes(self, monkeypatch):
        # 120 OTK solves at the benchmark's two shapes took 1861 sweeps and
        # Newton steps when each accepted step's plan was formed again from
        # the potentials and capped steps were not extended
        calls = []

        def counted(step):
            def call(*args):
                calls.append(step)
                return step(*args)
            return call

        for name in ("_sweep", "_newton_step"):
            monkeypatch.setattr(cluster_poolers, name, counted(getattr(cluster_poolers, name)))
        for cost, eps in _otk_costs(seed=7, cycles=20):
            sinkhorn(cost, SinkhornParams(epsilon=eps, tol=1e-8))
        assert len(calls) <= 1703, len(calls)

    @pytest.mark.parametrize("costs", ["criterion", "otk"])
    def test_plan_keeps_gibbs_form(self, costs):
        # the plan is carried through multiplicative updates, yet it must stay
        # exp((f_i + g_j - cost_ij) / eps): log P + cost / eps is separable
        if costs == "criterion":  # criterion 3's first seed
            rng, problems = np.random.default_rng(0), []
            for eps in (0.05, 0.1, 1.0):
                for _ in range(10):
                    p = int(rng.integers(2, 33))
                    k = int(rng.integers(2, min(p, 32) + 1))
                    problems.append((rng.uniform(0.0, 10.0, size=(p, k)), eps))
        else:
            problems = list(_otk_costs(seed=7, cycles=2))
        for cost, eps in problems:
            plan = sinkhorn(cost, SinkhornParams(epsilon=eps, tol=1e-8))
            assert np.all(plan > 0)
            m = np.log(plan) + cost / eps
            mixed = m - m[:, :1] - m[:1, :] + m[0, 0]
            assert np.max(np.abs(mixed)) <= 1e-12 * np.max(cost) / eps, np.max(np.abs(mixed))

    def test_iteration_cap_raises(self):
        rng = np.random.default_rng(102)
        cost = rng.uniform(0.0, 10.0, size=(12, 6))
        with pytest.raises(ConvergenceError, match="residual"):
            sinkhorn(cost, SinkhornParams(epsilon=0.05, max_iter=3))

    @pytest.mark.parametrize("cost, error", [(np.array([[0.0, np.nan]]), NumericError),
                                             (np.zeros((0, 3)), ShapeError)])
    def test_rejects_non_finite_or_empty_cost(self, cost, error):
        with pytest.raises(error, match="sinkhorn cost"):
            sinkhorn(cost, SinkhornParams(epsilon=1.0))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ContractError):
            SinkhornParams(epsilon=0.0)


class TestOtkPool:
    def test_k1_identity_psi_is_gap(self):
        rng = np.random.default_rng(19)
        fm = _fm(rng.normal(size=(3, 6)))
        out = otk_pool(fm, anchors=rng.normal(size=(3, 1)), epsilon=0.5)
        np.testing.assert_allclose(out.u[:, 0], gap(fm), atol=1e-8)

    def test_separated_clusters(self):
        fm = _fm([[0.0, 0.0, 10.0, 10.0]])
        out = otk_pool(fm, anchors=np.array([[0.0, 10.0]]), epsilon=0.05)
        np.testing.assert_allclose(out.u, [[0.0, 10.0]], atol=1e-3)

    @pytest.mark.parametrize("shape", [(4,), (4, 0), (3, 2)])
    def test_misshapen_anchors_raise_shape_error(self, shape):
        # the feature map has d = 4 channels; anchors must be (4, k >= 1)
        with pytest.raises(ShapeError, match=rf"anchors' has shape {re.escape(str(shape))}"):
            otk_pool(_fm(np.ones((4, 6))), np.ones(shape), epsilon=0.5)

    @settings(max_examples=200, deadline=None)
    @given(x=feature_matrices(), scale=SCALES,
           anchors=st.sampled_from(["drawn", "near-duplicate", "constant"]),
           nystrom=st.booleans(), log_ratio=st.floats(-3.0, 0.0), data=st.data())
    def test_k_equals_p_marginals(self, x, scale, anchors, nystrom, log_ratio, data):
        """k = p anchors: drawn, each a near-duplicate of its feature column,
        or all one column, whose cost columns are then identical."""
        x = scale * x
        drawn = scale * data.draw(arrays(np.float64, x.shape, elements=st.floats(-4.0, 4.0)))
        anchors = {"drawn": drawn, "near-duplicate": x + 1e-9 * drawn,
                   "constant": np.repeat(drawn[:, :1], x.shape[1], axis=1)}[anchors]
        cost = sq_distances(x, anchors)
        # epsilon from 1e-3 to 1 times the cost range, floored as in sinkhorn's edge test
        eps = 10.0**log_ratio * max(float(np.ptp(cost)), 1e-6 * scale**2)
        psi = NystromMap(anchors=anchors, sigma=scale) if nystrom else None
        params = SinkhornParams(epsilon=eps)
        plan = otk_pool(_fm(x), anchors, eps, psi=psi, params=params).attention.a
        p = x.shape[1]
        assert np.max(np.abs(plan.sum(axis=1) - 1.0 / p)) <= params.tol
        assert np.max(np.abs(plan.sum(axis=0) - 1.0 / p)) <= params.tol

    def test_single_anchor_nystrom_scalar(self):
        anchors = np.array([[1.0], [2.0]])
        psi = NystromMap(anchors=anchors, sigma=1.5)
        x = np.array([[0.5], [0.0]])
        expected = np.exp(-((0.5) ** 2 + 4.0) / (2 * 1.5**2))  # kappa(z,x), kappa(z,z)=1
        np.testing.assert_allclose(psi(x), [[expected]], atol=1e-9)


class TestNystromMap:
    def test_feature_products_reproduce_kernel(self):
        rng = np.random.default_rng(23)
        anchors = 3.0 * np.eye(4)[:, :3] + np.array([[0.0], [0.0], [0.0], [1.0]])
        psi = NystromMap(anchors, sigma=1.0)
        x = rng.normal(size=(4, 9))
        kappa = np.exp(-((anchors[:, :, None] - x[:, None, :]) ** 2).sum(axis=0) / 2.0)
        np.testing.assert_allclose(psi(anchors).T @ psi(x), kappa, rtol=0, atol=1e-10)

    def test_one_eigendecomposition_at_construction(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        rng = np.random.default_rng(24)
        psi = NystromMap(rng.normal(size=(3, 4)), sigma=2.0)
        for _ in range(3):
            psi(rng.normal(size=(3, 5)))
        assert len(calls) == 1

    def test_nan_anchor_raises(self):
        anchors = np.ones((2, 3))
        anchors[1, 2] = np.nan
        with pytest.raises(NumericError):
            NystromMap(anchors, sigma=1.0)


class TestKmeans:
    def test_hand_step(self):
        x = np.array([[0.0, 1.0, 10.0, 11.0]])
        u, _ = lloyd_step(x, np.array([[0.0, 11.0]]))
        np.testing.assert_allclose(u, [[0.5, 10.5]])

    def test_k1_is_gap(self):
        rng = np.random.default_rng(20)
        fm = _fm(rng.normal(size=(4, 9)))
        out = kmeans_pool(fm, k=1, iters=1, seed=3)
        np.testing.assert_allclose(out.u[:, 0], gap(fm), atol=1e-12)

    def test_tie_goes_to_lower_index(self):
        x = np.array([[5.0]])
        _, a = lloyd_step(x, np.array([[0.0, 10.0]]))
        np.testing.assert_array_equal(a, [[1.0, 0.0]])

    def test_empty_cluster_keeps_centroid(self):
        x = np.array([[0.0, 1.0]])
        centroids = np.array([[0.5, 100.0]])
        u, _ = lloyd_step(x, centroids)
        np.testing.assert_allclose(u, [[0.5, 100.0]])

    def test_distortion_non_increasing(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            x = rng.normal(size=(3, 20))
            fm = _fm(x)
            u = kmeans_pool(fm, k=3, iters=1, seed=trial).u
            prev = kmeans_distortion(x, u)
            for _ in range(10):
                u, _ = lloyd_step(x, u)
                cur = kmeans_distortion(x, u)
                assert cur <= prev + 1e-12
                prev = cur

    def test_matrix_form_equals_loop(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(4, 15))
        centroids = x[:, :4].copy()
        u_mat, _ = lloyd_step(x, centroids)
        # explicit per-point reference
        sums = np.zeros_like(centroids)
        counts = np.zeros(4)
        for j in range(x.shape[1]):
            dists = [np.sum((x[:, j] - centroids[:, c]) ** 2) for c in range(4)]
            c = int(np.argmin(dists))
            sums[:, c] += x[:, j]
            counts[c] += 1
        expected = np.where(counts > 0, sums / np.maximum(counts, 1), centroids)
        np.testing.assert_allclose(u_mat, expected, atol=1e-12)

    def test_k_gt_p_rejected(self):
        with pytest.raises(ContractError):
            kmeans_pool(_fm([[1.0, 2.0]]), k=3, iters=1)


class TestSlotPool:
    def test_identical_columns_uniform_attention(self):
        x = np.tile(np.array([[1.0], [2.0]]), (1, 5))
        w = SlotWeights.seeded(2, seed=4)
        out = slot_pool(_fm(x), k=1, iters=1, weights=w, seed=0, simplified=True)
        np.testing.assert_allclose(out.attention.a, 0.2, atol=1e-12)

    def test_simplified_matches_single_attention_pool(self):
        # one simplified iteration with identity weights, slots pinned to the
        # column mean, and LayerNorm off reproduces the gap-query attention
        # pooler at gamma=1 when the global feature minimum is already 0;
        # simplified mode reads neither the GRU nor the MLP
        x = np.array([[0.0, 1.0, 2.0], [3.0, 0.5, 1.0]])
        fm = _fm(x)
        u0 = gap(fm)
        w = SlotWeights(
            w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2),
            gru=_zero_gru(2), mlp=_zero_mlp(2),
            mu=u0, sigma=np.zeros(2),
        )
        out = slot_pool(fm, k=1, iters=1, weights=w, seed=0,
                        simplified=True, use_layernorm=False)
        params = SimPoolParams(w_q=np.eye(2), w_k=np.eye(2), gamma=1.0,
                               use_layernorm=False)
        u_sp, a_sp, _ = simpool_forward(fm, params)
        np.testing.assert_allclose(out.attention.a[:, 0], a_sp, atol=1e-12)
        np.testing.assert_allclose(out.u[:, 0], u_sp, atol=1e-12)

    def test_zero_weights_collapse(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        w = SlotWeights(
            w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2),
            gru=_zero_gru(2), mlp=_zero_mlp(2),
            mu=np.zeros(2), sigma=np.zeros(2),
        )
        out = slot_pool(_fm(x), k=1, iters=1, weights=w, seed=0, simplified=False)
        np.testing.assert_allclose(out.u, 0.0, atol=1e-12)

    def test_simplified_attention_stochastic(self):
        rng = np.random.default_rng(23)
        fm = _fm(rng.normal(size=(4, 10)))
        w = SlotWeights.seeded(4, seed=5)
        out = slot_pool(fm, k=3, iters=2, weights=w, seed=1, simplified=True)
        assert out.attention.stochastic_cols
        np.testing.assert_allclose(out.attention.a.sum(axis=0), 1.0, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(x=feature_matrices(), scale=SCALES, columns=COLUMN_EDGES, k_draw=st.integers(1, 9),
           simplified=st.booleans(), use_layernorm=st.booleans(), iters=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    @example(x=np.array([[1.0], [-3.0]]), scale=1e6, columns="drawn", k_draw=1,
             simplified=False, use_layernorm=True, iters=2, seed=0)  # d=2, p=1
    @example(x=np.arange(12.0).reshape(2, 6), scale=1.0, columns="drawn", k_draw=6,
             simplified=True, use_layernorm=True, iters=3, seed=1)  # k = p
    def test_matches_materialized_keys_and_values(self, x, scale, columns, k_draw, simplified,
                                                  use_layernorm, iters, seed):
        """The engine never forms W_K x~ or W_V x~ (x~ = x or LayerNorm(x));
        each iteration of slot_pool's spec, run from the reference's slots
        with the update left out, must give the attention and pooled
        values of the form that does."""
        d, p = x.shape
        k = min(k_draw, p)
        x = scale * shape_columns(x, columns)
        fm, w = _fm(x), SlotWeights.seeded(d, seed=seed)
        spec = slot_spec(k, 1, w, seed, simplified, use_layernorm)
        ln = layernorm_cols if use_layernorm else (lambda m: m)
        xt = ln(x)
        keys, values = w.w_k @ xt, w.w_v @ xt  # the d x p forms
        rng = np.random.default_rng(seed)
        u = w.mu[:, None] + w.sigma[:, None] * rng.standard_normal((d, k))
        scale_s = np.sqrt(d)
        for _ in range(iters):
            step = replace(spec, init=InitRule(kind="matrix", matrix=u), pool_update=UpdateRule())
            a_ref = col_softmax(keys.T @ (w.w_q @ ln(u)), scale_s)
            if not simplified:
                try:
                    a_ref = eta_norm(a_ref)
                except DegenerateMassError:  # a location no slot attends to
                    with pytest.raises(DegenerateMassError):
                        run_pooling(step, fm)
                    return
            out = run_pooling(step, fm)
            z_ref = values @ a_ref
            # majorants: the logits and values on absolute weights and inputs
            kappa = max(1.0, np.max(np.abs(xt).T @ (np.abs(w.w_k).T @ (np.abs(w.w_q) @ np.abs(ln(u)))))
                        / scale_s)
            assert_within_rounding(out.attention.a, a_ref, a_ref, kappa)
            assert_within_rounding(out.u, z_ref, np.abs(w.w_v) @ (np.abs(xt) @ a_ref), kappa)
            u = _update(spec.pool_update, z_ref, u)
