import re
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poolkit import cluster_poolers, framework
from poolkit.cli import run_method
from poolkit.cluster_poolers import (
    NystromMap,
    SinkhornParams,
    SlotWeights,
    kmeans_distortion,
    kmeans_pool,
    kmeans_spec,
    otk_pool,
    otk_spec,
    sinkhorn,
    slot_pool,
    slot_spec,
)
from poolkit.errors import ContractError, ConvergenceError, DegenerateMassError, NumericError, ShapeError
from poolkit.framework import FeatureMap, UpdateRule, _update, run_pooling
from poolkit.matcore import col_softmax, eta_norm, layernorm_cols, sq_distances
from poolkit.nncells import GruWeights, MlpWeights
from poolkit.simple_poolers import gap
from poolkit.simpool import SimPoolParams, simpool_forward
from poolkit.tensor_io import config_from_dict

from memory_peaks import traced_peak
from numeric_edges import COLUMN_EDGES, SCALES, assert_within_rounding, feature_matrices, shape_columns


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


def _zero_gru(d):
    """A GRU cell with zero weights: both gates read sigmoid(0) = 1/2, the candidate 0."""
    w = np.zeros((d, d))
    return GruWeights(w, w, w, w, w, w)


def _zero_mlp(d):
    return MlpWeights(np.zeros((d, d)), np.zeros((d, d)))


def _psi(psi, x):
    """The Nystrom features of the columns of x: M^{-1/2} times the kernel that the
    engine forms from the scores of an ``otk_spec`` run (its ``value_input``)."""
    tape = {}
    run_pooling(otk_spec(psi.anchors, SinkhornParams(epsilon=1.0), psi), _fm(x), tape)
    return np.asarray(psi) @ tape["value_input"]


def lloyd_step(x, u):
    """One engine k-means iteration from centroids u: (new centroids, assignment)."""
    out = run_pooling(kmeans_spec(1, u), _fm(x))
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


def _clustered_duplicate_anchors(seed, factor):
    """(x, anchors, epsilon) of an 8 x 8 OTK solve whose 8 anchors are
    near-duplicates of feature columns, three in four from one of two equal
    clusters, at epsilon ``factor`` x the total per-channel variance."""
    d, p = 8, 8
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=(d, 2))[:, np.arange(p) % 2]
    x = x + 0.3 * rng.normal(size=(d, p))
    cols = np.r_[rng.choice(np.arange(0, p, 2), 6), rng.choice(np.arange(1, p, 2), 2)]
    anchors = x[:, cols] + 1e-6 * rng.normal(size=(d, p))
    return x, anchors, factor * float(np.var(x, axis=1).sum())


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

    @pytest.mark.parametrize("factor", [0.005, 0.02, 0.05])
    def test_clustered_duplicate_anchors_converge_at_every_epsilon(self, factor):
        # the family above over 30 seeds, at its epsilon, a quarter of it and
        # 2.5 times it: each level of the coarse schedule must still hand over
        # a plan that the next level's Newton steps can finish (at its own
        # epsilon, the test above has run seeds 0-9)
        for seed in range(10 if factor == 0.02 else 0, 30):
            x, anchors, eps = _clustered_duplicate_anchors(seed, factor)
            plan = otk_pool(_fm(x), anchors, eps).attention.a
            p = x.shape[1]
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
        # level halved epsilon, and 3776 with levels a quarter apart that hand
        # over at a residual of 1e-3; eighth levels handing over once each
        # marginal is within a quarter of its share took 2883 when each level
        # started from the last two levels' g extrapolated linearly, and take
        # 2661 starting along the tangent of the optimal potentials
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
        assert len(calls) <= 2661, len(calls)

    def test_step_budget_on_otk_shapes(self, monkeypatch):
        # 120 OTK solves at the benchmark's two shapes took 1861 sweeps and
        # Newton steps when each accepted step's plan was formed again from
        # the potentials and capped steps were not extended, and 1703 with
        # levels a quarter apart that hand over at a residual of 1e-3; eighth
        # levels handing over once each marginal is within a quarter of its
        # share took 1390 with the linear extrapolation of g, and take 1207
        # starting along the tangent
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
        assert len(calls) <= 1207, len(calls)

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

    @pytest.mark.parametrize("kw", [{"epsilon": np.nan}, {"epsilon": np.inf},
                                    {"tol": np.nan}, {"tol": np.inf}, {"tol": -1e-9},
                                    {"max_iter": 0}, {"max_iter": -1}, {"max_iter": 2.5},
                                    {"max_iter": 100.0}])
    def test_rejects_bad_params(self, kw):
        # a non-finite epsilon ran 1000 steps and raised ConvergenceError, and a
        # negative or fractional max_iter ran with no cap
        field = next(iter(kw))
        with pytest.raises(ContractError, match=f"SinkhornParams: {field}"):
            SinkhornParams(**{"epsilon": 1.0, **kw})

    def test_accepts_zero_tol_and_numpy_integer_max_iter(self):
        params = SinkhornParams(epsilon=1.0, tol=0.0, max_iter=np.int64(3))
        assert params.max_iter == 3

    def test_converges_on_wide_range_costs(self):
        # uniform or exponential costs scaled by 1e-3 to 1e14, with range /
        # epsilon from 1 to 1e3: every solve reaches its tolerance within the
        # default cap (at wider ranges, some raise ConvergenceError)
        rng = np.random.default_rng(5)
        for i in range(100):
            p, k = int(rng.integers(1, 40)), int(rng.integers(1, 33))
            scale = 10.0 ** rng.uniform(-3.0, 14.0)
            cost = (rng.exponential(scale, (p, k)) if i % 3 == 2
                    else rng.uniform(0.0, scale, (p, k)))
            eps = 10.0 ** -rng.uniform(0.0, 3.0) * max(float(np.ptp(cost)), 1e-6 * scale)
            params = SinkhornParams(epsilon=eps)
            plan = sinkhorn(cost, params)
            assert np.max(np.abs(plan.sum(axis=1) - 1.0 / p)) <= params.tol
            assert np.max(np.abs(plan.sum(axis=0) - 1.0 / k)) <= params.tol

    def test_recovers_entries_lost_to_underflow(self):
        # draw 149 of the wide-range family drawn from default_rng(0), a 3 x 7
        # exponential cost of scale 0.077, at range / epsilon 10^3.56 and
        # 10^3.39: the plan splits into blocks joined only by entries that have
        # underflowed to 0.  Newton steps moved the blocks' relative potential
        # by hundreds of epsilon while the carried plan kept those zeros, and
        # the solve stalled until the step budget ran out; the sweep that
        # follows such a step forms the plan again from g
        rng = np.random.default_rng(0)
        for i in range(150):
            p, k = rng.integers(1, 40), rng.integers(1, 33)
            scale = 10.0 ** rng.uniform(-3.0, 14.0)
            cost = (rng.exponential(scale, (p, k)) if i % 3 == 2
                    else rng.uniform(0.0, scale, (p, k)))
            epsilons = (10.0 ** rng.uniform(-3.0, 1.0) * scale / 10, 1e-3 * scale, 1.0)
        assert cost.shape == (3, 7)
        for eps in epsilons[:2]:
            params = SinkhornParams(epsilon=eps)
            plan = sinkhorn(cost, params)
            assert np.max(np.abs(plan.sum(axis=1) - 1.0 / 3)) <= params.tol
            assert np.max(np.abs(plan.sum(axis=0) - 1.0 / 7)) <= params.tol


def _relative_g(plan, cost, eps):
    """The column potentials less the last, g_j - g_k, recovered from a
    plan's Gibbs form: eps (log P_ij - log P_ik) + C_ij - C_ik, averaged over
    the rows."""
    return (eps * (np.log(plan) - np.log(plan[:, -1:])) + cost - cost[:, -1:]).mean(axis=0)


def _handed_over(plan, cost):
    """``_tangent``'s plan, marginals and cost arguments at a plan of ``cost``."""
    return plan.T.copy(), np.r_[plan.sum(axis=1), plan.sum(axis=0)], (cost - cost.min()).T.copy()


class TestNewtonStepFallback:
    """The inputs on which ``_newton_step`` gives no step, so that ``sinkhorn``
    sweeps instead; solves at the benchmark's shapes never reach them."""

    @staticmethod
    def _marginals(plan):
        """``_newton_step``'s plan, marginals and gradient arguments at ``plan``."""
        p, k = plan.shape
        marg = np.r_[plan.sum(axis=1), plan.sum(axis=0)]
        return plan.T.copy(), marg, np.r_[np.full(p, 1 / p), np.full(k, 1 / k)] - marg

    def test_none_where_a_column_other_than_the_last_is_empty(self):
        # every row holds mass, so the Schur complement is formed, but its
        # held block has a zero row: the solve is singular
        plan_t, marg, grad = self._marginals(np.array([[0.25, 0.0, 0.25], [0.25, 0.0, 0.25]]))
        _, neg_schur = cluster_poolers._schur(plan_t, marg)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(neg_schur[:-1, :-1], np.ones(2))
        assert cluster_poolers._newton_step(plan_t, marg, grad, 1.0) is None

    def test_none_at_a_zero_gradient(self):
        # the plan meets both marginals exactly: the step is 0, and so is its slope
        plan_t, marg, grad = self._marginals(np.full((2, 2), 0.25))
        assert not grad.any()
        assert cluster_poolers._newton_step(plan_t, marg, grad, 1.0) is None

    def test_sinkhorn_sweeps_where_every_step_exhausts_its_backtracks(self, monkeypatch):
        # at an Armijo fraction of 1e300 no trial ascends enough, so every Newton
        # step gives up after its last backtrack and sweeps alone meet the tolerance
        steps = []
        newton_step = cluster_poolers._newton_step
        monkeypatch.setattr(cluster_poolers, "_newton_step",
                            lambda *args: steps.append(newton_step(*args)) or steps[-1])
        cost = np.random.default_rng(0).uniform(0.0, 1.0, size=(6, 3))
        sinkhorn(cost, SinkhornParams(epsilon=1.0))
        assert any(step is not None for step in steps)  # at the default fraction, steps are taken
        steps.clear()
        monkeypatch.setattr(cluster_poolers, "ARMIJO", 1e300)
        plan = sinkhorn(cost, SinkhornParams(epsilon=1.0))
        assert steps and all(step is None for step in steps)
        assert np.max(np.abs(plan.sum(axis=1) - 1.0 / 6)) <= 1e-9
        assert np.max(np.abs(plan.sum(axis=0) - 1.0 / 3)) <= 1e-9


class TestTangent:
    H = 1e-4  # relative epsilon step of the central difference

    def _error(self, cost, eps):
        """(S-weighted, plain) max difference between the predicted dg/deps
        and a central difference of converged g, in the last-column gauge,
        and the plain difference's scale."""
        def relative_g(e):
            return _relative_g(sinkhorn(cost, SinkhornParams(epsilon=e, tol=1e-13)), cost, e)

        fd = (relative_g(eps * (1 + self.H)) - relative_g(eps * (1 - self.H))) / (2 * self.H * eps)
        plan = sinkhorn(cost, SinkhornParams(epsilon=eps, tol=1e-13))
        plan_t, marg, cost_t = _handed_over(plan, cost)
        g, nxt = _relative_g(plan, cost, eps), eps * (1 - self.H)
        pred = (cluster_poolers._tangent(plan_t, marg, cost_t, g, eps, nxt) - g) / (nxt - eps)
        _, neg_schur = cluster_poolers._schur(plan_t, marg)
        return np.abs(neg_schur @ (pred - fd)).max(), np.abs(pred - fd).max(), np.abs(fd).max()

    def test_matches_central_difference_on_criterion_grid(self):
        # where a plan entry is far below tol, the marginals hardly pin g along
        # the potentials it couples, so converged g may differ by many epsilon
        # there; weighting the difference by S, the change of the column sums
        # with g, compares the two where the plan pins them
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for eps in (0.05, 0.1, 1.0):
                for _ in range(10):
                    p = int(rng.integers(2, 33))
                    k = int(rng.integers(2, min(p, 32) + 1))
                    weighted, _, _ = self._error(rng.uniform(0.0, 10.0, size=(p, k)), eps)
                    assert weighted <= 1e-8, (seed, eps, p, k, weighted)

    def test_matches_central_difference_on_an_otk_shape(self):
        # the benchmark's ViT-S shape: 196 x 16, every entry far above tol
        cost, eps = list(_otk_costs(seed=7, cycles=1))[1]
        assert cost.shape == (196, 16)
        weighted, plain, scale = self._error(cost, eps)
        assert weighted <= 1e-9, weighted
        assert plain <= 1e-6 * scale, (plain, scale)

    def _move(self, cost, eps, nxt):
        plan = sinkhorn(cost, SinkhornParams(epsilon=eps, tol=1e-12))
        g = _relative_g(plan, cost, eps)
        return cluster_poolers._tangent(*_handed_over(plan, cost), g, eps, nxt) - g

    def test_no_move_at_one_column(self):
        # k = 1: g holds only the gauge, which the move keeps
        cost = np.random.default_rng(0).uniform(0.0, 10.0, size=(7, 1))
        assert np.array_equal(self._move(cost, 1.0, 0.125), [0.0])

    def test_no_move_at_one_row(self):
        # p = 1: g_j - g_k = C_j - C_k at every epsilon, so the move is
        # rounding of g, which is of the cost's size
        cost = np.random.default_rng(1).uniform(0.0, 10.0, size=(1, 9))
        assert np.max(np.abs(self._move(cost, 1.0, 0.125))) <= 1e-11 * 10.0

    def test_no_move_between_duplicate_anchor_columns(self):
        # duplicate anchors give equal cost columns, and so equal potentials at
        # every epsilon; their relative potential must not move
        x, anchors, eps = _clustered_duplicate_anchors(3, 0.02)
        anchors = anchors[:, [0, 1, 2, 0, 3, 1]]
        move = self._move(sq_distances(x, anchors), 8 * eps, eps)
        assert abs(move[0] - move[3]) <= 1e-10 * eps and abs(move[1] - move[5]) <= 1e-10 * eps
        assert np.ptp(move) > 1e-3 * eps  # the other potentials do move

    def test_no_move_where_schur_complement_is_undefined_or_singular(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(0.0, 10.0, size=(6, 4))
        plan = sinkhorn(cost, SinkhornParams(epsilon=1.0))
        g = rng.normal(size=4)
        for emptied in (np.s_[2, :], np.s_[:, 1]):  # a row's mass, a column's mass
            empty = plan.copy()
            empty[emptied] = 0.0
            out = cluster_poolers._tangent(*_handed_over(empty, cost), g, 1.0, 0.125)
            assert out is g

    def test_no_move_where_the_move_is_not_finite(self):
        cost = np.random.default_rng(4).uniform(0.0, 10.0, size=(5, 2))
        plan = sinkhorn(cost, SinkhornParams(epsilon=1.0))
        g = np.array([np.inf, 0.0])
        assert cluster_poolers._tangent(*_handed_over(plan, cost), g, 1.0, 0.125) is g

    def test_clips_a_move_wider_than_the_entropy_scale(self):
        cost = np.random.default_rng(3).uniform(0.0, 10.0, size=(6, 4))
        plan = sinkhorn(cost, SinkhornParams(epsilon=1.0))
        g = _relative_g(plan, cost, 1.0)
        g[0] += 1e6  # far from the plan's potentials: the move along g_0 is huge
        move = cluster_poolers._tangent(*_handed_over(plan, cost), g, 1.0, 0.125) - g
        bound = 2.0 * (1.0 - 0.125) * np.log(np.e * 6 * 4)
        assert np.isclose(move.max(), bound, rtol=1e-12) and np.isclose(move.min(), -bound, rtol=1e-12)


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

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_plan_unchanged_under_a_shift(self, offset):
        # multiples of 1/64 near 0, so that every shifted entry is exact
        x = np.random.default_rng(26).integers(-128, 128, size=(4, 10)) / 64
        params = SinkhornParams(epsilon=0.5)
        plans = [otk_pool(_fm(f), f[:, [1, 4, 7]], 0.5, params=params).attention.a
                 for f in (x, x + offset)]
        assert np.max(np.abs(plans[1] - plans[0])) <= params.tol

    @pytest.mark.parametrize("shape", [(4,), (4, 0), (3, 2)])
    def test_misshapen_anchors_raise_shape_error(self, shape):
        # the feature map has d = 4 channels; anchors must be (4, k >= 1)
        with pytest.raises(ShapeError, match=rf"anchors' has shape {re.escape(str(shape))}"):
            otk_pool(_fm(np.ones((4, 6))), np.ones(shape), epsilon=0.5)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchors_raise_numeric_error(self, entry):
        anchors = np.ones((4, 2))
        anchors[1, 1] = entry
        with pytest.raises(NumericError, match="'anchors' contain non-finite entries"):
            otk_pool(_fm(np.ones((4, 6))), anchors, epsilon=0.5)

    @settings(max_examples=100, deadline=None)
    @given(x=feature_matrices(), k=st.integers(1, 5), log_ratio=st.floats(-2.0, 0.0),
           log_sigma=st.one_of(st.none(), st.floats(-1.0, 1.0)), data=st.data())
    def test_engine_equals_the_direct_formula(self, x, k, log_ratio, log_sigma, data):
        """Named cross-check of otk_pool's engine run against the transport formula,
        written here only: u = (X P) k, P = sinkhorn(sq_distances(X, anchors)), byte for
        byte, and with psi (M^{-1/2} exp(-sq^T / 2 sigma^2)) P k, to rounding."""
        anchors = data.draw(arrays(np.float64, (x.shape[0], k), elements=st.floats(-4.0, 4.0)))
        sq = sq_distances(x, anchors)
        params = SinkhornParams(epsilon=10.0**log_ratio * max(float(np.ptp(sq)), 1e-6))
        plan = sinkhorn(sq, params)
        if log_sigma is None:
            out = otk_pool(_fm(x), anchors, params.epsilon, params=params)
            assert np.array_equal(out.attention.a, plan)
            assert np.array_equal(out.u, (x @ plan) * k)
            return
        psi = NystromMap(anchors, sigma=10.0**log_sigma)
        out = otk_pool(_fm(x), anchors, params.epsilon, psi=psi, params=params)
        assert np.array_equal(out.attention.a, plan)
        kernel = np.exp(-sq.T / (2.0 * psi.sigma**2))
        assert_within_rounding(out.u, (np.asarray(psi) @ kernel) @ plan * k,
                               (np.abs(np.asarray(psi)) @ kernel) @ plan * k, 1.0)

    def test_params_epsilon_must_match_epsilon(self):
        # a params epsilon that differs would be solved at silently
        fm = _fm(np.arange(12.0).reshape(2, 6))
        anchors = fm.x[:, :2]
        with pytest.raises(ContractError, match="epsilon=0.5 but params.epsilon=0.1"):
            otk_pool(fm, anchors, 0.5, params=SinkhornParams(epsilon=0.1))
        out = otk_pool(fm, anchors, 0.5, params=SinkhornParams(epsilon=0.5))
        assert np.array_equal(out.u, otk_pool(fm, anchors, 0.5).u)

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

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_shared_anchors_form_one_distance_matrix(self, monkeypatch, contiguous):
        """psi anchored at the transport anchors: the engine forms one sq_distances
        per call, bit-identical to x's distances to psi.anchors, for the cost and for
        psi; anchored elsewhere: ContractError, before any distance is formed.
        C-contiguous or not, the anchors leave the plan, and u without psi,
        bit-identical to those formed from the distances to the anchors passed."""
        rng = np.random.default_rng(31)
        fm = _fm(rng.normal(size=(6, 20)))
        anchors = fm.x[:, [3, 7, 11, 15]]  # sampled columns are not C-contiguous
        if contiguous:
            anchors = np.ascontiguousarray(anchors)
        psi, elsewhere = NystromMap(anchors, sigma=2.0), NystromMap(fm.x[:, :4], sigma=2.0)
        params = SinkhornParams(epsilon=0.5)
        formed = []
        monkeypatch.setattr(framework, "sq_distances",
                            lambda x, u: formed.append(sq_distances(x, u)) or formed[-1])
        out = otk_pool(fm, anchors, 0.5, psi=psi, params=params)
        assert len(formed) == 1
        with pytest.raises(ContractError, match="psi must be anchored at the transport anchors"):
            otk_pool(fm, anchors, 0.5, psi=elsewhere, params=params)
        assert len(formed) == 1
        monkeypatch.undo()
        assert np.array_equal(formed[0], sq_distances(fm.x, psi.anchors))
        feats = _psi(psi, fm.x)
        plan = sinkhorn(sq_distances(fm.x, anchors), params)
        bare = otk_pool(fm, anchors, 0.5, params=params)
        assert np.array_equal(out.attention.a, plan)
        assert np.array_equal(bare.u, (fm.x @ plan) * 4)
        np.testing.assert_allclose(out.u, (feats @ plan) * 4, rtol=1e-12, atol=0)

    def test_engine_runs_on_psi_anchors(self, monkeypatch):
        """With psi, the engine's U^0 is psi.anchors itself, already C-ordered and
        checked, not a second copy of the (here not C-contiguous) anchors passed."""
        fm = _fm(np.random.default_rng(32).normal(size=(6, 20)))
        anchors = fm.x[:, [2, 9, 13]]
        psi = NystromMap(anchors, sigma=2.0)
        specs = []
        monkeypatch.setattr(cluster_poolers, "run_pooling",
                            lambda spec, fm: specs.append(spec) or run_pooling(spec, fm))
        otk_pool(fm, anchors, 0.5, psi=psi)
        assert specs[0].init is psi.anchors

    def test_psi_with_wrong_channel_count_raises_shape_error(self):
        fm = _fm(np.ones((4, 6)))
        psi = NystromMap(np.ones((3, 2)), sigma=1.0)
        with pytest.raises(ShapeError, match=re.escape("psi.anchors has shape (3, 2)")):
            otk_pool(fm, np.ones((4, 2)), epsilon=0.5, psi=psi)

    def test_single_anchor_nystrom_scalar(self):
        anchors = np.array([[1.0], [2.0]])
        psi = NystromMap(anchors=anchors, sigma=1.5)
        x = np.array([[0.5], [0.0]])
        expected = np.exp(-((0.5) ** 2 + 4.0) / (2 * 1.5**2))  # kappa(z,x), kappa(z,z)=1
        np.testing.assert_allclose(_psi(psi, x), [[expected]], atol=1e-9)


class TestNystromMap:
    def test_feature_products_reproduce_kernel(self):
        rng = np.random.default_rng(23)
        anchors = 3.0 * np.eye(4)[:, :3] + np.array([[0.0], [0.0], [0.0], [1.0]])
        psi = NystromMap(anchors, sigma=1.0)
        x = rng.normal(size=(4, 9))
        kappa = np.exp(-((anchors[:, :, None] - x[:, None, :]) ** 2).sum(axis=0) / 2.0)
        np.testing.assert_allclose(_psi(psi, anchors).T @ _psi(psi, x), kappa, rtol=0, atol=1e-10)

    def test_one_eigendecomposition_at_construction(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        rng = np.random.default_rng(24)
        psi = NystromMap(rng.normal(size=(3, 4)), sigma=2.0)
        for _ in range(3):
            _psi(psi, rng.normal(size=(3, 5)))
        assert len(calls) == 1

    @pytest.mark.parametrize("sigma", [1e200, 1e-200, 1e-150])
    def test_extreme_bandwidths(self, sigma):
        """2 sigma^2 overflows at 1e200 and is 0 at 1e-200: ContractError, not an
        OverflowError or a non-finite output.  At 1e-150 a distance over 2 sigma^2
        leaves the float range, and its kernel entry is exp(-inf) = 0, with no warning."""
        fm = _fm(1e5 * np.random.default_rng(40).normal(size=(4, 12)))
        cols = [1, 5, 9]
        if sigma != 1e-150:
            with pytest.raises(ContractError, match=r"2 sigma\^2 finite and > 0"):
                NystromMap(fm.x[:, cols], sigma=sigma)
            return
        out = otk_pool(fm, fm.x[:, cols], 1e9, psi=NystromMap(fm.x[:, cols], sigma=sigma))
        assert np.isfinite(out.u).all()

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ContractError, match="sigma"):
            NystromMap(np.ones((2, 3)), sigma=sigma)

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

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ContractError, match=f"cannot sample {k} distinct columns"):
            kmeans_pool(_fm([[1.0, 2.0]]), k=k, iters=1)

    @settings(max_examples=60, deadline=None)
    @given(x=st.tuples(st.integers(1, 6), st.integers(1, 12)).flatmap(lambda shape: arrays(
               np.float64, shape, elements=st.integers(-32, 32).map(lambda v: v / 8))),
           scale=st.sampled_from([2.0**-1000, 2.0**-500, 1.0, 2.0**500, 2.0**1000]),
           k_draw=st.integers(1, 4), iters=st.integers(1, 4), seed=st.integers(0, 2**16))
    @example(x=np.repeat([[0.0, 3.0], [0.0, 3.0]], 6, axis=1)
             + np.random.default_rng(0).normal(scale=0.5, size=(2, 12)),
             scale=1e-200, k_draw=2, iters=3, seed=0)  # every squared distance underflows unscaled
    def test_scaling_the_features_scales_the_centroids(self, x, scale, k_draw, iters, seed):
        # eighths, with their ties, stay exact at every power-of-two scale
        k = min(k_draw, x.shape[1])
        want = kmeans_pool(_fm(x), k, iters, seed)
        got = kmeans_pool(_fm(scale * x), k, iters, seed)
        assert got.attention.a.tobytes() == want.attention.a.tobytes()
        np.testing.assert_allclose(got.u / scale, want.u, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_labels_unchanged_under_a_shift(self, offset):
        rng = np.random.default_rng(25)
        x = np.repeat(np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), 6, axis=1)
        x += rng.normal(scale=0.4, size=x.shape)
        labels = [np.argmax(kmeans_pool(_fm(f), k=3, iters=4, seed=2).attention.a, axis=1)
                  for f in (x, x + offset)]
        np.testing.assert_array_equal(labels[1], labels[0])


class TestSlotPool:
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ContractError, match="k must be >= 1"):
            slot_pool(_fm([[1.0, 2.0], [3.0, 5.0]]), k=k, iters=1, weights=SlotWeights.seeded(2))

    def test_identical_columns_uniform_attention(self):
        x = np.tile(np.array([[1.0], [2.0]]), (1, 5))
        w = SlotWeights.seeded(2, seed=4)
        out = slot_pool(_fm(x), k=1, iters=1, weights=w, seed=0, simplified=True)
        np.testing.assert_allclose(out.attention.a, 0.2, atol=1e-12)

    def test_simplified_matches_single_attention_pool(self):
        # one simplified iteration with identity weights and slots pinned to
        # the column mean u0 reproduces the gap-query attention pooler at
        # gamma=1 whose W_Q maps u0 to the slot query LayerNorm(u0), up to
        # its shift of the values by their minimum and the clamp of that
        # minimum to CLAMP_FLOOR = 1e-12; simplified mode reads neither the
        # GRU nor the MLP
        x = np.array([[0.0, 1.0, 2.0], [3.0, 0.5, 1.0]])
        fm = _fm(x)
        u0 = gap(fm)
        w = SlotWeights(
            w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2),
            gru=_zero_gru(2), mlp=_zero_mlp(2),
            mu=u0, sigma=np.zeros(2),
        )
        out = slot_pool(fm, k=1, iters=1, weights=w, seed=0, simplified=True)
        w_q = np.diag(layernorm_cols(u0[:, None])[:, 0] / u0)
        u_sp, a_sp, tape = simpool_forward(fm, SimPoolParams(w_q=w_q, w_k=np.eye(2), gamma=1.0))
        np.testing.assert_allclose(out.attention.a[:, 0], a_sp, atol=1e-12)
        np.testing.assert_allclose(out.u[:, 0] - tape["key_input"].min(), u_sp, atol=2e-12)

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

    @pytest.mark.parametrize("simplified", [True, False], ids=["simplified", "full"])
    def test_temperature_is_the_query_dimension(self, simplified):
        # W_Q and W_K map d = 6 channels to d_q = 4: the scores are taken in
        # d_q dimensions, so both modes divide them by sqrt(d_q), the D of
        # Locatello et al. (2020); W_V, the GRU and the MLP stay d wide
        d, d_q, p, k = 6, 4, 10, 3
        rng = np.random.default_rng(31)
        x = rng.normal(size=(d, p))
        w = replace(SlotWeights.seeded(d, seed=2), w_q=rng.normal(size=(d_q, d)) / 2,
                    w_k=rng.normal(size=(d_q, d)) / 2)
        u = w.mu[:, None] + w.sigma[:, None] * np.random.default_rng(0).standard_normal((d, k))
        keys = w.w_k @ layernorm_cols(x)  # the d_q x p form
        a_ref = col_softmax(keys.T @ (w.w_q @ layernorm_cols(u)), np.sqrt(d_q))
        if not simplified:
            a_ref = eta_norm(a_ref)
        a = slot_pool(_fm(x), k, 1, w, seed=0, simplified=simplified).attention.a
        np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-13)

    @settings(max_examples=150, deadline=None)
    @given(x=feature_matrices(), scale=SCALES, columns=COLUMN_EDGES, k_draw=st.integers(1, 9),
           simplified=st.booleans(), iters=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(x=np.array([[1.0], [-3.0]]), scale=1e6, columns="drawn", k_draw=1,
             simplified=False, iters=2, seed=0)  # d=2, p=1
    @example(x=np.arange(12.0).reshape(2, 6), scale=1.0, columns="drawn", k_draw=6,
             simplified=True, iters=3, seed=1)  # k = p
    def test_matches_materialized_keys_and_values(self, x, scale, columns, k_draw, simplified,
                                                  iters, seed):
        """The engine never forms W_K x~ or W_V x~ (x~ = LayerNorm(x));
        each iteration of slot_pool's spec, run from the reference's slots
        with the update left out, must give the attention and pooled
        values of the form that does."""
        d, p = x.shape
        k = min(k_draw, p)
        x = scale * shape_columns(x, columns)
        fm, w = _fm(x), SlotWeights.seeded(d, seed=seed)
        spec = slot_spec(k, 1, w, seed, simplified)
        xt = layernorm_cols(x)
        keys, values = w.w_k @ xt, w.w_v @ xt  # the d x p forms
        rng = np.random.default_rng(seed)
        u = w.mu[:, None] + w.sigma[:, None] * rng.standard_normal((d, k))
        scale_s = np.sqrt(d)
        for _ in range(iters):
            step = replace(spec, init=u, pool_update=UpdateRule())
            un = layernorm_cols(u)
            a_ref = col_softmax(keys.T @ (w.w_q @ un), scale_s)
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
            kappa = max(1.0, np.max(np.abs(xt).T @ (np.abs(w.w_k).T @ (np.abs(w.w_q) @ np.abs(un))))
                        / scale_s)
            assert_within_rounding(out.attention.a, a_ref, a_ref, kappa)
            assert_within_rounding(out.u, z_ref, np.abs(w.w_v) @ (np.abs(xt) @ a_ref), kappa)
            u = _update(spec.pool_update, z_ref, u)


class TestSimplifiedSlotWeights:
    """Simplified slot attention reads W_Q, W_K, W_V, mu and sigma only, so
    its weights stop the draw before the GRU's and MLP's 8 d^2 signs and
    hold None."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 48), seed=st.integers(0, 2**64 - 1))
    def test_full_draw_order(self, d, seed):
        rng = np.random.default_rng(seed)

        def signs(n, fan_in):  # entry i: +-1/sqrt(fan_in) as bit i of ceil(n/8) bytes is 1 or 0
            bits = np.unpackbits(np.frombuffer(rng.bytes(-(-n // 8)), dtype=np.uint8))[:n]
            return np.where(bits == 1, 1.0 / np.sqrt(fan_in), -1.0 / np.sqrt(fan_in))

        def square():  # every GRU and MLP matrix is d x d too, at fan-in d
            return signs(d * d, d).reshape(d, d)

        want = {"w_q": square(), "w_k": square(), "w_v": square(),
                "mu": signs(d, 1), "sigma": np.abs(signs(d, 1)) + 0.1}
        want.update({f"gru.{f.name}": square() for f in fields(GruWeights)})
        want.update({f"mlp.{f.name}": square() for f in fields(MlpWeights)})
        got = SlotWeights.seeded(d, seed=seed)
        for name, want_array in want.items():
            got_array = np.asarray(attrgetter(name)(got))
            assert got_array.shape == want_array.shape, name
            assert got_array.tobytes() == want_array.tobytes(), name

    @pytest.mark.parametrize("d, seed", [(1, 0), (5, 2**64 - 1), (48, 7), (2048, 3)])
    def test_simplified_draw_stops_after_sigma(self, monkeypatch, d, seed):
        default_rng, made = np.random.default_rng, []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda s: made.append(default_rng(s)) or made[-1])
        SlotWeights.seeded(d, seed=seed, simplified=True)
        fresh = default_rng(seed)
        for n in (d * d, d * d, d * d, d, d):  # W_Q, W_K, W_V, mu, sigma
            fresh.bytes(-(-n // 8))
        # the 128-bit PCG state counts the 64-bit outputs taken; draw_bytes reads them raw,
        # so bytes' half-word buffer (has_uint32, uinteger) is never filled
        assert len(made) == 1
        assert made[0].bit_generator.state["state"] == fresh.bit_generator.state["state"]

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 48), seed=st.integers(0, 2**64 - 1))
    def test_skipped_draw_keeps_the_other_arrays(self, d, seed):
        full = SlotWeights.seeded(d, seed=seed)
        simple = SlotWeights.seeded(d, seed=seed, simplified=True)
        for name in ("w_q", "w_k", "w_v", "mu", "sigma"):
            got, want = np.asarray(getattr(simple, name)), np.asarray(getattr(full, name))
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert simple.gru is None and simple.mlp is None

    def test_full_mode_rejects_simplified_weights(self):
        w = SlotWeights.seeded(3, seed=2, simplified=True)
        fm = _fm(np.arange(12.0).reshape(3, 4))
        with pytest.raises(ContractError, match="full mode needs GRU and MLP weights"):
            slot_pool(fm, k=2, iters=1, weights=w, seed=0, simplified=False)
        slot_pool(fm, k=2, iters=1, weights=w, seed=0, simplified=True)

    @settings(max_examples=40, deadline=None)
    @given(x=feature_matrices(st.integers(1, 48)), k_draw=st.integers(1, 9),
           iters=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_cli_slot_is_simplified_slot_pool(self, x, k_draw, iters, seed):
        fm = _fm(x)
        k = min(k_draw, fm.p)
        cfg = config_from_dict({"method": "slot", "k": k, "iters": iters, "seed": seed})
        got = run_method(cfg, fm)
        want = slot_pool(fm, k, iters, SlotWeights.seeded(fm.d, seed=seed), seed=seed,
                         simplified=True)
        assert got.u.tobytes() == want.u.tobytes()
        assert got.attention.a.tobytes() == want.attention.a.tobytes()

    def test_cli_slot_request_holds_under_five_square_matrices(self):
        d = 256
        fm = FeatureMap(np.random.default_rng(0).normal(size=(d, 49)), 7, 7)
        cfg = config_from_dict({"method": "slot", "seed": 3})
        # the full draw holds 11 d x d matrices; simplified keeps 3
        assert traced_peak(run_method, cfg, fm) < 5 * d * d * 8
