from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolkit import framework
from poolkit.cluster_poolers import SlotWeights, kmeans_spec, slot_spec
from poolkit.errors import ContractError, DegenerateMassError, NumericError, ShapeError
from poolkit.framework import (
    ATTENTIONS,
    AttentionMatrix,
    FeatureMap,
    MapRule,
    PooledSet,
    PoolingSpec,
    PoolRule,
    UpdateRule,
    pairwise_similarity,
    run_pooling,
)
from poolkit.matcore import as_matrix, layernorm_cols, pow2_scaled
from poolkit.meanfam import CLAMP_FLOOR
from poolkit.reweight_poolers import SeWeights, se_spec
from poolkit.simple_poolers import gem_spec, how_spec, lse_spec, max_spec
from poolkit.tensor_io import load_feature_map, write_npy

from numeric_edges import COLUMN_EDGES, SCALES, assert_within_rounding, feature_matrices, shape_columns
from test_simple_poolers import HOW_SUBNORMAL, reference_pools


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


class TestFeatureMap:
    def test_grid_mismatch(self):
        with pytest.raises(ShapeError):
            FeatureMap(np.zeros((2, 5)), width=2, height=2)

    def test_default_grid(self):
        fm = _fm([[1.0, 2.0, 3.0]])
        assert (fm.width, fm.height) == (3, 1)
        assert (fm.d, fm.p) == (1, 3)

    @pytest.mark.parametrize("source", ["array", "2-d file"])
    @pytest.mark.parametrize("side", ["width", "height"])
    def test_a_zero_side_is_a_bad_grid(self, tmp_path, source, side):
        # the other side is p // 0 unless guarded: ZeroDivisionError, not the grid check
        x = np.ones((2, 6))
        write_npy(x, tmp_path / "x.npy")
        with pytest.raises(ContractError, match="bad grid"):
            if source == "array":
                FeatureMap.from_array(x, **{side: 0})
            else:
                load_feature_map(tmp_path / "x.npy", **{side: 0})


class TestPooledSet:
    def test_non_finite_output_raises(self):
        attention = AttentionMatrix(np.ones((3, 1)))
        PooledSet(u=np.ones((2, 1)), attention=attention)
        for bad in (np.nan, np.inf):
            with pytest.raises(NumericError, match="non-finite"):
                PooledSet(u=np.array([[1.0], [bad]]), attention=attention)


class TestAttentionMatrix:
    def test_stochastic_ok(self):
        AttentionMatrix(np.array([[0.5], [0.5]]), stochastic_cols=True)

    def test_stochastic_violation(self):
        with pytest.raises(NumericError):
            AttentionMatrix(np.array([[0.5], [0.6]]), stochastic_cols=True)


class TestPairwiseSimilarity:
    def test_dot_self_is_sq_norm(self):
        k = np.array([[3.0], [4.0]])
        np.testing.assert_allclose(pairwise_similarity(k, k, "dot"), [[25.0]])

    def test_neg_sq_euclid_self_zero(self):
        k = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = pairwise_similarity(k, k, "neg_sq_euclid")
        np.testing.assert_allclose(np.diag(s), 0.0, atol=1e-12)


class TestRunPooling:
    def test_gap_instantiation(self):
        spec = PoolingSpec(
            attention="uniform",
            pool=PoolRule(kind="f_alpha", gamma=1.0),
        )
        out = run_pooling(spec, _fm([[1.0, 3.0], [5.0, 7.0]]))
        np.testing.assert_allclose(out.u[:, 0], [2.0, 6.0])

    def test_gem_instantiation(self):
        spec = PoolingSpec(
            attention="uniform",
            pool=PoolRule(kind="f_alpha", gamma=2.0),
        )
        out = run_pooling(spec, _fm([[1.0, 4.0]]))
        np.testing.assert_allclose(out.u[0, 0], np.sqrt(8.5), atol=1e-12)

    def test_kmeans_k_equals_p_identity(self):
        x = np.array([[0.0, 1.0, 10.0], [0.0, 2.0, -1.0]])
        spec = PoolingSpec(
            iters=1,
            init=x,
            similarity="neg_sq_euclid",
            attention="hard_argmax",
            pool=PoolRule(kind="f_alpha", gamma=1.0),
        )
        out = run_pooling(spec, _fm(x))
        np.testing.assert_allclose(out.u, x, atol=1e-12)

    def test_softmax_attention_flagged_stochastic(self):
        rng = np.random.default_rng(9)
        fm = _fm(rng.normal(size=(3, 6)))
        spec = PoolingSpec(init=fm.x.mean(axis=1, keepdims=True),
                           attention="col_softmax")
        out = run_pooling(spec, fm)
        assert out.attention.stochastic_cols
        np.testing.assert_allclose(out.attention.a.sum(axis=0), 1.0, atol=1e-9)

    def test_pure_and_deterministic(self):
        rng = np.random.default_rng(10)
        fm = _fm(rng.normal(size=(4, 8)))
        spec = PoolingSpec(
            iters=3,
            init=fm.sample_columns(2, 5),
            similarity="neg_sq_euclid",
            attention="hard_argmax",
        )
        u1 = run_pooling(spec, fm).u
        u2 = run_pooling(spec, fm).u
        np.testing.assert_array_equal(u1, u2)

    @pytest.mark.parametrize("spec", [PoolingSpec(), PoolingSpec(
        attention="uniform",
        pool_update=UpdateRule(kind="gru_mlp"))], ids=["similarity", "gru_mlp"])
    def test_read_init_is_required(self, spec):
        with pytest.raises(ContractError, match="spec has no init"):
            run_pooling(spec, _fm([[1.0, 2.0]]))

    def test_gamma_given_is_the_gamma_used(self, monkeypatch):
        """gem's gamma reaches the mean unchanged, with no round trip through
        another parameterization (0.1 would come back as 0.09999999999999998)."""
        from poolkit.simple_poolers import gem_spec
        seen = []
        real = framework.weighted_generalized_mean

        def spy(v, a, gamma):
            seen.append(gamma)
            return real(v, a, gamma)

        monkeypatch.setattr(framework, "weighted_generalized_mean", spy)
        run_pooling(gem_spec(0.1), _fm([[1.0, 4.0]]))
        assert seen == [0.1]

    def test_bad_spec_rejected(self):
        with pytest.raises(ContractError):
            PoolingSpec(iters=0)
        with pytest.raises(ContractError):
            PoolingSpec(similarity="manhattan")


class TestNarrowSideContract:
    """run_pooling moves every weight onto the k columns, which needs each
    weighted map to commute with the similarity or the pool it meets."""

    W = np.eye(3)

    @pytest.mark.parametrize("kind", ["identity", "linear_ln"])
    def test_weighted_key_map_needs_dot_similarity(self, kind):
        with pytest.raises(ContractError, match="key map needs dot"):
            PoolingSpec(key_map=MapRule(kind=kind, weight=self.W), similarity="neg_sq_euclid")

    @pytest.mark.parametrize("kind", ["identity", "linear_ln", "local_avg_fc"])
    @pytest.mark.parametrize("pool", [PoolRule(kind="f_alpha", gamma=2.0),
                                      PoolRule(kind="lse", r=1.0), PoolRule(kind="max")],
                             ids=["gem", "lse", "max"])
    def test_weighted_value_map_needs_the_arithmetic_mean(self, kind, pool):
        with pytest.raises(ContractError, match="value map needs the arithmetic-mean pool"):
            PoolingSpec(value_map=MapRule(kind=kind, weight=self.W), pool=pool)

    @pytest.mark.parametrize("role", ["query_map", "key_map"])
    def test_local_avg_fc_is_a_value_map_only(self, role):
        with pytest.raises(ContractError, match="value map only"):
            PoolingSpec(**{role: MapRule(kind="local_avg_fc", weight=self.W)})

    @pytest.mark.parametrize("role", ["query_map", "key_map"])
    def test_ln_shifted_is_a_value_map_only(self, role):
        with pytest.raises(ContractError, match="ln_shifted is a value map only"):
            PoolingSpec(**{role: MapRule(kind="ln_shifted")})

    def test_local_avg_fc_needs_the_l2norm_update(self):
        # its value input is scaled by a power of two that only l2norm removes
        with pytest.raises(ContractError, match="local_avg_fc needs the l2norm update"):
            PoolingSpec(value_map=MapRule(kind="local_avg_fc"))

    # One example for each rule: the combination it rejects, written in the
    # paper's (wide) order and in the engine's (narrow) order, differs by far
    # more than rounding; the combination the engine runs agrees to rounding.
    X = np.arange(1.0, 19.0).reshape(3, 6) % 5 + 0.5  # positive, on a 3 x 2 grid
    A = np.linspace(1.0, 2.0, 6)[:, None] / np.linspace(1.0, 2.0, 6).sum()
    WP = np.array([[2.0, 0.5, 0.0], [0.25, 1.0, 3.0], [1.0, 1.0, 0.5]])  # keeps values positive

    @staticmethod
    def _differ(wide, narrow):
        assert np.max(np.abs(wide - narrow)) > 1e-3 * np.max(np.abs(wide))

    def test_pin_weighted_key_map_with_neg_sq_euclid(self):
        q = np.array([[1.0], [-2.0], [0.5]])
        self._differ(pairwise_similarity(self.WP @ self.X, q, "neg_sq_euclid"),
                     pairwise_similarity(self.X, self.WP.T @ q, "neg_sq_euclid"))
        np.testing.assert_allclose(pairwise_similarity(self.WP @ self.X, q, "dot"),
                                   pairwise_similarity(self.X, self.WP.T @ q, "dot"), rtol=1e-14)

    def test_pin_weighted_value_map_at_gamma_2(self):
        self._differ(framework.weighted_generalized_mean(self.WP @ self.X, self.A, 2.0),
                     self.WP @ framework.weighted_generalized_mean(self.X, self.A, 2.0))
        np.testing.assert_allclose((self.WP @ self.X) @ self.A, self.WP @ (self.X @ self.A),
                                   rtol=1e-14)

    def test_pin_local_avg_fc_at_gamma_2(self):
        avg = framework._avg3(np.eye(6), 3, 2)  # avg3(X) = X avg: the 3x3 average of each channel
        self._differ(framework.weighted_generalized_mean(self.X @ avg, self.A, 2.0),
                     framework.weighted_generalized_mean(self.X, avg @ self.A, 2.0))
        np.testing.assert_allclose((self.X @ avg) @ self.A, self.X @ (avg @ self.A), rtol=1e-14)

    def test_pin_local_avg_fc_without_l2norm(self):
        avg = framework._avg3(np.eye(6), 3, 2)
        wide, narrow = (self.X @ avg) @ self.A, pow2_scaled(self.X) @ (avg @ self.A)
        self._differ(wide, narrow)
        np.testing.assert_allclose(wide / np.linalg.norm(wide), narrow / np.linalg.norm(narrow),
                                   rtol=1e-14)

    @pytest.mark.parametrize("kind, pool, wide_input", [
        ("ln_shifted", PoolRule(gamma=2.0),
         lambda x: np.maximum(layernorm_cols(x) - layernorm_cols(x).min(), CLAMP_FLOOR)),
        ("linear_ln", PoolRule(kind="lse", r=1.0), layernorm_cols)], ids=["ln_shifted", "linear_ln"])
    def test_unweighted_value_map_takes_any_pool(self, kind, pool, wide_input):
        PoolingSpec(value_map=MapRule(kind=kind), pool=PoolRule(gamma=2.0))
        spec = PoolingSpec(attention="uniform", value_map=MapRule(kind=kind), pool=pool)
        want = framework._pool(pool, wide_input(self.X), np.full((6, 1), 1 / 6), 0)
        np.testing.assert_allclose(run_pooling(spec, _fm(self.X)).u, want, rtol=1e-14)

    def test_every_shipped_spec_constructs(self):
        """Each shipped spec runs, with k the column count of its init (1 with none), and
        together they use every kind that each rule accepts, every attention kind and both
        similarities, so no engine branch is kept for tests alone."""
        from poolkit.simpool import SimPoolParams, simpool_spec
        from poolkit.transformer_poolers import VitWeights, vit_spec

        fm = _fm(np.arange(1.0, 13.0).reshape(3, 4), width=2, height=2)
        weights = SlotWeights.seeded(3, seed=0)
        gate = SeWeights(w1=np.ones((1, 3)), w2=np.ones((3, 1)))
        specs = [gem_spec(1.0), max_spec(), gem_spec(3.0), lse_spec(2.0), how_spec(fm),
                 se_spec(gate), kmeans_spec(2, fm.sample_columns(2, 0)),
                 simpool_spec(fm, SimPoolParams.seeded(3, seed=0))]
        specs += [slot_spec(2, 2, weights, simplified=simplified) for simplified in (False, True)]
        vit = VitWeights.seeded(3, 1, seed=0)
        specs.append(vit_spec(vit.iters[0], vit.u0, heads=3))
        for spec in specs:
            k = 1 if spec.init is None else as_matrix(spec.init).shape[1]
            pooled = run_pooling(spec, fm)
            assert pooled.u.shape[1] == k
            assert pooled.attention.stochastic_cols == (spec.attention == "col_softmax")
        rules = (MapRule, PoolRule, UpdateRule)
        accepted = {(rule.__name__, kind) for rule in rules for kind in rule.KINDS}
        used = {(type(rule).__name__, rule.kind) for spec in specs
                for rule in (spec.query_map, spec.key_map, spec.value_map, spec.pool, spec.pool_update)}
        assert accepted - used == set()
        assert {spec.attention for spec in specs} == set(ATTENTIONS)
        assert {spec.similarity for spec in specs} == {"dot", "neg_sq_euclid"}
        assert any(spec.heads > 1 for spec in specs)  # the head-blocked weights


class TestHeads:
    """Head i owns rows i d/m to (i+1) d/m of the query, W_K and W_V."""

    D, M = 6, 3
    W = [np.random.default_rng(7 + i).normal(size=(6, 6)) for i in range(3)]  # W_Q, W_K, W_V

    def _spec(self, u, w_q, w_k, w_v, heads=1):
        return PoolingSpec(heads=heads, init=u,
                           query_map=MapRule(weight=w_q), key_map=MapRule(weight=w_k),
                           value_map=MapRule(weight=w_v))

    def test_heads_below_one_rejected(self):
        with pytest.raises(ContractError, match="heads must be >= 1"):
            PoolingSpec(heads=0)

    @pytest.mark.parametrize("unweighted", ["key_map", "value_map"])
    def test_heads_need_weighted_key_and_value_maps(self, unweighted):
        maps = {"key_map": MapRule(weight=self.W[1]), "value_map": MapRule(weight=self.W[2])}
        maps[unweighted] = MapRule()
        with pytest.raises(ContractError, match="heads > 1 need col_softmax"):
            PoolingSpec(heads=2, **maps)

    @pytest.mark.parametrize("attention", [a for a in ATTENTIONS if a != "col_softmax"])
    def test_heads_need_col_softmax(self, attention):
        with pytest.raises(ContractError, match="heads > 1 need col_softmax"):
            PoolingSpec(heads=2, attention=attention, key_map=MapRule(weight=self.W[1]),
                        value_map=MapRule(weight=self.W[2]))

    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("shape", [(6,), (6, 6, 6)])
    def test_a_weight_that_is_not_2d_raises_shape_error(self, heads, shape):
        # not an IndexError from its missing column axis, nor a reshape of its extra axes
        fm = _fm(np.random.default_rng(8).normal(size=(self.D, 10)))
        with pytest.raises(ShapeError, match="value mapping"):
            run_pooling(self._spec(np.ones(self.D), *self.W[:2], np.ones(shape), heads), fm)

    def test_m_heads_are_m_single_head_runs_on_the_row_blocks(self):
        # k = 2 queries: the attention holds head i's k columns as its column block i
        rng = np.random.default_rng(8)
        fm, u = _fm(rng.normal(size=(self.D, 10))), rng.normal(size=(self.D, 2))
        out = run_pooling(self._spec(u, *self.W, heads=self.M), fm)
        step = self.D // self.M
        runs = [run_pooling(self._spec(u, *(w[i * step:(i + 1) * step] for w in self.W)), fm)
                for i in range(self.M)]
        np.testing.assert_allclose(out.u, np.concatenate([r.u for r in runs]), rtol=1e-13, atol=0)
        np.testing.assert_allclose(out.attention.a, np.mean([r.attention.a for r in runs], axis=0),
                                   rtol=1e-13, atol=0)


class TestInitOnlyWhenRead:
    """U^0 is checked and used only where a rule needs it: the query of a
    similarity, or the GRU state.  The uniform and norm attentions never need
    it, so a NaN init passes there, with k = 1, and is rejected everywhere else."""

    FM = FeatureMap(np.arange(1.0, 25.0).reshape(4, 6), width=3, height=2)
    NAN = np.full((4, 2), np.nan)

    @pytest.mark.parametrize("spec", [gem_spec(1.0), max_spec(), gem_spec(3.0), lse_spec(2.0),
                                      how_spec(FM), se_spec(SeWeights.seeded(4))],
                             ids=["gap", "max", "gem", "lse", "how", "se"])
    def test_unread_init_is_skipped(self, spec):
        u = run_pooling(replace(spec, init=self.NAN), self.FM).u
        assert u.shape == (4, 1) and np.all(np.isfinite(u))

    @pytest.mark.parametrize("spec", [kmeans_spec(1, FM.x[:, :2]),
                                      slot_spec(2, 1, SlotWeights.seeded(4), simplified=False),
                                      slot_spec(2, 1, SlotWeights.seeded(4), simplified=True)],
                             ids=["kmeans", "slot", "slot-simplified"])
    def test_read_init_is_formed(self, spec):
        with pytest.raises(NumericError, match="PoolingSpec.init: contains non-finite"):
            run_pooling(replace(spec, init=self.NAN), self.FM)


def _assert_simple_poolers_match_references(x, width):
    p = x.shape[1]
    for feats in (x, np.abs(x)):
        fm = FeatureMap(feats, width, p // width)
        for pooler, reference, majorant in reference_pools(fm).values():
            if reference is None:  # how of features that pool to the zero vector
                with pytest.raises(DegenerateMassError):
                    pooler(fm)
            else:
                assert_within_rounding(pooler(fm), reference, majorant, 1.0)


@settings(max_examples=150, deadline=None)
@given(x=feature_matrices(), scale=SCALES, columns=COLUMN_EDGES, data=st.data())
def test_simple_poolers_match_references_on_numeric_edges(x, scale, columns, data):
    """gap, max, gem, lse, how and se, each a spec run by the engine, and the
    direct cbam match their NumPy reference formulas on any grid, on the
    features and on their absolute values (gem's domain), up to the rounding
    of their majorants."""
    x = scale * shape_columns(x, columns)
    p = x.shape[1]
    _assert_simple_poolers_match_references(
        x, data.draw(st.sampled_from([w for w in range(1, p + 1) if p % w == 0])))


@pytest.mark.parametrize("name", HOW_SUBNORMAL)
def test_simple_poolers_match_references_on_subnormal_squared_norms(name):
    """Inputs the property test above once drew, pinned so that they run
    wherever the suite does: how's squared norms are subnormal there."""
    _assert_simple_poolers_match_references(HOW_SUBNORMAL[name], 1)


# name: (a call, the error class it raises, the start of its message), one row per
# contract raise of this module that no other test reaches
CONTRACT_RAISES = {
    "attention_entry_outside_0_1": (
        lambda: AttentionMatrix(np.array([[1.5], [-0.5]]), stochastic_cols=True),
        NumericError, "AttentionMatrix: entries outside [0, 1]"),
    "map_rule_kind": (lambda: MapRule("x"), ContractError, "MapRule: unknown kind 'x'"),
    "pool_rule_kind": (lambda: PoolRule("x"), ContractError, "PoolRule: unknown kind 'x'"),
    "update_rule_kind": (lambda: UpdateRule("x"), ContractError, "UpdateRule: unknown kind 'x'"),
    "spec_attention": (lambda: PoolingSpec(attention="x"), ContractError,
                       "PoolingSpec: unknown attention 'x'"),
    "similarity_rows": (lambda: pairwise_similarity(np.ones((2, 3)), np.ones((3, 1)), "dot"),
                        ShapeError, "pairwise_similarity: key (2, 3) vs query (3, 1)"),
    "similarity_kind": (lambda: pairwise_similarity(np.ones((2, 3)), np.ones((2, 1)), "cos"),
                        ContractError, "pairwise_similarity: unknown kind 'cos'"),
    "centering_of_d_plus_1": (lambda: run_pooling(PoolingSpec(
        attention="uniform", value_map=MapRule("local_avg_fc", centering=np.zeros(3)),
        pool_update=UpdateRule("l2norm")), _fm(np.ones((2, 4)), width=2)),
        ShapeError, "value mapping: operands could not be broadcast"),
    "max_pool_of_a_dead_cluster": (lambda: run_pooling(PoolingSpec(
        init=[[0.0, 10.0]], similarity="neg_sq_euclid", attention="hard_argmax",
        pool=PoolRule("max")), _fm([[0.0, 1.0]])),
        NumericError, "pooling at iteration 0: empty support in attention column 1"),
}


@pytest.mark.parametrize("name", CONTRACT_RAISES)
def test_contract_raises(name):
    call, error, message = CONTRACT_RAISES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)
