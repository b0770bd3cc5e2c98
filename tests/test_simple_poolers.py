import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolkit.errors import DegenerateMassError, ShapeError
from poolkit.framework import FeatureMap
from poolkit.meanfam import CLAMP_FLOOR, weighted_generalized_mean
from poolkit.nncells import draw
from poolkit.reweight_poolers import CbamWeights, SeWeights, cbam_pool, se_pool
from poolkit.simple_poolers import HowConfig, gap, gem, how, how_spec, lse, max_pool

from memory_peaks import traced_peak
from numeric_edges import COLUMN_EDGES, SCALES, assert_within_rounding, feature_matrices, shape_columns


def _fm(x, **kw):
    return FeatureMap.from_array(np.asarray(x, dtype=float), **kw)


# Features whose squared norms are subnormal, and in the last two whose
# entries are too (there 2^-e is beyond the float range): unscaled, their
# squares, products and norms lose most of their digits.
HOW_SUBNORMAL = {"three-channels": 1e-108 * np.array([[3.1], [1.7], [2.2]]),
                 "symmetric": np.full((2, 1), 7.59162261e-108),
                 "subnormal-features": np.full((2, 1), 2.22507386e-311),
                 "least-subnormal": np.full((3, 1), 5e-324)}


class TestGap:
    def test_hand_value(self):
        np.testing.assert_allclose(gap(_fm([[1.0, 3.0], [5.0, 7.0]])), [2.0, 6.0])

    def test_single_column(self):
        np.testing.assert_allclose(gap(_fm([[4.0], [5.0]])), [4.0, 5.0])

    def test_column_permutation_invariant(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 7))
        perm = rng.permutation(7)
        np.testing.assert_allclose(gap(_fm(x)), gap(_fm(x[:, perm])), atol=1e-15)


class TestMaxPool:
    def test_constant_rows(self):
        np.testing.assert_allclose(max_pool(_fm([[2.0, 2.0, 2.0]])), [2.0])

    def test_hand_value(self):
        np.testing.assert_allclose(max_pool(_fm([[1.0, 4.0]])), [4.0])

    def test_power_mean_limit(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.1, 5.0, size=(4, 6))
        uniform = np.full((6, 1), 1.0 / 6)
        approx = weighted_generalized_mean(x, uniform, 200.0)[:, 0]
        exact = max_pool(_fm(x))
        assert np.all(np.abs(approx - exact) / exact < 0.01)


class TestGem:
    def test_gamma_one_is_gap(self):
        rng = np.random.default_rng(13)
        fm = _fm(rng.uniform(0.1, 2.0, size=(3, 5)))
        np.testing.assert_allclose(gem(fm, 1.0), gap(fm), atol=1e-15)

    def test_rms_value(self):
        np.testing.assert_allclose(gem(_fm([[1.0, 4.0]]), 2.0),
                                   [np.sqrt(8.5)], atol=1e-12)

    def test_large_gamma_near_max(self):
        fm = _fm([[0.5, 2.0, 1.0]])
        assert abs(gem(fm, 200.0)[0] - 2.0) / 2.0 < 0.01

    def test_monotone_in_gamma_bounded_by_max(self):
        rng = np.random.default_rng(14)
        fm = _fm(rng.uniform(0.1, 4.0, size=(4, 6)))
        prev = gem(fm, 0.5)
        for g in (1.0, 2.0, 5.0, 20.0):
            cur = gem(fm, g)
            assert np.all(cur >= prev - 1e-12)
            prev = cur
        assert np.all(prev <= max_pool(fm) + 1e-12)


class TestLse:
    def test_hand_value(self):
        out = lse(_fm([[0.0, np.log(3.0)]]), 1.0)
        np.testing.assert_allclose(out, [np.log(2.0)], atol=1e-12)


# ViT-S features: d x p = 384 x (14 x 14), nonnegative for the power mean
VITS = np.abs(np.random.default_rng(7).normal(size=(384, 196))) + 0.1


@pytest.mark.parametrize("pool, arg, bound", [(max_pool, (), 0.1), (lse, (5.0,), 1.5),
                                              (gem, (3.0,), 1.5)])
def test_pool_forms_at_most_one_feature_sized_temporary(pool, arg, bound):
    """max reduces over the support without copying it; LSE and the power
    mean transform one d x p temporary in place (the parent formed 1.02,
    3.01 and 3.01 of them)."""
    fm = FeatureMap(VITS, 14, 14)
    assert traced_peak(pool, fm, *arg) < bound * VITS.nbytes


class TestHow:
    def test_single_location_identity(self):
        x = np.array([[3.0], [4.0]])
        out = how(FeatureMap(x, width=1, height=1))
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-12)

    def test_one_by_two_hand_trace(self):
        # a = [1, 4]; 3x3 average on a 1x2 grid smooths both cells to 1.5;
        # z = 1.5*1 + 1.5*4 = 7.5; normalized scalar -> 1
        out = how(FeatureMap(np.array([[1.0, 2.0]]), width=2, height=1))
        np.testing.assert_allclose(out, [1.0], atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(15)
        fm = FeatureMap(rng.normal(size=(5, 12)), width=4, height=3)
        np.testing.assert_allclose(np.linalg.norm(how(fm)), 1.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-108, 1e-50, 1e50, 1e150, 1e250])
    def test_scale_invariant_across_the_float_range(self, scale):
        # the squared norms of the raw features would underflow or overflow
        # here; those of the power-of-two scaled features do not
        rng = np.random.default_rng(16)
        x = rng.uniform(0.5, 4.0, size=(5, 12)) * rng.choice([-1.0, 1.0], size=(5, 12))
        want = how(FeatureMap(x, width=4, height=3))
        np.testing.assert_allclose(how(FeatureMap(scale * x, width=4, height=3)), want,
                                   rtol=0, atol=1e-15)

    def test_zero_features_degenerate(self):
        with pytest.raises(DegenerateMassError):
            how(FeatureMap(np.zeros((2, 4)), width=2, height=2))

    @pytest.mark.parametrize("centered", [False, True])
    def test_features_are_left_unchanged(self, centered):
        # the value input is scaled in place only on its own array, X - c
        x = np.random.default_rng(17).uniform(0.5, 4.0, size=(5, 12))
        fm = FeatureMap(x.copy(), width=4, height=3)
        how(fm, HowConfig(centering=np.full(5, 0.25) if centered else None))
        np.testing.assert_array_equal(fm.x, x)

    @pytest.mark.parametrize("cfg", [
        HowConfig(centering=np.ones(1)),
        HowConfig(centering=np.ones((3, 1))),
        HowConfig(projection=np.ones((3, 2))),
        HowConfig(projection=np.ones(3)),
        HowConfig(projection=np.ones((0, 3))),
    ], ids=["centering-scalar", "centering-column", "projection-cols", "projection-1d",
            "projection-no-rows"])
    def test_misfit_weights_raise_shape_error(self, cfg):
        # centering must be (d,) and projection (n >= 1, d): nothing broadcasts
        fm = FeatureMap(np.ones((3, 4)), width=2, height=2)
        with pytest.raises(ShapeError, match="3-channel features need"):
            how(fm, cfg)

    def test_spec_without_projection_holds_no_square_weight(self):
        # no projection means none applied, not a d x d identity multiplied in
        fm = FeatureMap(np.arange(1.0, 13.0).reshape(3, 4), width=2, height=2)
        spec = how_spec(fm, HowConfig(centering=np.ones(3)))
        assert spec.value_map.weight is None
        assert all(a.shape != (3, 3) for a in _arrays(spec))

    def test_projection_may_change_the_output_size(self):
        fm = FeatureMap(np.arange(1.0, 13.0).reshape(3, 4), width=2, height=2)
        cfg = HowConfig(projection=np.ones((2, 3)))  # n = 2 outputs from d = 3 channels
        out = how(fm, cfg)
        assert out.shape == (2,)
        # both rows sum the same positive z, so the unit output is their diagonal
        np.testing.assert_allclose(out, np.full(2, np.sqrt(0.5)), atol=1e-12)


def _arrays(obj):
    """Every array held by a spec, through its nested rules."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def _smoothed(x, width, height):
    """The 3x3 average of every channel formed directly: each cell's mean
    over the in-bounds cells of its window."""
    grids = np.pad(x.reshape(-1, height, width), ((0, 0), (1, 1), (1, 1)))
    inside = np.pad(np.ones((height, width)), 1)
    windows = [(dy, dx) for dy in range(3) for dx in range(3)]
    sums = sum(grids[:, dy : dy + height, dx : dx + width] for dy, dx in windows)
    counts = sum(inside[dy : dy + height, dx : dx + width] for dy, dx in windows)
    return (sums / counts).reshape(x.shape)


def _exponent(x):
    """e with max|x| = m 2^e, m in [1/2, 1) (0 for x = 0).  how's direction
    does not depend on the scale of its features, nor on the scale of its
    attention, so its references form both from x 2^-e: an exact scaling
    that keeps every product and square in the normal range."""
    return np.frexp(np.max(np.abs(x)))[1]


def _norm(z):
    """|z|, formed as max|z| |z / max|z|| so that its squares do not underflow."""
    top = np.max(np.abs(z))
    return 0.0 if top == 0 else top * np.linalg.norm(z / top)


def _sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))  # = 1 / (1 + exp(-t)), without overflow


def _gate_reference(w, u):
    """sigmoid(w2 relu(w1 u)), averaged over the columns of u, and the
    majorant of its logits (at least 1)."""
    logits = w.w2 @ np.maximum(w.w1 @ u, 0.0)
    kappa = max(1.0, np.max(np.abs(w.w2) @ (np.abs(w.w1) @ np.abs(u))))
    return _sigmoid(logits.mean(axis=1)), kappa


def cbam_reference(fm, w):
    """CBAM's pooled vector and spatial attention, and the majorant of the
    rounding of its logits: V = q * X with q the gate of X's per-channel
    [avg, max]; the spatial attention a = sigmoid(K (*) [avg, max] of V's
    columns), K's 7x7 cross-correlation zero-padded to the grid; z = V a / p."""
    x = fm.x
    q, kappa_q = _gate_reference(w.channel_mlp, np.stack([x.mean(axis=1), x.max(axis=1)], 1))
    v = q[:, None] * x
    maps = np.stack([v.mean(axis=0), v.max(axis=0)]).reshape(2, fm.height, fm.width)
    padded = np.pad(maps, ((0, 0), (3, 3), (3, 3)))
    logits = np.array([[np.sum(w.conv7 * padded[:, i:i + 7, j:j + 7])
                        for j in range(fm.width)] for i in range(fm.height)])
    a = _sigmoid(logits.reshape(-1))
    # the maps carry the gate's error, |maps| <= max|X|, into the logits
    return v @ a / fm.p, a, kappa_q * max(1.0, np.sum(np.abs(w.conv7)) * np.max(np.abs(x)))


GEM_GAMMA, LSE_R = 3.0, 2.0


def reference_pools(fm):
    """The five simple poolers, SE and CBAM beside NumPy reference formulas
    for them: name -> (pooler, reference, majorant), the majorant bounding
    the rounding of both forms.  gem is listed only for nonnegative
    features, and its reference floors them at CLAMP_FLOOR as gem does.
    how's reference forms the d x p smoothed features in full; it is None
    where they pool to the zero vector, which has no direction.  SE's and
    CBAM's gate is one seeded d -> max(1, d/4) -> d MLP, and their
    majorants carry their logits' majorants, since a gate's error is their
    rounding."""
    x, p = fm.x, fm.p
    c = LSE_R * x.max(axis=1, keepdims=True)
    xs = np.ldexp(x, -_exponent(x))
    a = np.sum(xs**2, axis=0)
    z = _smoothed(xs, fm.width, fm.height) @ a
    norm = _norm(z)
    top = np.abs(x).max(axis=1)
    hidden = max(1, fm.d // 4)
    w1, w2, conv7 = draw(0, ((hidden, fm.d), fm.d), ((fm.d, hidden), hidden), ((2, 7, 7), 49))
    w = SeWeights(w1, w2)
    cbam_w = CbamWeights(channel_mlp=w, conv7=conv7)
    cbam_z, _, cbam_kappa = cbam_reference(fm, cbam_w)
    u0, abs_u0 = x.mean(axis=1), np.abs(x).mean(axis=1)
    gate = 0.5 * (1.0 + np.tanh(0.5 * (w.w2 @ np.maximum(w.w1 @ u0, 0.0))))
    logits_majorant = max(1.0, np.max(np.abs(w.w2) @ (np.abs(w.w1) @ abs_u0)))
    refs = {
        "gap": (gap, u0, abs_u0),
        "max": (max_pool, x.max(axis=1), top),
        "lse": (lambda fm: lse(fm, LSE_R),
                (c[:, 0] + np.log(np.exp(LSE_R * x - c).mean(axis=1))) / LSE_R,
                top + np.log(p) / LSE_R),
        "how": (how, None, None) if norm == 0 else
               (how, z / norm, _smoothed(np.abs(xs), fm.width, fm.height) @ a / norm),
        "se": (lambda fm: se_pool(fm, w).u[:, 0], gate * u0, abs_u0 * logits_majorant),
        "cbam": (lambda fm: cbam_pool(fm, cbam_w).u[:, 0], cbam_z, np.abs(x) * cbam_kappa),
    }
    if x.min() >= 0:
        mean = (np.maximum(x, CLAMP_FLOOR) ** GEM_GAMMA).mean(axis=1) ** (1.0 / GEM_GAMMA)
        refs["gem"] = (lambda fm: gem(fm, GEM_GAMMA), mean, mean)
    return refs


@st.composite
def _how_cases(draw):
    """Features on the numeric edges, a grid for them (1 x p, p x 1 and every
    other factorization), and a centering and projection, each optional."""
    x = draw(SCALES) * shape_columns(draw(feature_matrices()), draw(COLUMN_EDGES))
    d, p = x.shape
    width = draw(st.sampled_from([w for w in range(1, p + 1) if p % w == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    centering = draw(st.sampled_from([None, "column", "drawn"]))
    centering = {None: None, "column": x[:, 0], "drawn": rng.normal(size=d) * np.max(np.abs(x))}[centering]
    projection = draw(st.none() | st.integers(1, d + 1).map(lambda n: rng.normal(size=(n, d))))
    return FeatureMap(x, width, p // width), HowConfig(centering, projection)


class TestHowNarrowForm:
    @settings(max_examples=150, deadline=None)
    @given(case=_how_cases())
    @example(case=(FeatureMap(1e6 * np.array([[1.0], [-3.0]]), 1, 1), HowConfig()))
    @example(case=(FeatureMap(HOW_SUBNORMAL["three-channels"], 1, 1), HowConfig()))
    @example(case=(FeatureMap(HOW_SUBNORMAL["symmetric"], 1, 1), HowConfig()))
    @example(case=(FeatureMap(HOW_SUBNORMAL["subnormal-features"], 1, 1), HowConfig()))
    @example(case=(FeatureMap(HOW_SUBNORMAL["least-subnormal"], 1, 1), HowConfig()))
    def test_matches_smoothed_features(self, case):
        """how smooths the attention by the adjoint of the 3x3 average; it
        must match P (avg3(X - c) a) with the d smoothed channels formed,
        up to the rounding of its majorant."""
        fm, cfg = case
        c = np.zeros(fm.d) if cfg.centering is None else cfg.centering
        w = np.eye(fm.d) if cfg.projection is None else cfg.projection
        e = _exponent(fm.x)
        xs = np.ldexp(fm.x, -e)
        a = np.sum(xs**2, axis=0)
        xc = xs - np.ldexp(c, -e)[:, None]
        z = w @ (_smoothed(xc, fm.width, fm.height) @ a)
        norm = _norm(z)
        if norm == 0:  # X = c, or no mass: the direction is undefined
            with pytest.raises(DegenerateMassError):
                how(fm, cfg)
            return
        # a relative error of the unnormalized z, against its size
        majorant = (np.abs(w) @ (_smoothed(np.abs(xc), fm.width, fm.height) @ a)) / norm
        assert_within_rounding(how(fm, cfg), z / norm, majorant, 1.0)

