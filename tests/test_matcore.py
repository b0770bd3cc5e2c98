import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poolkit.errors import ContractError, DegenerateMassError, NumericError, ShapeError
from poolkit.matcore import (
    LN_EPS,
    SMALL_GEMM,
    as_matrix,
    col_softmax,
    conv2d_same,
    eta_norm,
    l2_normalize,
    layernorm_cols,
    narrow_matmul,
    pow2_scaled,
    sigmoid,
    sq_distances,
)


class TestColSoftmax:
    def test_uniform_on_zeros(self):
        out = col_softmax(np.zeros((4, 1)))
        np.testing.assert_allclose(out, 0.25)

    def test_hand_values(self):
        out = col_softmax(np.array([[np.log(2.0)], [0.0]]), 1.0)
        np.testing.assert_allclose(out[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_no_overflow(self):
        out = col_softmax(np.array([[1000.0], [0.0]]), 1.0)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[:, 0], [1.0, 0.0], atol=1e-300)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = rng.uniform(-1e6, 1e6, size=(7, 3))
            out = col_softmax(s, 3.0)
            np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)

    def test_rejects_bad_scale(self):
        with pytest.raises(ContractError):
            col_softmax(np.zeros((2, 1)), 0.0)


class TestEtaNorm:
    def test_rows(self):
        np.testing.assert_allclose(eta_norm(np.array([[2.0, 2.0]])),
                                   [[0.5, 0.5]])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.1, 2.0, size=(5, 6))
        once = eta_norm(a)
        np.testing.assert_allclose(eta_norm(once), once, atol=1e-12)

    def test_zero_slice_names_index(self):
        a = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DegenerateMassError, match="row 1"):
            eta_norm(a)


class TestSqDistances:
    def test_hand_values(self):
        x = np.array([[0.0, 3.0], [0.0, 4.0]])
        np.testing.assert_array_equal(sq_distances(x, x[:, :1]), [[0.0], [25.0]])

    def test_never_negative(self):
        # the expanded form loses the zero distance of a column to itself
        x = np.random.default_rng(2).normal(scale=1e4, size=(16, 40))
        d = sq_distances(x, x)
        assert np.all(d >= 0)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-4 * np.abs(d).max())

    def test_layout_does_not_change_the_rounding(self):
        # sampled columns come in either order; the norms must not round differently
        x = np.random.default_rng(3).normal(scale=1e3, size=(64, 40))
        u = x[:, [5, 17, 2, 33]]
        want = sq_distances(x, np.ascontiguousarray(u))
        for xl, ul in ((np.asfortranarray(x), np.asfortranarray(u)), (x, x[:, [5, 17, 2, 33]])):
            assert sq_distances(xl, ul).tobytes() == want.tobytes()

    def test_distances_to_itself_match_those_to_a_copy(self):
        x = np.random.default_rng(4).normal(size=(16, 9))
        assert sq_distances(x, x).tobytes() == sq_distances(x, x.copy()).tobytes()

    def test_overflow_raises(self):
        x = np.array([[1e200, -1e200], [0.0, 1.0]])
        with pytest.raises(NumericError, match="overflows"):
            sq_distances(x, x[:, :1])

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    @pytest.mark.parametrize("two_operands", [False, True], ids=["u-is-x", "two-operands"])
    def test_large_common_offset(self, offset, two_operands):
        """A shift moves no distance: against direct differences of the same
        shifted arrays, every distance is within 1e-12 of the mean distance."""
        rng = np.random.default_rng(6)
        shift = offset * rng.choice([-1.0, 1.0], size=(8, 1))
        x = rng.normal(size=(8, 12)) + shift
        u = rng.normal(size=(8, 3)) + shift if two_operands else x
        want = ((x[:, :, None] - u[:, None, :]) ** 2).sum(axis=0)
        assert np.max(np.abs(sq_distances(x, u) - want)) <= 1e-12 * want.mean()


class TestLayernormCols:
    def test_two_point_column(self):
        out = layernorm_cols(np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(out[:, 0], [0.999995, -0.999995], atol=1e-6)

    def test_constant_column_is_zero(self):
        out = layernorm_cols(np.full((3, 1), 4.2))
        np.testing.assert_array_equal(out, 0.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=5.0, size=(6, 5))
        np.testing.assert_allclose(layernorm_cols(2.5 * x + 3.0),
                                   layernorm_cols(x), atol=1e-6)

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e307])
    def test_large_magnitude_matches_the_eps_free_formula(self, scale):
        # past |x| ~ 1e154 the squares overflow unless each column is first
        # scaled by its own power of two; there LN_EPS is far below the
        # variance, while the unit-scale column z beside them keeps it, and
        # the constant column stays 0
        rng = np.random.default_rng(8)
        y, z = rng.normal(size=(6, 4)), rng.normal(size=(6, 1))
        y[:, 3] = 1.0
        stats = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = layernorm_cols(np.hstack([scale * y, z]), stats)
        std = np.append(y.std(axis=0), np.sqrt(z.var() + LN_EPS))
        want = (np.hstack([y, z]) - np.hstack([y, z]).mean(axis=0)) / np.where(std > 0, std, 1.0)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(stats["ln_std"] / np.append(np.full(4, scale), 1.0) - std)) <= 1e-12

    def test_non_finite_column_raises(self):
        x = np.ones((4, 3))
        x[:, 1] = [np.inf, -1.0, 0.0, 1.0]
        with pytest.raises(NumericError, match="column 1 is not finite"):
            layernorm_cols(x)


class TestSmallHelpers:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_l2_normalize(self):
        np.testing.assert_allclose(np.linalg.norm(l2_normalize(np.array([3.0, 4.0]))), 1.0)
        with pytest.raises(DegenerateMassError):
            l2_normalize(np.zeros(2))

    @pytest.mark.parametrize("top", [5e-324, 2.2e-311, 1e-300, 0.75, 3.0, 1e250, 1.7e308])
    def test_pow2_scaled_is_exact_and_in_range(self, top):
        v = top * np.array([1.0, -0.5, 0.25, 0.0])
        scaled = pow2_scaled(v)
        assert 0.5 <= np.max(np.abs(scaled)) < 1.0
        # one power of two, undone exactly: no entry was rounded
        assert np.array_equal(np.ldexp(scaled, np.frexp(np.max(np.abs(v)))[1]), v)
        assert pow2_scaled(np.zeros(2)).tolist() == [0.0, 0.0]

    def test_conv2d_same_identity_kernel(self):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(4, 5))
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        np.testing.assert_allclose(conv2d_same(img, kernel), img)


class TestConv2dSameBatched:
    @pytest.mark.parametrize("c, h, w, kh, kw", [
        (3, 5, 4, 3, 3), (3, 1, 1, 3, 3), (2, 1, 1, 7, 7), (4, 2, 2, 3, 3), (2, 6, 3, 2, 4),
    ])
    def test_stack_equals_separate_calls(self, c, h, w, kh, kw):
        rng = np.random.default_rng(7)
        imgs = rng.normal(size=(c, h, w))
        kernels = rng.normal(size=(c, kh, kw))
        out = conv2d_same(imgs, kernels)
        assert out.shape == (c, h, w)
        for i in range(c):
            np.testing.assert_array_equal(out[i], conv2d_same(imgs[i], kernels[i]))

    def test_shared_kernel_broadcasts(self):
        rng = np.random.default_rng(8)
        imgs = rng.normal(size=(3, 4, 4))
        kernel = rng.normal(size=(3, 3))
        out = conv2d_same(imgs, kernel)
        for i in range(3):
            np.testing.assert_array_equal(out[i], conv2d_same(imgs[i], kernel))


@st.composite
def _narrow_products(draw):
    """(w, z): w is m x k, with k small or 2048; z is k x n, n from 1 to 64,
    or a k-vector; or stacks of 1 to 3 such matrices, s x m x k and s x k x n.
    m is drawn against the rows of one block of w: below one block, or some
    whole blocks plus a remainder, often not 0.  Either operand may be a
    strided slice of a larger array."""
    k = draw(st.one_of(st.integers(2, 8), st.just(2048)))
    n = draw(st.integers(1, 64))
    rows = SMALL_GEMM // (n * k)
    m = draw(st.integers(0, 3)) * rows + draw(st.integers(1, rows))
    stack = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 3))))
    assume(int(np.prod(stack)) * m * (k + n) <= 2**21)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    w, z = (rng.normal(size=(*stack, r, 2 * c))[..., ::2] if draw(st.booleans())
            else rng.normal(size=(*stack, r, c)) for r, c in ((m, k), (k, n)))
    return w, z[:, 0] if n == 1 and not stack and draw(st.booleans()) else z


class TestNarrowMatmul:
    @settings(max_examples=60, deadline=None)
    @given(case=_narrow_products())
    def test_matches_product_within_dot_rounding(self, case):
        # each of two computed k-term dot products is within k * eps/2 * (|w| @ |z|)
        w, z = case
        got = narrow_matmul(w, z)
        assert got.shape == (w @ z).shape
        for wi, zi, gi in zip(w, z, got) if w.ndim == 3 else [(w, z, got)]:
            bound = wi.shape[1] * np.finfo(np.float64).eps * (np.abs(wi) @ np.abs(zi))
            assert np.all(np.abs(gi - wi @ zi) <= bound)


# name: (a call, the error class it raises, the start of its message), one row per
# contract raise of this module that no other test reaches
CONTRACT_RAISES = {
    "as_matrix_of_3d": (lambda: as_matrix(np.ones((2, 2, 2)), "x"), ShapeError,
                        "x: expected 2-d array, got ndim=3"),
    "col_softmax_of_nan": (lambda: col_softmax(np.array([[np.nan]])), NumericError,
                           "col_softmax: non-finite input"),
    "eta_norm_of_negative": (lambda: eta_norm(np.array([[-1.0, 1.0]])), ContractError,
                             "eta_norm: negative entries"),
}


@pytest.mark.parametrize("name", CONTRACT_RAISES)
def test_contract_raises(name):
    call, error, message = CONTRACT_RAISES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)
