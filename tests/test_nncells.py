"""Seeded weights: ``draw`` makes each declared array of n entries exactly
+-1/sqrt(fan_in), its signs the bits of ceil(n/8) bytes of one generator,
and each public ``seeded`` constructor makes one generator and
draws from it exactly the bytes its weight set declares.  So Slot's mu is +-1
and its sigma = |.| + 0.1 is 1.1 in every entry.  A ``SignMatrix`` multiplies
from those bytes within dot-product rounding of the expanded matrix."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolkit.cluster_poolers import SlotWeights, slot_pool
from poolkit.errors import ShapeError
from poolkit.framework import FeatureMap
from poolkit.matcore import weigh
from poolkit.nncells import SignMatrix, draw, draw_bytes, expand
from poolkit.reweight_poolers import CbamWeights, SeWeights, cbam_pool, se_pool
from poolkit.simpool import SimPoolParams
from poolkit.transformer_poolers import VitWeights, vit_cls_pool

from memory_peaks import traced_peak

# name -> (constructor of (d, seed), sizes of the arrays it declares, in order)
CONSTRUCTORS = {
    "slot": (lambda d, s: SlotWeights.seeded(d, seed=s),
             lambda d: [d * d] * 3 + [d, d] + [d * d] * 8),  # W_Q, W_K, W_V, mu, sigma, GRU, MLP
    "se": (lambda d, s: SeWeights.seeded(d, seed=s), lambda d: [d * d // 4] * 2),
    "cbam": (lambda d, s: CbamWeights.seeded(d, seed=s), lambda d: [d * d // 4] * 2 + [2 * 7 * 7]),
    "vit": (lambda d, s: VitWeights.seeded(d, 2, seed=s), lambda d: [d * d] * 12 + [d]),
    "simpool": (lambda d, s: SimPoolParams.seeded(d, seed=s), lambda d: [d * d] * 2),
}
CASES = [(name, d, seed) for name in CONSTRUCTORS
         for d, seed in ((1, 2**64 - 1), (8, 0), (2048, 3))
         if d % 4 == 0 or name not in ("se", "cbam")]  # SE and CBAM need 4 | d


@pytest.mark.parametrize("name, d, seed", CASES)
def test_seeded_weights_come_from_one_stream(monkeypatch, name, d, seed):
    default_rng, made = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: made.append(default_rng(s)) or made[-1])
    construct, sizes = CONSTRUCTORS[name]
    construct(d, seed)
    fresh = default_rng(seed)
    for n in sizes(d):
        fresh.bytes(-(-n // 8))
    assert [g.bit_generator.state for g in made] == [fresh.bit_generator.state]


DECLS = st.lists(st.tuples(st.lists(st.integers(1, 20), max_size=3).map(tuple),
                           st.integers(1, 2**20)), max_size=4)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), a=DECLS, b=DECLS)
def test_draw_is_signs_and_a_longer_draw_extends_a_shorter(seed, a, b):
    got = [np.asarray(w) for w in draw(seed, *a, *b)]
    assert len(got) == len(a) + len(b)
    for w, (shape, fan_in) in zip(got, a + b):
        assert w.shape == shape and w.dtype == np.float64
        assert np.all(np.abs(w) == 1.0 / np.sqrt(fan_in))
    assert [np.asarray(w).tobytes() for w in draw(seed, *a)] == [w.tobytes() for w in got[:len(a)]]


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
def test_draw_signs_are_fair(seed):
    n = 2048 * 2048
    w = np.asarray(draw(seed, ((2048, 2048), 2048))[0])
    share = np.count_nonzero(w > 0) / n
    assert abs(share - 0.5) <= 5 * 0.5 / np.sqrt(n)  # 5 standard errors of a fair coin


@pytest.mark.parametrize("d", [3, 4, 8, 12, 48, 384])  # 3 and 12: rows repacked onto bytes
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), per_head=st.integers(1, 3))
@example(seed=2**64 - 1, per_head=3)
def test_sign_products_match_the_expanded_matrix_within_dot_rounding(d, seed, per_head):
    # each of two computed k-term dot products is within k * eps/2 * (|w| @ |z|), as
    # TestNarrowMatmul bounds them; k is d, or a head's d/m rows for W^T z
    (raw,) = draw_bytes(seed, ((d, d), d))
    packed, dense = SignMatrix(raw, (d, d), d), expand(raw, (d, d), d)
    rng = np.random.default_rng(seed)
    for m in [m for m in range(1, d + 1) if d % m == 0]:
        for transpose in (False, True):
            z = rng.normal(size=(d, per_head * (1 if transpose else m)))
            want = weigh(dense, z, "test", m, transpose)
            bound = (d // m if transpose else d) * np.finfo(np.float64).eps * weigh(
                np.abs(dense), np.abs(z), "test", m, transpose)
            got = packed._weigh_bytes(z, m, transpose)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= bound)


def test_a_sign_matrix_rejects_a_narrow_side_of_another_shape():
    packed = SignMatrix(draw_bytes(0, ((4, 12), 12))[0], (4, 12), 12)
    for z, heads, transpose in ((np.ones((4, 2)), 1, False), (np.ones((12, 3)), 2, False),
                                (np.ones((12, 1)), 1, True)):
        with pytest.raises(ValueError, match="sign matrix meets"):
            packed._weigh_bytes(z, heads, transpose)


@pytest.mark.parametrize("d, heads, per_head, transpose, from_bytes", [
    (2048, 8, 1, False, True), (2048, 8, 1, True, True), (512, 8, 1, True, True),
    (2048, 1, 16, False, False), (2048, 1, 2, True, False),  # past SIGN_COLUMNS per head
    (384, 6, 1, False, False), (384, 6, 1, True, False)])  # under SIGN_ENTRIES
def test_weigh_takes_the_bytes_only_where_they_pay(d, heads, per_head, transpose, from_bytes):
    """Every other product of a SignMatrix expands it and keeps the expansion, read-only."""
    (w,) = draw(d, ((d, d), d))
    z = np.random.default_rng(d).normal(size=(d, per_head * (1 if transpose else heads)))
    weigh(w, z, "test", heads, transpose)
    held = w.dense
    assert (held is None) == from_bytes
    if held is not None:
        assert np.asarray(w) is held and not held.flags.writeable


@pytest.mark.parametrize("transpose", [False, True])
def test_a_head_per_row_expands_for_the_product_alone(transpose):
    # the bytes' tables, 256 entries per head, column and 8 columns of W, would hold
    # 32 d^2 floats (37 MB); the product holds W's expansion and its d x d output
    d = 384
    (w,) = draw(0, ((d, d), d))
    z = np.random.default_rng(0).normal(size=(d, 1 if transpose else d))
    assert traced_peak(weigh, w, z, "key", d, transpose) <= 3 * 8 * d * d
    assert w.dense is None


# name -> (seeded weights for d = 4, the pooler that reads them)
POOLERS = {
    "vit": (lambda: VitWeights.seeded(4, 1), lambda fm, w: vit_cls_pool(fm, w, 1, 1)),
    "se": (lambda: SeWeights.seeded(4), se_pool),
    "cbam": (lambda: CbamWeights.seeded(4), cbam_pool),
    "slot": (lambda: SlotWeights.seeded(4), lambda fm, w: slot_pool(fm, 2, 1, w)),
}


@pytest.mark.parametrize("name, path, stage", [
    ("vit", "iters.0.w_u", "update mapping"), ("vit", "iters.0.mlp.w2", "mlp2"),
    ("se", "w2", "mlp2"), ("cbam", "channel_mlp.w2", "mlp2"), ("slot", "mlp.w2", "mlp2"),
    ("slot", "gru.w_r", "gru_cell"), ("slot", "gru.u_h", "gru_cell")])
def test_an_update_weight_with_an_extra_column_raises_shape_error(name, path, stage):
    """As W_Q, W_K and W_V do; the error names the stage or cell that met the weight."""
    weights, pool = POOLERS[name]
    w = weights()
    *parents, leaf = path.split(".")
    owner = w
    for part in parents:
        owner = owner[int(part)] if part.isdigit() else getattr(owner, part)
    matrix = np.asarray(getattr(owner, leaf))
    setattr(owner, leaf, np.hstack([matrix, np.ones((len(matrix), 1))]))
    with pytest.raises(ShapeError, match=stage):
        pool(FeatureMap(np.arange(24.0).reshape(4, 6) / 24, 3, 2), w)
