import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poolkit.attnmap import (
    AttnGrid,
    BBox,
    largest_component_bbox,
    mass_threshold,
    reshape_attention,
    write_pgm,
)
from poolkit.errors import ContractError, NumericError, ShapeError


class TestReshapeAttention:
    def test_row_major_layout(self):
        g = reshape_attention(np.arange(6.0), width=3, height=2)
        np.testing.assert_array_equal(g.values, [[0, 1, 2], [3, 4, 5]])

    def test_width_one_column_layout(self):
        g = reshape_attention(np.array([1.0, 2.0, 3.0]), width=1, height=3)
        np.testing.assert_array_equal(g.values, [[1.0], [2.0], [3.0]])

    def test_round_trip(self):
        a = np.random.default_rng(43).uniform(size=12)
        g = reshape_attention(a, width=4, height=3)
        np.testing.assert_array_equal(g.flatten(), a)

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            reshape_attention(np.zeros(5), width=2, height=2)

    @pytest.mark.parametrize("width, height", [(-2, -3), (-6, -1), (0, 6), (6, 0)])
    def test_size_below_one_rejected(self, width, height):
        # two negative sizes can multiply to p, so the size check alone passes them
        with pytest.raises(ShapeError, match=f"6 values for {width}x{height} grid"):
            reshape_attention(np.ones(6), width=width, height=height)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        a = np.ones(6)
        a[2] = bad
        with pytest.raises(NumericError, match="non-finite"):
            reshape_attention(a, width=3, height=2)


class TestMassThreshold:
    def test_greedy_trace(self):
        g = reshape_attention(np.array([0.5, 0.3, 0.1, 0.1]), width=4, height=1)
        mask = mass_threshold(g, 0.6)
        np.testing.assert_array_equal(mask[0], [True, True, False, False])

    def test_fraction_one_keeps_positive_cells(self):
        g = reshape_attention(np.array([0.4, 0.0, 0.6, 0.0]), width=2, height=2)
        mask = mass_threshold(g, 1.0)
        np.testing.assert_array_equal(mask, [[True, False], [True, False]])

    def test_uniform_tie_rule(self):
        g = reshape_attention(np.full(4, 0.25), width=4, height=1)
        mask = mass_threshold(g, 0.5)
        np.testing.assert_array_equal(mask[0], [True, True, False, False])

    def test_minimality(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            a = rng.uniform(0.01, 1.0, size=12)
            a /= a.sum()
            g = reshape_attention(a, width=4, height=3)
            mask = mass_threshold(g, 0.6)
            kept = a[np.ravel(mask)]
            assert kept.sum() >= 0.6 * a.sum() - 1e-12
            assert kept.sum() - kept.min() < 0.6 * a.sum()

    def test_zero_grid_raises(self):
        g = reshape_attention(np.zeros(4), width=2, height=2)
        with pytest.raises(NumericError):
            mass_threshold(g, 0.6)

    def test_mass_beyond_the_float_range_raises(self):
        # the sum overflows to inf, against which no cut is defined
        g = reshape_attention(np.array([1e308, 1e308, 0.0, 0.0]), width=2, height=2)
        with pytest.raises(NumericError, match="total mass inf"):
            mass_threshold(g, 0.6)


class TestLargestComponentBbox:
    def test_single_cell(self):
        mask = np.zeros((4, 5), dtype=bool)
        mask[2, 3] = True
        assert largest_component_bbox(mask) == BBox(3, 2, 3, 2)

    def test_largest_of_two(self):
        mask = np.array([
            [1, 1, 0, 0],
            [0, 1, 0, 1],
            [0, 0, 0, 0],
        ], dtype=bool)
        assert largest_component_bbox(mask) == BBox(0, 0, 1, 1)

    def test_full_mask(self):
        mask = np.ones((3, 4), dtype=bool)
        assert largest_component_bbox(mask) == BBox(0, 0, 3, 2)

    def test_diagonal_not_connected(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        # two size-1 components; tie goes to top-left
        assert largest_component_bbox(mask) == BBox(0, 0, 0, 0)

    def test_empty_mask_raises(self):
        with pytest.raises(ContractError):
            largest_component_bbox(np.zeros((2, 2), dtype=bool))


class TestWritePgm:
    def test_min_max_scaling(self, tmp_path):
        g = AttnGrid(np.array([[0.0, 1.0], [2.0, 3.0]]), width=2, height=2)
        path = tmp_path / "out.pgm"
        write_pgm(g, path)
        data = path.read_bytes()
        assert data == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])

    def test_constant_grid_zeros(self, tmp_path):
        g = AttnGrid(np.full((2, 2), 0.3), width=2, height=2)
        path = tmp_path / "c.pgm"
        write_pgm(g, path)
        assert path.read_bytes()[-4:] == bytes(4)

    def test_mask_bytes(self, tmp_path):
        mask = np.array([[True, False]])
        path = tmp_path / "m.pgm"
        write_pgm(mask, path)
        assert path.read_bytes() == b"P5\n2 1\n255\n" + bytes([255, 0])

    @pytest.mark.parametrize("values, error", [([[0.0, np.nan]], NumericError),
                                               ([[-1e308, 1e308]], ContractError)],
                             ids=["nan", "negative-span-overflows"])
    def test_raw_values_get_the_grid_checks(self, tmp_path, values, error):
        # raw values are not an AttnGrid, yet are checked as one
        with pytest.raises(error):
            write_pgm(np.array(values), tmp_path / "bad.pgm")
        assert not (tmp_path / "bad.pgm").exists()

    def test_header_exact(self, tmp_path):
        g = AttnGrid(np.arange(12.0).reshape(3, 4), width=4, height=3)
        path = tmp_path / "h.pgm"
        write_pgm(g, path)
        assert path.read_bytes().startswith(b"P5\n4 3\n255\n")


# The NumPy forms attnmap had before it became pure Python, kept as its
# reference.  One line differs: mass_threshold's total is the last
# cumulative sum, as in the module, not NumPy's pairwise sum.

def mass_threshold_reference(values: np.ndarray, fraction: float) -> np.ndarray:
    flat = values.reshape(-1)
    order = np.argsort(-flat, kind="stable")  # descending, lower index first on ties
    cum = np.cumsum(flat[order])
    total = cum[-1]
    if not 0 < total < np.inf:
        raise NumericError(f"mass_threshold: total mass {total:g} is not in (0, inf)")
    target = fraction * total
    n_keep = int(np.searchsorted(cum, target - 1e-12 * total) + 1)
    n_keep = min(n_keep, flat.size)
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:n_keep]] = True
    return mask.reshape(values.shape)


def largest_component_bbox_reference(mask: np.ndarray) -> BBox:
    h, w = mask.shape
    seen = np.zeros_like(mask)
    best_cells, best_key = [], None
    for y0 in range(h):
        for x0 in range(w):
            if not mask[y0, x0] or seen[y0, x0]:
                continue
            stack = [(y0, x0)]
            seen[y0, x0] = True
            cells = []
            while stack:
                y, x = stack.pop()
                cells.append((y, x))
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
            key = (-len(cells), y0 * w + x0)
            if best_key is None or key < best_key:
                best_key, best_cells = key, cells
    ys = [c[0] for c in best_cells]
    xs = [c[1] for c in best_cells]
    return BBox(x_min=min(xs), y_min=min(ys), x_max=max(xs), y_max=max(ys))


def pgm_reference(arr: np.ndarray) -> bytes:
    if arr.dtype == bool:
        pixels = np.where(arr, 255, 0).astype(np.uint8)
    else:
        lo, hi = arr.min(), arr.max()
        if hi == lo:
            pixels = np.zeros(arr.shape, dtype=np.uint8)
        else:
            scaled = (arr - lo) / (hi - lo) * 255.0
            pixels = np.floor(scaled + 0.5).astype(np.uint8)
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def _attention(rng, kind: str, n: int) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(size=n)
    if kind == "dirichlet":  # most of the mass on a few cells
        return rng.dirichlet(np.full(n, 0.05))
    if kind == "lognormal":  # magnitudes across 1e-300 .. 1e300
        return 10.0 ** np.clip(rng.normal(scale=120.0, size=n), -300, 300)
    return rng.integers(0, 4, size=n).astype(np.float64)  # small-integer ties


@settings(max_examples=250, deadline=None)
@example(height=1, width=1, kind="ties", zeros=0.0, column=False, fraction=1.0, seed=0)
@example(height=16, width=16, kind="lognormal", zeros=0.3, column=True, fraction=0.6, seed=1)
@given(height=st.integers(1, 16), width=st.integers(1, 16),
       kind=st.sampled_from(["uniform", "dirichlet", "lognormal", "ties"]),
       zeros=st.sampled_from([0.0, 0.3, 0.9]), column=st.booleans(),
       fraction=st.one_of(st.sampled_from([1.0, 0.6, 0.5, 1e-300]),
                          st.floats(0.0, 1.0, exclude_min=True)),
       seed=st.integers(0, 2**32 - 1))
def test_matches_numpy_reference(tmp_path_factory, height, width, kind, zeros, column,
                                 fraction, seed):
    """Mask, box and both PGM byte strings equal the NumPy reference's."""
    rng = np.random.default_rng(seed)
    a = _attention(rng, kind, height * width)
    a[rng.uniform(size=a.size) < zeros] = 0.0
    grid = reshape_attention(a.reshape(-1, 1) if column else a, width=width, height=height)
    values = a.reshape(height, width)
    path = tmp_path_factory.getbasetemp() / "ref.pgm"
    write_pgm(grid, path)
    assert path.read_bytes() == pgm_reference(values)
    if not a.any():
        for threshold in (mass_threshold, mass_threshold_reference):
            with pytest.raises(NumericError):
                threshold(grid if threshold is mass_threshold else values, fraction)
        return
    mask, want = mass_threshold(grid, fraction), mass_threshold_reference(values, fraction)
    np.testing.assert_array_equal(np.array(mask), want)
    assert largest_component_bbox(mask) == largest_component_bbox_reference(want)
    write_pgm(mask, path)
    assert path.read_bytes() == pgm_reference(want)


# name: (a call, the error class it raises, the start of its message), one row per
# contract raise of this module that no other test reaches
CONTRACT_RAISES = {
    "ragged_rows": (lambda: reshape_attention([[1.0], [1.0, 2.0]], 1, 2), ShapeError,
                    "reshape_attention: expected a nonempty 1-d or 2-d array"),
    "grid_shape": (lambda: AttnGrid([[1.0, 2.0]], width=1, height=1), ShapeError,
                   "AttnGrid: values (1, 2) vs grid 1x1"),
    "inverted_bbox": (lambda: BBox(2, 0, 1, 0), ContractError,
                      "BBox: inverted or negative box BBox(x_min=2, y_min=0, x_max=1, y_max=0)"),
}


@pytest.mark.parametrize("name", CONTRACT_RAISES)
def test_contract_raises(name):
    call, error, message = CONTRACT_RAISES[name]
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value).startswith(message)
