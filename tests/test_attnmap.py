import numpy as np
import pytest

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
            kept = a[mask.reshape(-1)]
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

    def test_header_exact(self, tmp_path):
        g = AttnGrid(np.arange(12.0).reshape(3, 4), width=4, height=3)
        path = tmp_path / "h.pgm"
        write_pgm(g, path)
        assert path.read_bytes().startswith(b"P5\n4 3\n255\n")
