import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsearch.grid import (
    GridCell,
    HyperGrid,
    build_log_grid,
    cell_params,
    slice_grid,
)


def default_grid(n=5):
    return build_log_grid(5e-5, 5e-1, n, 5e-5, 5e-1, n)


class TestBuild:
    def test_four_decades_five_points(self):
        grid = default_grid()
        expected = [5e-5, 5e-4, 5e-3, 5e-2, 5e-1]
        assert grid.lr_values[0] == 5e-5 and grid.lr_values[-1] == 5e-1
        np.testing.assert_allclose(grid.lr_values, expected, rtol=1e-12)
        np.testing.assert_allclose(grid.wd_values, expected, rtol=1e-12)

    def test_log_step_exact_thirds(self):
        grid = build_log_grid(1e-4, 1e-1, 10, 1e-4, 1e-1, 10)
        steps = np.diff(np.log10(grid.lr_values))
        np.testing.assert_allclose(steps, 1 / 3, rtol=1e-12)
        steps = np.diff(np.log10(grid.wd_values))
        np.testing.assert_allclose(steps, 1 / 3, rtol=1e-12)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError, match="lr_low"):
            build_log_grid(1e-2, 1e-2, 5, 1e-5, 1e-1, 5)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            (dict(lr_low=-1e-3), "lr_low"),
            (dict(lr_low=0.0), "lr_low"),
            (dict(wd_low=0.0), "wd_low"),
            (dict(wd_high=-2.0), "wd_high"),
            (dict(n_lr=1), "n_lr"),
            (dict(n_wd=0), "n_wd"),
        ],
    )
    def test_errors_name_offending_parameter(self, kwargs, name):
        base = dict(lr_low=5e-5, lr_high=5e-1, n_lr=5, wd_low=5e-5, wd_high=5e-1, n_wd=5)
        base.update(kwargs)
        with pytest.raises(ValueError, match=name):
            build_log_grid(**base)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError, match="wd_low"):
            build_log_grid(5e-5, 5e-1, 5, 5e-1, 5e-5, 5)

    def test_non_square_grid(self):
        grid = build_log_grid(1e-4, 1e-1, 4, 1e-3, 1e-1, 7)
        assert grid.shape == (7, 4)
        assert grid.n_trials == 28


class TestSlice:
    def test_stride_two_on_ten(self):
        grid = build_log_grid(1e-4, 1e-1, 10, 1e-4, 1e-1, 10)
        sliced = slice_grid(grid, 2, 2)
        assert sliced.n_lr == 5
        assert sliced.lr_values == grid.lr_values[::2]

    def test_stride_one_is_identity(self):
        grid = default_grid()
        assert slice_grid(grid, 1, 1) == grid

    def test_stride_three_on_ten(self):
        grid = build_log_grid(1e-4, 1e-1, 10, 1e-4, 1e-1, 10)
        sliced = slice_grid(grid, 3, 1)
        assert sliced.n_lr == 4
        assert sliced.lr_values == tuple(grid.lr_values[i] for i in (0, 3, 6, 9))

    def test_too_large_stride_rejected(self):
        grid = default_grid()
        with pytest.raises(ValueError, match="stride"):
            slice_grid(grid, 5, 1)

    def test_slicing_preserves_log_spacing(self):
        grid = build_log_grid(1e-5, 1e-1, 9, 1e-5, 1e-1, 9)
        sliced = slice_grid(grid, 2, 4)
        # construction re-checks the spacing; the kept values are every stride-th one
        assert sliced.lr_values == grid.lr_values[::2]
        assert sliced.wd_values == grid.wd_values[::4]

    @given(
        n=st.integers(4, 30),
        a=st.integers(1, 3),
        c=st.integers(1, 3),
    )
    @settings(max_examples=50)
    def test_slice_composition(self, n, a, c):
        grid = build_log_grid(1e-6, 1e-1, n, 1e-6, 1e-1, n)
        try:
            twice = slice_grid(slice_grid(grid, a, 1), c, 1)
        except ValueError:
            return  # a composition that empties the axis; nothing to compare
        once = slice_grid(grid, a * c, 1)
        assert twice.lr_values == once.lr_values


class TestCellParams:
    def test_corners(self):
        grid = default_grid()
        assert cell_params(grid, GridCell(0, 0)) == (5e-5, 5e-5)
        assert cell_params(grid, GridCell(4, 4)) == (5e-1, 5e-1)

    def test_interior_cell_from_log_formula(self):
        # lr index 3: 10**(log10(5e-5) + 3 * 1.0) = 5e-2; wd index 1: 5e-4
        grid = default_grid()
        lr, wd = cell_params(grid, GridCell(1, 3))
        assert lr == pytest.approx(5e-2, rel=1e-12)
        assert wd == pytest.approx(5e-4, rel=1e-12)

    def test_out_of_bounds(self):
        grid = default_grid()
        with pytest.raises(IndexError):
            cell_params(grid, GridCell(5, 0))
        with pytest.raises(IndexError):
            cell_params(grid, GridCell(0, -1))


class TestInvariants:
    def test_all_values_finite_with_finite_logs(self):
        grid = build_log_grid(1e-8, 1e2, 21, 1e-8, 1e2, 21)
        for v in (*grid.lr_values, *grid.wd_values):
            assert math.isfinite(v) and math.isfinite(math.log10(v))

    def test_flat_index_row_major(self):
        grid = build_log_grid(1e-4, 1e-1, 4, 1e-3, 1e-1, 3)
        flats = [c.row * grid.n_lr + c.col for c in grid.cells()]
        assert flats == list(range(12))

    def test_serialization_round_trip(self):
        grid = default_grid(7)
        assert HyperGrid.from_dict(asdict(grid)) == grid

    @pytest.mark.parametrize(
        "lr_values",
        [[0.0, 1.0], [1.0, 1e309], [-1.0, -0.1], [math.nan, 1.0], [1e-3, 1e-2, math.inf], [1e-3, 10**400]],
        ids=["zero", "overflow-to-inf", "negative", "nan", "inf-last", "int-past-float-range"],
    )
    def test_a_value_that_is_not_finite_and_positive_is_refused(self, lr_values):
        # np.allclose(inf, inf) holds, so the log-spacing check alone would pass an inf end
        with pytest.raises(ValueError, match="^lr values must be finite and positive$"):
            HyperGrid.from_dict({"lr_values": lr_values, "wd_values": [1e-3, 1e-2]})

    @pytest.mark.parametrize("lr_values", [[1, 10], [10**20, 10**21], [1e300, 10**308]])
    def test_integers_in_the_float_range_load(self, lr_values):
        grid = HyperGrid.from_dict({"lr_values": lr_values, "wd_values": [1e-3, 1e-2]})
        assert grid.lr_values == tuple(lr_values)
