import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsearch.grid import GridCell, build_log_grid
from twinsearch.matrices import LogMatrices, MetricSurfaces, normalize_invert
from twinsearch.quickshift import QuickshiftParams, SegmentLabels, quickshift
from twinsearch.selector import (
    METHOD_ORACLE,
    METHOD_SELTS,
    METHOD_SELVS,
    METHOD_TWIN,
    Selection,
    baseline_select,
    evaluate,
    region_stats,
    twin_pipeline,
)


def grid_of(shape):
    return build_log_grid(5e-5, 5e-1, shape[1], 5e-5, 5e-1, shape[0])


def mats_from(psi, theta=None, valid=None):
    psi = np.asarray(psi, dtype=float)
    theta = np.asarray(theta, dtype=float) if theta is not None else np.ones_like(psi)
    valid = valid if valid is not None else np.isfinite(psi) & np.isfinite(theta)
    return LogMatrices(
        psi=psi,
        theta=theta,
        valid_mask=valid,
        epochs_run=np.full(psi.shape, 10, dtype=np.int64),
    )


def valley_matrices():
    """Diagonal low-loss valley with high-loss corners; low norms up-right."""
    n = 6
    psi = np.zeros((n, n))
    theta = np.zeros((n, n))
    for r in range(n):
        for c in range(n):
            psi[r, c] = 0.05 + 0.4 * abs((r + c) - (n - 1)) / (n - 1)
            theta[r, c] = 10.0 - 1.2 * r - 0.3 * c
    return mats_from(psi, theta)


class TestRegionStats:
    def test_single_region_mean(self):
        values = np.array([[0.2, 0.4], [0.6, 0.8]])
        norm = normalize_invert(values, np.zeros_like(values, dtype=bool))
        labels = SegmentLabels(labels=np.zeros((2, 2), dtype=np.int64), n_regions=1)
        means = region_stats(norm, labels)
        assert means.shape == (1,)
        assert means[0] == pytest.approx(np.mean(norm))

    def test_two_region_means(self):
        norm = normalize_invert(np.array([[0.0, 0.2], [0.8, 1.0]]), np.zeros((2, 2), dtype=bool))
        labels = SegmentLabels(labels=np.array([[0, 0], [1, 1]]), n_regions=2)
        means = region_stats(norm, labels)
        assert means[0] > means[1]

    def test_outlier_cells_belong_to_no_region(self):
        values = np.array([[0.1, 0.2], [0.3, math.nan]])
        mask = np.array([[False, False], [False, True]])
        norm = normalize_invert(values, mask)
        labels = quickshift(norm, mask, QuickshiftParams(2.0, 2.0, ratio=1.0))
        means = region_stats(norm, labels)
        assert np.isfinite(means).all()


class TestTwinSelect:
    def test_single_valid_cell_forced(self):
        psi = np.full((3, 3), math.nan)
        psi[1, 2] = 0.5
        theta = np.full((3, 3), math.nan)
        theta[1, 2] = 2.0
        mats = mats_from(psi, theta)
        sel = twin_pipeline(mats, grid_of((3, 3)), QuickshiftParams(2.0, 2.0, ratio=1.0)).selection
        assert sel.cell == GridCell(1, 2)
        assert sel.norm_at_cell == 2.0

    def test_argmin_norm_within_best_region(self):
        mats = valley_matrices()
        artifacts = twin_pipeline(mats, grid_of(mats.shape), QuickshiftParams(1.0, 1.5, ratio=1.0))
        sel = artifacts.selection
        region = artifacts.segments.labels == sel.region_id
        assert region[sel.cell.row, sel.cell.col]
        assert mats.theta[sel.cell.row, sel.cell.col] == np.min(mats.theta[region])
        # region-mean dominance
        assert artifacts.region_means[sel.region_id] == artifacts.region_means.max()

    def test_valley_region_beats_corners(self):
        mats = valley_matrices()
        artifacts = twin_pipeline(mats, grid_of(mats.shape), QuickshiftParams(1.0, 1.5, ratio=1.0))
        labels = artifacts.segments.labels
        # anti-diagonal valley cells share the winning region
        n = labels.shape[0]
        valley = [(r, n - 1 - r) for r in range(n)]
        winning = {labels[r, c] for r, c in valley}
        assert winning == {artifacts.selection.region_id}

    def test_tie_breaks_lexicographic_on_norm(self):
        psi = np.array([[0.1, 0.1], [0.1, 0.1]])
        theta = np.array([[3.0, 1.0], [1.0, 2.0]])
        artifacts = twin_pipeline(mats_from(psi, theta), grid_of((2, 2)), QuickshiftParams(2.0, 2.0, ratio=1.0))
        sel = artifacts.selection
        assert sel.cell == GridCell(0, 1)  # first of the two 1.0-norm cells

    def test_all_masked_raises(self):
        psi = np.full((2, 2), math.nan)
        with pytest.raises(ValueError, match="no trainable"):
            twin_pipeline(mats_from(psi), grid_of((2, 2)), QuickshiftParams(1.0, 1.0, ratio=1.0))

    def test_signature_cannot_receive_metric_surfaces(self):
        params = inspect.signature(twin_pipeline).parameters
        assert set(params) == {"matrices", "grid", "params"}

    @given(
        a=st.floats(0.05, 20.0),
        b=st.floats(-5.0, 5.0),
        c=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariance_under_affine_psi_and_scaled_theta(self, a, b, c, seed):
        rng = np.random.default_rng(seed)
        psi = rng.random((5, 5)) * rng.uniform(0.5, 4.0)
        theta = rng.random((5, 5)) * 10
        grid = grid_of((5, 5))
        params = QuickshiftParams(kernel_size=math.sqrt(5), max_dist=math.sqrt(5), ratio=1.0)
        base = twin_pipeline(mats_from(psi, theta), grid, params).selection
        transformed = twin_pipeline(mats_from(a * psi + b, c * theta), grid, params).selection
        assert base.cell == transformed.cell


class TestBaselines:
    def surfaces_of(self, train=None, val=None, test=None, shape=(2, 2)):
        nanfill = np.full(shape, math.nan)
        return MetricSurfaces(
            train_loss=np.asarray(train, dtype=float) if train is not None else nanfill.copy(),
            val_acc=np.asarray(val, dtype=float) if val is not None else nanfill.copy(),
            test_acc=np.asarray(test, dtype=float) if test is not None else nanfill.copy(),
        )

    def test_selts_argmin_train_loss(self):
        psi = np.array([[0.5, 0.1], [0.9, 0.3]])
        surfaces = self.surfaces_of(train=psi)
        sel = baseline_select(mats_from(psi), surfaces, METHOD_SELTS, grid_of((2, 2)))
        assert sel.cell == GridCell(0, 1)
        assert sel.method == METHOD_SELTS

    def test_selts_skips_invalid_cells(self):
        psi = np.array([[0.5, math.nan], [0.9, 0.3]])
        surfaces = self.surfaces_of(train=np.array([[0.5, 0.01], [0.9, 0.3]]))
        sel = baseline_select(mats_from(psi), surfaces, METHOD_SELTS, grid_of((2, 2)))
        assert sel.cell == GridCell(1, 1)

    def test_oracle_argmax_test_acc(self):
        test = np.array([[0.2, 0.5], [0.9, 0.3]])
        sel = baseline_select(
            mats_from(np.ones((2, 2))), self.surfaces_of(test=test), METHOD_ORACLE, grid_of((2, 2))
        )
        assert sel.cell == GridCell(1, 0)

    def test_selvs_argmax_val_acc(self):
        val = np.array([[0.2, 0.8], [0.7, 0.3]])
        sel = baseline_select(
            mats_from(np.ones((2, 2))), self.surfaces_of(val=val), METHOD_SELVS, grid_of((2, 2))
        )
        assert sel.cell == GridCell(0, 1)

    def test_missing_surface_error_names_requirement(self):
        with pytest.raises(ValueError, match="selvs requires validation"):
            baseline_select(
                mats_from(np.ones((2, 2))), self.surfaces_of(), METHOD_SELVS, grid_of((2, 2))
            )
        with pytest.raises(ValueError, match="oracle requires test"):
            baseline_select(
                mats_from(np.ones((2, 2))), self.surfaces_of(), METHOD_ORACLE, grid_of((2, 2))
            )

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_select(mats_from(np.ones((2, 2))), self.surfaces_of(), "grid", grid_of((2, 2)))

    def test_tie_breaks_lexicographic(self):
        test = np.array([[0.9, 0.9], [0.9, 0.9]])
        sel = baseline_select(
            mats_from(np.ones((2, 2))), self.surfaces_of(test=test), METHOD_ORACLE, grid_of((2, 2))
        )
        assert sel.cell == GridCell(0, 0)


class TestEvaluate:
    def selection(self, method, row, col):
        return Selection(method=method, cell=GridCell(row, col), lr=0.1, wd=0.1)

    def test_picking_oracle_cell_scores_zero(self):
        surface = np.array([[0.9, 0.5], [0.2, 0.7]])
        sels = {
            METHOD_TWIN: self.selection(METHOD_TWIN, 0, 0),
            METHOD_ORACLE: self.selection(METHOD_ORACLE, 0, 0),
        }
        report = evaluate([sels], [surface])
        assert report.per_config_error[0][METHOD_TWIN] == 0.0
        assert report.mae[METHOD_TWIN] == 0.0

    def test_absolute_error_arithmetic(self):
        surface = np.array([[88.0, 90.2], [50.0, 60.0]])
        sels = {
            METHOD_TWIN: self.selection(METHOD_TWIN, 0, 0),
            METHOD_ORACLE: self.selection(METHOD_ORACLE, 0, 1),
        }
        report = evaluate([sels], [surface])
        assert report.per_config_error[0][METHOD_TWIN] == pytest.approx(2.2)

    def test_mae_across_configs(self):
        surface_a = np.array([[1.0, 0.0]])
        surface_b = np.array([[0.4, 1.0]])
        sels_a = {
            METHOD_SELTS: self.selection(METHOD_SELTS, 0, 1),
            METHOD_ORACLE: self.selection(METHOD_ORACLE, 0, 0),
        }
        sels_b = {
            METHOD_SELTS: self.selection(METHOD_SELTS, 0, 0),
            METHOD_ORACLE: self.selection(METHOD_ORACLE, 0, 1),
        }
        report = evaluate([sels_a, sels_b], [surface_a, surface_b])
        assert report.mae[METHOD_SELTS] == pytest.approx((1.0 + 0.6) / 2)
        assert report.mae[METHOD_ORACLE] == 0.0

    def test_oracle_selection_required(self):
        with pytest.raises(ValueError, match="oracle"):
            evaluate([{METHOD_TWIN: self.selection(METHOD_TWIN, 0, 0)}], [np.ones((1, 1))])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one test surface"):
            evaluate([], [np.ones((1, 1))])
