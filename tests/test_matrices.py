import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsearch.grid import GridCell, build_log_grid
from twinsearch.matrices import (
    assemble,
    build_metric_surfaces,
    normalize_invert,
    zscore_outlier_mask,
)
from twinsearch.records import Records
from records_frozen import trial_log, trial_record


def record_for(cell, losses, norms=None, status="completed", val=None, test=None):
    norms = norms if norms is not None else [1.0] * len(losses)
    epochs = [
        (
            l,
            n,
            None if val is None else val[i],
            None if test is None else test[i],
        )
        for i, (l, n) in enumerate(zip(losses, norms))
    ]
    return trial_record(cell, epochs, status)


def columns(records):
    """``records`` as the columns the loaders hold, in their order."""
    return Records.of(list(records))


def grid_2x2():
    return build_log_grid(1e-4, 1e-1, 2, 1e-4, 1e-1, 2)


def psi_of(losses):
    """psi of a cell with these losses, assembled next to three one-epoch cells."""
    grid = grid_2x2()
    records = [record_for(GridCell(0, 0), losses)]
    records += [record_for(cell, [1.0]) for cell in grid.cells() if cell != GridCell(0, 0)]
    return assemble(columns(records), grid).psi[0, 0]


class TestPsiSummary:
    def test_mean_of_last_five(self):
        assert psi_of([2.0, 1.0, 0.5, 0.4, 0.3, 0.2]) == pytest.approx(0.48)

    def test_single_epoch(self):
        assert psi_of([0.7]) == 0.7

    def test_nan_propagates(self):
        assert math.isnan(psi_of([0.5, 0.4, math.nan]))

    def test_empty_record_rejected(self):
        grid = grid_2x2()
        records = [record_for(cell, [1.0]) for cell in grid.cells() if cell != GridCell(1, 0)]
        records.append(trial_record(GridCell(1, 0)))
        with pytest.raises(ValueError, match=r"trial GridCell\(row=1, col=0\) has no logged epochs"):
            assemble(columns(records), grid)

    @pytest.mark.parametrize("seed", range(6))
    def test_psi_bits_match_per_record_mean(self, seed):
        """Grouped psi equals np.mean of each record's last min(5, n) losses, bit for bit."""
        rng = np.random.default_rng(seed)
        grid = build_log_grid(1e-4, 1e-1, 9, 1e-4, 1e-1, 11)
        records = []
        for cell in grid.cells():
            n = int(rng.integers(1, 13))
            # one magnitude per cell, so the summation order shows in the last bits
            losses = rng.uniform(0.1, 10.0, n) * 10.0 ** rng.uniform(-300, 300)
            losses *= rng.choice([-1.0, 1.0], n, p=[0.1, 0.9])
            odd = rng.random(n)
            losses[odd < 0.04] = math.nan
            losses[(odd >= 0.04) & (odd < 0.07)] = math.inf
            losses[(odd >= 0.07) & (odd < 0.1)] = -math.inf
            records.append(record_for(cell, [float(v) for v in losses]))
        order = rng.permutation(len(records))
        expected = np.empty(grid.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            mats = assemble(columns(records[i] for i in order), grid)
            for rec in records:
                losses = np.array([e.train_loss for e in trial_log(rec).epochs], dtype=np.float64)
                expected[rec.cell.row, rec.cell.col] = np.mean(losses[-5:])
        assert mats.psi.tobytes() == expected.tobytes()
        assert set(np.minimum(mats.epochs_run, 5).ravel()) == {1, 2, 3, 4, 5}


class TestAssemble:
    def test_full_2x2(self):
        grid = grid_2x2()
        records = [
            record_for(GridCell(r, c), [1.0, 0.5], norms=[2.0, 1.5])
            for r in range(2)
            for c in range(2)
        ]
        mats = assemble(columns(records), grid)
        assert mats.valid_mask.all()
        np.testing.assert_allclose(mats.psi, 0.75)
        np.testing.assert_allclose(mats.theta, 1.5)
        assert (mats.epochs_run == 2).all()

    def test_diverged_cell_masked(self):
        grid = grid_2x2()
        records = [
            record_for(GridCell(0, 0), [1.0, math.nan], norms=[1.0, math.nan], status="diverged"),
            record_for(GridCell(0, 1), [1.0, 0.5]),
            record_for(GridCell(1, 0), [1.0, 0.5]),
            record_for(GridCell(1, 1), [1.0, 0.5]),
        ]
        mats = assemble(columns(records), grid)
        assert not mats.valid_mask[0, 0]
        assert mats.valid_mask.sum() == 3

    def test_early_stopped_uses_last_logged_norm(self):
        grid = grid_2x2()
        records = [
            record_for(GridCell(0, 0), [1.0] * 10, norms=list(range(1, 11))),
            record_for(GridCell(0, 1), [1.0] * 3, norms=[5.0, 4.0, 3.0], status="stopped_early"),
            record_for(GridCell(1, 0), [1.0] * 10, norms=[2.0] * 10),
            record_for(GridCell(1, 1), [1.0] * 10, norms=[2.0] * 10),
        ]
        mats = assemble(columns(records), grid)
        assert mats.theta[0, 1] == 3.0
        assert mats.epochs_run[0, 1] == 3
        assert mats.epochs_run[0, 0] == 10

    def test_missing_cell_listed(self):
        grid = grid_2x2()
        records = [record_for(GridCell(0, 0), [1.0])]
        missing = r"\[GridCell\(row=0, col=1\), GridCell\(row=1, col=0\), GridCell\(row=1, col=1\)\]"
        with pytest.raises(ValueError, match=rf"missing records for cells {missing}"):
            assemble(columns(records), grid)

    def test_a_cell_given_twice_is_refused(self):
        grid = grid_2x2()
        records = [record_for(cell, [1.0]) for cell in [*grid.cells(), GridCell(1, 0)]]
        with pytest.raises(ValueError, match=r"outside the grid: \[\], records given twice for cells \[GridCell\(row=1, col=0\)\]"):
            assemble(columns(records), grid)
        with pytest.raises(ValueError, match="records given twice"):
            build_metric_surfaces(columns(records), grid, "hb")

    def test_a_cell_outside_the_grid_is_refused(self):
        grid = grid_2x2()
        records = [record_for(cell, [1.0]) for cell in [*grid.cells(), GridCell(2, 0)]]
        with pytest.raises(ValueError, match=r"outside the grid: \[GridCell\(row=2, col=0\)\]"):
            assemble(columns(records), grid)


class TestZscore:
    def test_boundary_value_not_masked(self):
        # [0,0,0,0,10]: mean 2, population sigma 4, z(10) = 2.0 exactly -> kept
        psi = np.array([[0.0, 0.0, 0.0, 0.0, 10.0]])
        mask = zscore_outlier_mask(psi, np.ones_like(psi, dtype=bool))
        assert not mask.any()

    def test_six_point_outlier_masked(self):
        # [0,0,0,0,0,11]: z(11) = sqrt(5) ~ 2.236 > 2 -> masked
        psi = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 11.0]])
        mask = zscore_outlier_mask(psi, np.ones_like(psi, dtype=bool))
        assert mask[1, 2]
        assert mask.sum() == 1

    def test_constant_surface_has_no_outliers(self):
        psi = np.full((3, 3), 0.8)
        mask = zscore_outlier_mask(psi, np.ones_like(psi, dtype=bool))
        assert not mask.any()

    def test_nan_cell_masked_regardless(self):
        psi = np.array([[1.0, math.nan], [1.0, 1.0]])
        valid = np.isfinite(psi)
        mask = zscore_outlier_mask(psi, valid)
        assert mask[0, 1]
        assert mask.sum() == 1

    def test_huge_finite_loss_is_masked_without_overflow(self):
        # squaring 4.1e252 overflows float64; the cell must still be an outlier
        psi = np.random.default_rng(0).uniform(0.5, 1.2, size=(5, 13))
        psi[2, 7] = 4.1e252
        psi[4, 12] = math.nan
        valid = np.isfinite(psi)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mask = zscore_outlier_mask(psi, valid)
        assert mask[2, 7] and mask[4, 12]
        assert mask.sum() == 2

    def test_all_invalid_raises(self):
        psi = np.full((2, 2), math.nan)
        with pytest.raises(ValueError, match="no trainable configuration"):
            zscore_outlier_mask(psi, np.isfinite(psi))

    @given(
        a=st.floats(0.1, 50.0),
        b=st.floats(-100.0, 100.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60)
    def test_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((4, 5)) * rng.uniform(0.5, 10)
        valid = rng.random((4, 5)) > 0.2
        if not valid.any():
            valid[0, 0] = True
        np.testing.assert_array_equal(
            zscore_outlier_mask(psi, valid), zscore_outlier_mask(a * psi + b, valid)
        )


class TestNormalizeInvert:
    def test_linear_map(self):
        psi = np.array([[0.2, 0.6, 1.0]])
        out = normalize_invert(psi, np.zeros_like(psi, dtype=bool))
        np.testing.assert_allclose(out, [[1.0, 0.5, 0.0]])

    def test_affine_invariance(self):
        psi = np.array([[0.1, 0.7], [0.3, 0.9]])
        mask = np.zeros_like(psi, dtype=bool)
        base = normalize_invert(psi, mask)
        scaled = normalize_invert(3.5 * psi + 2.0, mask)
        np.testing.assert_allclose(base, scaled, atol=1e-14)

    def test_constant_maps_to_half(self):
        psi = np.full((2, 2), 4.2)
        out = normalize_invert(psi, np.zeros_like(psi, dtype=bool))
        np.testing.assert_array_equal(out, np.full((2, 2), 0.5))

    def test_masked_cells_carry_nan(self):
        psi = np.array([[0.2, 0.6, 9.0]])
        mask = np.array([[False, False, True]])
        out = normalize_invert(psi, mask)
        assert math.isnan(out[0, 2])
        np.testing.assert_allclose(out[0, :2], [1.0, 0.0])

    def test_all_masked_raises(self):
        psi = np.array([[1.0]])
        with pytest.raises(ValueError, match="no trainable"):
            normalize_invert(psi, np.ones_like(psi, dtype=bool))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_anti_monotone_with_psi(self, seed):
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((3, 4))
        out = normalize_invert(psi, np.zeros_like(psi, dtype=bool))
        flat_psi = psi.ravel()
        flat_out = out.ravel()
        for i in range(len(flat_psi)):
            for j in range(len(flat_psi)):
                if flat_psi[i] < flat_psi[j]:
                    assert flat_out[i] > flat_out[j]


class TestMetricSurfaces:
    def make_records(self, grid):
        records = []
        for cell in grid.cells():
            k = cell.row * grid.n_lr + cell.col
            losses = [2.0 - 0.1 * t + 0.01 * k for t in range(10)]
            accs = [0.5 + 0.01 * t + 0.001 * k for t in range(10)]
            records.append(
                record_for(cell, losses, val=accs, test=[a + 0.1 for a in accs])
            )
        return records

    def test_fifo_uses_last_epoch(self):
        grid = grid_2x2()
        records = self.make_records(grid)
        surfaces = build_metric_surfaces(columns(records), grid, "fifo")
        assert surfaces.train_loss[0, 0] == pytest.approx(2.0 - 0.9)
        assert surfaces.val_acc[0, 0] == pytest.approx(0.59)

    def test_hb_uses_last_five_mean(self):
        grid = grid_2x2()
        records = self.make_records(grid)
        surfaces = build_metric_surfaces(columns(records), grid, "hb")
        assert surfaces.train_loss[0, 0] == pytest.approx(np.mean([2.0 - 0.1 * t for t in range(5, 10)]))

    def test_absent_metric_is_nan(self):
        grid = grid_2x2()
        records = [record_for(cell, [1.0, 0.5]) for cell in grid.cells()]
        surfaces = build_metric_surfaces(columns(records), grid, "fifo")
        assert np.isnan(surfaces.val_acc).all()
        assert np.isnan(surfaces.test_acc).all()

    def test_unknown_kind_rejected(self):
        grid = grid_2x2()
        with pytest.raises(ValueError, match="scheduler_kind"):
            build_metric_surfaces(columns(self.make_records(grid)), grid, "asha")
