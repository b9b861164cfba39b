"""Loss/norm matrix assembly, outlier filtering, and normalization.

``psi`` holds the summarized training loss per grid cell (mean of the last
five logged epochs), ``theta`` the parameter norm at the last logged epoch.
Cells with non-finite entries are invalid; the z-score filter additionally
masks statistical outliers before the loss surface is normalized, inverted
(lowest loss -> 1) and segmented. ``normalize_invert`` returns the surface
alone: the caller keeps the mask it passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .grid import GridCell, HyperGrid
from .trainer import TrialRecord

__all__ = [
    "LogMatrices",
    "MetricSurfaces",
    "assemble",
    "zscore_outlier_mask",
    "normalize_invert",
    "build_metric_surfaces",
    "metric_window",
]

LAST_K = 5  # epochs averaged into the loss summary


@dataclass
class LogMatrices:
    psi: np.ndarray  # (n_wd, n_lr) summarized train loss
    theta: np.ndarray  # (n_wd, n_lr) final parameter norm
    valid_mask: np.ndarray  # True where both entries are finite
    epochs_run: np.ndarray  # (n_wd, n_lr) ints

    def __post_init__(self) -> None:
        shapes = {self.psi.shape, self.theta.shape, self.valid_mask.shape, self.epochs_run.shape}
        if len(shapes) != 1:
            raise ValueError(f"matrix shapes disagree: {shapes}")
        finite = np.isfinite(self.psi) & np.isfinite(self.theta)
        if np.any(self.valid_mask & ~finite):
            raise ValueError("valid_mask must be false wherever psi or theta is non-finite")

    @property
    def shape(self) -> tuple[int, int]:
        return self.psi.shape


@dataclass
class MetricSurfaces:
    """Per-cell selection metrics for the baselines.

    Summaries follow the baseline convention: last-epoch value under FIFO,
    mean of the last five logged epochs under early stopping. NaN where a
    metric was never logged.
    """

    train_loss: np.ndarray
    val_acc: np.ndarray
    test_acc: np.ndarray


def _check_cells(records: Mapping[GridCell, TrialRecord], grid: HyperGrid) -> None:
    """Refuse ``records`` unless it holds a record for exactly the cells of ``grid``."""
    cells = set(grid.cells())
    if records.keys() != cells:
        raise ValueError(
            f"missing records for cells {sorted(cells - records.keys())}, "
            f"records for cells outside the grid: {sorted(records.keys() - cells)}"
        )


def assemble(records: Mapping[GridCell, TrialRecord], grid: HyperGrid) -> LogMatrices:
    """Build the loss/norm matrices from ``records``, one per grid cell, by cell.

    ``psi`` is the mean train loss over the last ``k = min(LAST_K,
    epochs_run)`` epochs, the same for every scheduler. Cells are grouped by
    ``k`` and each group is one ``np.mean(axis=1)``: numpy sums rows this
    short in order, so every entry has the bits of a per-record ``np.mean``.
    """
    _check_cells(records, grid)
    shape = grid.shape
    flat, norms, runs = [], [], []
    # k -> (flat indices, last-k losses of each cell)
    groups: dict[int, tuple[list[int], list[list[float]]]] = {}
    for cell, rec in records.items():
        epochs = rec.epochs
        if not epochs:
            raise ValueError(f"trial {cell} has no logged epochs")
        i = cell.row * shape[1] + cell.col
        flat.append(i)
        norms.append(epochs[-1].param_norm)
        runs.append(len(epochs))
        tail = epochs[-LAST_K:]
        cells, losses = groups.setdefault(len(tail), ([], []))
        cells.append(i)
        losses.append([e.train_loss for e in tail])
    psi = np.empty(shape)
    for cells, losses in groups.values():
        psi.flat[cells] = np.mean(np.array(losses, dtype=np.float64), axis=1)
    theta = np.empty(shape)
    theta.flat[flat] = norms
    epochs_run = np.empty(shape, dtype=np.int64)
    epochs_run.flat[flat] = runs
    valid = np.isfinite(psi) & np.isfinite(theta)
    return LogMatrices(psi=psi, theta=theta, valid_mask=valid, epochs_run=epochs_run)


def zscore_outlier_mask(psi: np.ndarray, valid_mask: np.ndarray) -> np.ndarray:
    """Mask cells whose |z| exceeds 2 over the valid population, plus invalid cells.

    Population standard deviation; strict inequality; a constant surface
    (sigma = 0) has no outliers. If the moments overflow (a finite loss near
    the float64 limit), z is taken over the losses scaled by their largest
    magnitude, which leaves z unchanged up to rounding.
    """
    if not np.any(valid_mask):
        raise ValueError("no trainable configuration: all grid cells are invalid")
    values = psi[valid_mask]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        std = float(np.std(values))
    if not (math.isfinite(mean) and math.isfinite(std)):
        scale = float(np.max(np.abs(values)))
        psi, values = psi / scale, values / scale
        mean = float(np.mean(values))
        std = float(np.std(values))
    outliers = np.zeros_like(valid_mask)
    if std > 0:
        z = np.abs(psi - mean) / std
        outliers = valid_mask & (z > 2.0)
    return outliers | ~valid_mask


def normalize_invert(psi: np.ndarray, outlier_mask: np.ndarray) -> np.ndarray:
    """Minmax-scale the loss over non-masked cells, then invert: lowest loss -> 1.

    Masked cells carry NaN.
    """
    keep = ~outlier_mask
    if not np.any(keep):
        raise ValueError("no trainable configuration: all grid cells are masked")
    values = np.full(psi.shape, np.nan)
    kept = psi[keep]
    lo, hi = float(np.min(kept)), float(np.max(kept))
    if hi == lo:
        values[keep] = 0.5  # degenerate flat landscape stays segmentable
    else:
        values[keep] = 1.0 - (psi[keep] - lo) / (hi - lo)
    return values


def metric_window(scheduler_kind: str) -> int:
    """How many of the last logged epochs a metric summary reads.

    1 under FIFO, ``LAST_K`` under early stopping. The trainer scores val/test
    accuracy on exactly this many final finite epochs of each trial.
    """
    return 1 if scheduler_kind == "fifo" else LAST_K


def _summarize_metric(values: list[float | None], kind: str) -> float:
    logged = [v for v in values if v is not None]
    if not logged:
        return math.nan
    return float(np.mean(logged[-metric_window(kind):]))


def build_metric_surfaces(
    records: Mapping[GridCell, TrialRecord], grid: HyperGrid, scheduler_kind: str
) -> MetricSurfaces:
    """Baseline metric matrices from the same records the loss matrices use."""
    if scheduler_kind not in ("fifo", "hb"):
        raise ValueError(f"scheduler_kind must be 'fifo' or 'hb', got {scheduler_kind!r}")
    _check_cells(records, grid)
    shape = grid.shape
    train_loss = np.full(shape, np.nan)
    val_acc = np.full(shape, np.nan)
    test_acc = np.full(shape, np.nan)
    for cell, rec in records.items():
        r, c = cell.row, cell.col
        train_loss[r, c] = _summarize_metric([e.train_loss for e in rec.epochs], scheduler_kind)
        val_acc[r, c] = _summarize_metric([e.val_metric for e in rec.epochs], scheduler_kind)
        test_acc[r, c] = _summarize_metric([e.test_metric for e in rec.epochs], scheduler_kind)
    return MetricSurfaces(train_loss=train_loss, val_acc=val_acc, test_acc=test_acc)
