"""Loss/norm matrix assembly, outlier filtering, and normalization.

``psi`` holds the summarized training loss per grid cell (mean of the last
five logged epochs), ``theta`` the parameter norm at the last logged epoch.
``assemble`` and ``build_metric_surfaces`` read them from a run's
``records.Records``, column by column, without a Python object per trial or
epoch.
Cells with non-finite entries are invalid; the z-score filter additionally
masks statistical outliers before the loss surface is normalized, inverted
(lowest loss -> 1) and segmented. ``normalize_invert`` returns the surface
alone: the caller keeps the mask it passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import GridCell, HyperGrid

if TYPE_CHECKING:
    from .records import Records

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


def _cells(records: Records, grid: HyperGrid) -> np.ndarray:
    """The flat grid index of each trial of ``records``; refused unless the trials hold
    exactly the cells of ``grid``, once each."""
    n_wd, n_lr = grid.shape
    inside = (records.row >= 0) & (records.row < n_wd) & (records.col >= 0) & (records.col < n_lr)
    flat = records.row * n_lr + records.col
    counts = np.bincount(flat[inside], minlength=grid.n_trials)
    if inside.all() and (counts == 1).all():
        return flat
    missing = [GridCell(*divmod(i, n_lr)) for i in np.flatnonzero(counts == 0).tolist()]
    outside = sorted(set(map(GridCell, records.row[~inside].tolist(), records.col[~inside].tolist())))
    twice = [GridCell(*divmod(i, n_lr)) for i in np.flatnonzero(counts > 1).tolist()]
    raise ValueError(
        f"missing records for cells {missing}, records for cells outside the grid: {outside}"
        + (f", records given twice for cells {twice}" if twice else "")
    )


def _tail_means(values: np.ndarray, counts: np.ndarray, window: int, flat: np.ndarray, shape) -> np.ndarray:
    """Per trial, at its flat grid index, the mean of the last ``min(window, count)`` of its
    ``counts`` values in ``values``, trial after trial; NaN for a trial with none.

    Trials are grouped by that length and each group is one ``np.mean(axis=1)``:
    numpy sums rows this short in order, so every entry has the bits of a
    per-trial ``np.mean``.
    """
    ends = np.cumsum(counts)
    k = np.minimum(counts, window)
    out = np.full(shape, np.nan)
    for size in range(1, window + 1):
        group = k == size
        if group.any():
            out.flat[flat[group]] = np.mean(values[ends[group][:, None] - size + np.arange(size)], axis=1)
    return out


def assemble(records: Records, grid: HyperGrid) -> LogMatrices:
    """Build the loss/norm matrices from ``records``, one trial per grid cell.

    ``psi`` is the mean train loss over the last ``k = min(LAST_K,
    epochs_run)`` epochs, the same for every scheduler, NaN and infinite
    losses included; ``theta`` is the norm of the last epoch.
    """
    flat = _cells(records, grid)
    runs = records.epochs_run
    if not runs.all():
        i = int(np.argmin(runs))
        raise ValueError(f"trial {GridCell(int(records.row[i]), int(records.col[i]))} has no logged epochs")
    shape = grid.shape
    psi = _tail_means(records.train_loss, runs, LAST_K, flat, shape)
    theta = np.empty(shape)
    theta.flat[flat] = records.param_norm[np.cumsum(runs) - 1]
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


def build_metric_surfaces(records: Records, grid: HyperGrid, scheduler_kind: str) -> MetricSurfaces:
    """Baseline metric matrices from the same records the loss matrices use.

    A cell's train loss summary reads its last ``metric_window`` epochs, NaN
    losses included; an accuracy summary reads its last ``metric_window``
    scored epochs, which for a diverged trial end before its last epoch.
    """
    if scheduler_kind not in ("fifo", "hb"):
        raise ValueError(f"scheduler_kind must be 'fifo' or 'hb', got {scheduler_kind!r}")
    flat = _cells(records, grid)
    window = metric_window(scheduler_kind)
    runs = records.epochs_run
    trial = np.repeat(np.arange(runs.size), runs)  # the trial of each epoch
    accuracies = []
    for values in (records.val_acc, records.test_acc):
        scored = ~np.isnan(values)
        counts = np.bincount(trial[scored], minlength=runs.size)
        accuracies.append(_tail_means(values[scored], counts, window, flat, grid.shape))
    train_loss = _tail_means(records.train_loss, runs, window, flat, grid.shape)
    return MetricSurfaces(train_loss, *accuracies)
