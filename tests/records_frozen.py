"""Frozen reference for building the grid matrices from per-record trial logs:
``assemble``, ``build_metric_surfaces`` and ``slice_records`` as they were
when a stored run loaded as one ``TrialRecord`` per cell and one ``EpochLog``
per epoch, written out once and not changed since.

The package builds the same matrices from ``records.Records`` columns. The
tests hold the columnar versions to these bit for bit, and read a
``Records`` back as per-cell records with ``trial_records`` to compare them.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from twinsearch.grid import GridCell, HyperGrid, slice_grid
from twinsearch.matrices import LAST_K, LogMatrices, MetricSurfaces, metric_window
from twinsearch.records import STATUSES, Records
from twinsearch.trainer import EpochLog, TrialRecord

__all__ = ["reference_assemble", "reference_build_metric_surfaces", "reference_slice_records", "trial_records"]


def trial_records(records: Records) -> dict[GridCell, TrialRecord]:
    """``records`` as one ``TrialRecord`` per cell, in their order; a NaN accuracy (not
    scored) is ``None``."""
    out = {}
    end = 0
    for row, col, status, count in zip(
        records.row.tolist(), records.col.tolist(), records.status.tolist(), records.epochs_run.tolist()
    ):
        cell = GridCell(row, col)
        columns = [getattr(records, key)[end:end + count].tolist()
                   for key in ("train_loss", "param_norm", "val_acc", "test_acc")]
        columns[2:] = [[None if v != v else v for v in column] for column in columns[2:]]
        out[cell] = TrialRecord(cell, [EpochLog(i, *values) for i, values in enumerate(zip(*columns))],
                                STATUSES[status])
        end += count
    return out


def _check_cells(records: Mapping[GridCell, TrialRecord], grid: HyperGrid) -> None:
    cells = set(grid.cells())
    if records.keys() != cells:
        raise ValueError(
            f"missing records for cells {sorted(cells - records.keys())}, "
            f"records for cells outside the grid: {sorted(records.keys() - cells)}"
        )


def reference_assemble(records: Mapping[GridCell, TrialRecord], grid: HyperGrid) -> LogMatrices:
    _check_cells(records, grid)
    shape = grid.shape
    flat, norms, runs = [], [], []
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


def _summarize_metric(values: list[float | None], kind: str) -> float:
    logged = [v for v in values if v is not None]
    if not logged:
        return math.nan
    return float(np.mean(logged[-metric_window(kind):]))


def reference_build_metric_surfaces(
    records: Mapping[GridCell, TrialRecord], grid: HyperGrid, scheduler_kind: str
) -> MetricSurfaces:
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


def reference_slice_records(
    records: dict[GridCell, TrialRecord], grid: HyperGrid, lr_stride: int, wd_stride: int
) -> tuple[dict[GridCell, TrialRecord], HyperGrid]:
    sub_grid = slice_grid(grid, lr_stride, wd_stride)
    sub_records: dict[GridCell, TrialRecord] = {}
    for row in range(sub_grid.n_wd):
        for col in range(sub_grid.n_lr):
            src = GridCell(row * wd_stride, col * lr_stride)
            rec = records[src]
            new_cell = GridCell(row, col)
            sub_records[new_cell] = TrialRecord(cell=new_cell, epochs=list(rec.epochs), status=rec.status)
    return sub_records, sub_grid
