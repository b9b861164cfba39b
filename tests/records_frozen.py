"""Frozen reference for building the grid matrices from per-record trial logs:
``assemble``, ``build_metric_surfaces`` and ``slice_records`` as they were
when a stored run loaded as one trial record per cell and one per-epoch
tuple per epoch, written out once and not changed since. ``Epoch`` is that
tuple and ``TrialLog`` that record, kept here on the test side: the package
holds a trial's epochs as one float64 block (``trainer.TrialRecord``), and
cuts a sub-grid's matrices from the whole grid's.

The package builds the same matrices from ``records.Records`` columns. The
tests hold the columnar versions to these bit for bit, and read a
``Records`` back as per-cell logs with ``trial_records`` to compare them.
``trial_log`` reads one ``TrialRecord`` as a ``TrialLog``, and
``trial_record`` builds a ``TrialRecord`` from per-epoch tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from twinsearch.grid import GridCell, HyperGrid, slice_grid
from twinsearch.matrices import LAST_K, LogMatrices, MetricSurfaces, metric_window
from twinsearch.records import STATUSES, Records
from twinsearch.trainer import STATUS_RUNNING, TrialRecord

__all__ = [
    "Epoch", "TrialLog", "reference_assemble", "reference_build_metric_surfaces", "reference_slice_records",
    "trial_log", "trial_record", "trial_records",
]


class Epoch(NamedTuple):
    """One logged epoch of one trial."""

    epoch: int
    train_loss: float
    param_norm: float
    val_metric: float | None = None
    test_metric: float | None = None


@dataclass
class TrialLog:
    """One trial's log as one ``Epoch`` per epoch."""

    cell: GridCell
    epochs: list[Epoch] = field(default_factory=list)
    status: str = STATUS_RUNNING

    @property
    def epochs_run(self) -> int:
        return len(self.epochs)


def trial_record(cell: GridCell, epochs: Iterable[tuple] = (), status: str = STATUS_RUNNING) -> TrialRecord:
    """The ``TrialRecord`` of per-epoch ``(train_loss, param_norm, val, test)`` tuples, epoch
    ``i`` the ``i``-th; ``val`` and ``test`` may be left out, and an epoch with either
    accuracy not ``None`` is scored."""
    values, scored = [], {}
    for i, (loss, norm, *metrics) in enumerate(epochs):
        values.append((loss, norm))
        val, test = (*metrics, None, None)[:2]
        if val is not None or test is not None:
            scored[i] = (val, test)
    return TrialRecord(cell, np.array(values, dtype=np.float64).reshape(-1, 2), status, scored or None)


def trial_log(record: TrialRecord) -> TrialLog:
    """``record`` as one ``Epoch`` per epoch; an epoch it did not score has ``None`` accuracies."""
    scored = record.scored or {}
    epochs = [Epoch(i, loss, norm, *scored.get(i, (None, None)))
              for i, (loss, norm) in enumerate(record.values.tolist())]
    return TrialLog(record.cell, epochs, record.status)


def trial_records(records: Records) -> dict[GridCell, TrialLog]:
    """``records`` as one ``TrialLog`` per cell, in their order; a NaN accuracy (not
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
        out[cell] = TrialLog(cell, [Epoch(i, *values) for i, values in enumerate(zip(*columns))], STATUSES[status])
        end += count
    return out


def _check_cells(records: Mapping[GridCell, TrialLog], grid: HyperGrid) -> None:
    cells = set(grid.cells())
    if records.keys() != cells:
        raise ValueError(
            f"missing records for cells {sorted(cells - records.keys())}, "
            f"records for cells outside the grid: {sorted(records.keys() - cells)}"
        )


def reference_assemble(records: Mapping[GridCell, TrialLog], grid: HyperGrid) -> LogMatrices:
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
    records: Mapping[GridCell, TrialLog], grid: HyperGrid, scheduler_kind: str
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
    records: dict[GridCell, TrialLog], grid: HyperGrid, lr_stride: int, wd_stride: int
) -> tuple[dict[GridCell, TrialLog], HyperGrid]:
    sub_grid = slice_grid(grid, lr_stride, wd_stride)
    sub_records: dict[GridCell, TrialLog] = {}
    for row in range(sub_grid.n_wd):
        for col in range(sub_grid.n_lr):
            src = GridCell(row * wd_stride, col * lr_stride)
            rec = records[src]
            new_cell = GridCell(row, col)
            sub_records[new_cell] = TrialLog(cell=new_cell, epochs=list(rec.epochs), status=rec.status)
    return sub_records, sub_grid
