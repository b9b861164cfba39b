"""A run's trial records as columns, ``Records``, and their stored format, ``runs/<run_id>/records.json``.

``Records`` holds every trial of a run in the order written, one array per
field: per trial its ``row``, ``col``, ``status`` and ``epochs_run``; per
epoch, trial after trial, its ``train_loss``, ``param_norm``, ``val_acc``
and ``test_acc``. No per-trial or per-epoch Python object stands between
the file and the matrices: ``read_records`` fills the columns from each
line's arrays, and ``matrices.assemble`` and ``build_metric_surfaces``
reduce them. The search's ``TrialRecord``s become ``Records`` once, through
``Records.of``, before ``records_lines`` encodes the file's lines from them,
each line once, the header's CRC taken line by line.
``RunStore.write_records`` writes it after the search (from
``run_and_store``), replacing it whole or not at all. It is the one stored
record of a run's trials: ``RunStore.load_run`` reads it and nothing else of
them.

Format 2. The first line is ``{"format":2,"body_crc32":<zlib.crc32 of the
lines after it>}``. Each line after it is a JSON object for a run of
records in the order written, whole records of up to ``_LINE_EPOCHS``
epochs in all (one record if it has more): the four per-trial arrays, then
the four per-epoch arrays of the line's epochs end to end (floats in the
trial lines' text, non-finite ones as strings). A record's epochs are
numbered 0, 1, ... on load, so ``Records.of`` refuses a record whose epochs
are not, or whose status is unknown. A loss or norm is always a float, and
an accuracy is a finite float or null (not scored): the trainer writes no
other, and ``Records.of`` refuses a non-finite accuracy.

The loader checks the body CRC first, then reads one line at a time, so
that no copy of the whole file is held. A per-epoch column whose values
``json.loads`` returns as floats (and, for an accuracy, nulls) only is used
as it is; any other goes through runstore's ``_decode_float`` value by
value, which turns an integer into a float and ``"NaN"``, ``"Inf"`` and
``"-Inf"`` into the non-finite floats, and refuses the rest. Any fault
raises ``RunStoreError`` as ``<path>: line <N>: <detail>``: a first line
that is not a format 2 header, a body that does not match its CRC, a line
that is not JSON, not an object or lacks an array, an unknown status, a
row, col or epoch count that is not a non-negative integer (a boolean is
not one), a cell outside the manifest grid or given twice, a column of the
wrong length, a value that does not decode to a float, a null loss or norm,
or a non-finite accuracy.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .runstore import _STATUS_TEXT, RunStoreError, _decode_float, encode_json
from .trainer import TrialRecord

# the arrays of a line after the first: one value per trial, and one per epoch of its trials
_PER_TRIAL = ("row", "col", "status", "epochs_run")
_PER_EPOCH = ("train_loss", "param_norm", "val_acc", "test_acc")
# the epochs a line holds, unless one record has more: at ~80 bytes each its text stays below
# glibc's 128 KiB mmap threshold, so reading a line does not raise that threshold for the process
_LINE_EPOCHS = 1024
# a trial's status is its index here; 0 is the one status that is not terminal
STATUSES = tuple(_STATUS_TEXT)
_CODES = {status: code for code, status in enumerate(STATUSES)}
_FLOAT = {float}
_FLOAT_OR_NULL = {float, type(None)}


@dataclass(frozen=True, eq=False)
class Records:
    """Every trial's record of a run as columns, trials in the order written.

    ``row``, ``col``, ``status`` (an index into ``STATUSES``) and ``epochs_run``
    are int64 arrays of one value per trial. ``train_loss``, ``param_norm``,
    ``val_acc`` and ``test_acc`` are float64 arrays of one value per epoch, a
    trial's epochs in order after those of the trial before it. NaN in
    ``val_acc``/``test_acc`` means "not scored".
    """

    row: np.ndarray
    col: np.ndarray
    status: np.ndarray
    epochs_run: np.ndarray
    train_loss: np.ndarray
    param_norm: np.ndarray
    val_acc: np.ndarray
    test_acc: np.ndarray

    @classmethod
    def of(cls, records: Iterable[TrialRecord]) -> Records:
        """The columns of ``records``, in their order; a record the format cannot hold,
        or one with a non-finite accuracy, is refused."""
        records = list(records)
        runs = np.array([r.epochs_run for r in records], dtype=np.int64)
        trial = np.repeat(np.arange(len(records)), runs)  # the trial of each epoch
        numbers, *columns = list(zip(*(e for r in records for e in r.epochs))) or [()] * 5
        arrays = [np.array(column, dtype=np.float64) for column in columns]  # a null is NaN
        bad = np.array([r.status not in _STATUS_TEXT for r in records], dtype=bool)
        first = (np.cumsum(runs) - runs)[trial]  # the index of each epoch's trial's first epoch
        bad[trial[np.array(numbers, dtype=np.int64) != np.arange(trial.size) - first]] = True
        if bad.any():
            row, col = records[int(np.argmax(bad))].cell
            raise RunStoreError(f"record of cell ({row}, {col}): epochs not 0, 1, ..., or unknown status")
        for column, array in zip(columns[2:], arrays[2:]):
            if np.count_nonzero(~np.isfinite(array)) != column.count(None):
                at = next(i for i, v in enumerate(column) if v is not None and not math.isfinite(v))
                row, col = records[trial[at]].cell
                raise RunStoreError(f"record of cell ({row}, {col}): an accuracy is not finite")
        return cls(
            np.array([r.cell.row for r in records], dtype=np.int64),
            np.array([r.cell.col for r in records], dtype=np.int64),
            np.array([_CODES[r.status] for r in records], dtype=np.int64),
            runs,
            *arrays,
        )

    @property
    def terminal(self) -> np.ndarray:
        """True for each trial whose status is terminal."""
        return self.status != 0

    def take(self, trials: np.ndarray) -> Records:
        """The records of the trials at the indices ``trials``, in that order."""
        runs = self.epochs_run[trials]
        starts = (np.cumsum(self.epochs_run) - self.epochs_run)[trials]
        index = np.repeat(starts - np.cumsum(runs) + runs, runs) + np.arange(runs.sum())
        return Records(
            self.row[trials], self.col[trials], self.status[trials], runs,
            *(getattr(self, key)[index] for key in _PER_EPOCH),
        )


def _accuracies(values: np.ndarray) -> list:
    """``values`` as JSON-ready floats, NaN (not scored) as null."""
    return [None if v != v else v for v in values.tolist()]


def _line(records: Records, a: int, b: int, bounds: list[int]) -> str:
    """The line of trials ``a`` to ``b`` of ``records``, whose epochs begin at ``bounds``."""
    lo, hi = bounds[a], bounds[b]
    arrays = (
        records.row[a:b].tolist(), records.col[a:b].tolist(),
        [STATUSES[s] for s in records.status[a:b].tolist()], records.epochs_run[a:b].tolist(),
        records.train_loss[lo:hi].tolist(), records.param_norm[lo:hi].tolist(),
        _accuracies(records.val_acc[lo:hi]), _accuracies(records.test_acc[lo:hi]),
    )
    return encode_json(dict(zip(_PER_TRIAL + _PER_EPOCH, arrays)), line=True) + "\n"


def records_lines(records: Records) -> list[bytes]:
    """The lines of the ``records.json`` of ``records``, in their order, each encoded once: the
    header, with the running CRC of the lines after it, then those lines."""
    runs = records.epochs_run.tolist()
    bounds = [0, *np.cumsum(runs).tolist()]
    lines = []
    start = n = 0
    for i, count in enumerate(runs):
        if n + count > _LINE_EPOCHS and i > start:
            lines.append(_line(records, start, i, bounds).encode())
            start, n = i, 0
        n += count
    lines.append(_line(records, start, len(runs), bounds).encode())
    crc = 0
    for line in lines:
        crc = zlib.crc32(line, crc)
    return [f'{{"format":2,"body_crc32":{crc}}}\n'.encode(), *lines]


def _first_bad_cell(rows: list, cols: list, shape: tuple[int, int], seen: np.ndarray) -> str:
    """The fault of the first trial of a line whose cell is outside the grid or given twice,
    in the line or before it (``seen``, by flat index)."""
    given = set()
    for row, col in zip(rows, cols):
        if row >= shape[0] or col >= shape[1]:
            return f"cell ({row}, {col}) is outside the grid of shape {shape}"
        flat = row * shape[1] + col
        if seen[flat] or flat in given:
            return f"cell ({row}, {col}) is given twice"
        given.add(flat)
    raise AssertionError("no faulty cell")


def _read_line(line: bytes, shape: tuple[int, int], seen: np.ndarray, parts: dict[str, list]) -> None:
    """Append the columns of ``line``, a line after the first, to ``parts``, and mark its cells
    in ``seen``, the cells of the lines before it."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise RunStoreError(f"not JSON: {exc}") from None
    if type(doc) is not dict:
        raise RunStoreError("not an object")
    rows, cols, statuses, runs, *columns = map(doc.get, _PER_TRIAL + _PER_EPOCH)
    n = len(rows) if type(rows) is list else -1
    for key, values in zip(_PER_TRIAL, (rows, cols, statuses, runs)):
        if type(values) is not list or len(values) != n:
            raise RunStoreError(f"{key!r} is not an array of one value per trial")
    codes = [_CODES.get(s) if type(s) is str else None for s in statuses]
    if None in codes:
        raise RunStoreError("'status' holds an unknown status")
    for key, values in (("row", rows), ("col", cols), ("epochs_run", runs)):
        if not ({int} >= set(map(type, values)) and min(values, default=0) >= 0):  # a bool is no int
            raise RunStoreError(f"{key!r} holds a value that is not a non-negative integer")
    total = sum(runs)
    for k, key in enumerate(_PER_EPOCH):
        values = columns[k]
        if type(values) is not list or len(values) != total:
            raise RunStoreError(f"{key!r} is not an array of one value per epoch")
        if not (_FLOAT if k < 2 else _FLOAT_OR_NULL) >= set(map(type, values)):
            values = list(map(_decode_float, values))
        nulls = values.count(None)
        if k < 2 and nulls:
            raise RunStoreError(f"{key!r} holds a null")
        columns[k] = np.array(values, dtype=np.float64)  # a null is NaN
        if k >= 2 and np.count_nonzero(~np.isfinite(columns[k])) != nulls:
            raise RunStoreError(f"{key!r} holds a value that is not finite")
    if max(rows, default=0) >= shape[0] or max(cols, default=0) >= shape[1]:
        raise RunStoreError(_first_bad_cell(rows, cols, shape, seen))
    row, col = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    flat = row * shape[1] + col
    ordered = np.sort(flat)  # np.unique would import numpy.ma, half a megabyte of module
    if seen[flat].any() or (ordered[1:] == ordered[:-1]).any():
        raise RunStoreError(_first_bad_cell(rows, cols, shape, seen))
    seen[flat] = True
    for key, array in zip(_PER_TRIAL + _PER_EPOCH, (row, col, codes, runs, *columns)):
        parts[key].append(np.asarray(array, dtype=parts[key][0].dtype))


def read_records(path: str, shape: tuple[int, int]) -> Records:
    """The records in the ``records.json`` at ``path`` of a run whose grid has ``shape``."""
    # per column, its part of each line, after an empty part of the column's dtype
    parts = {key: [np.empty(0, np.int64)] for key in _PER_TRIAL}
    parts.update({key: [np.empty(0, np.float64)] for key in _PER_EPOCH})
    seen = np.zeros(shape[0] * shape[1], dtype=bool)
    with open(path, "rb") as fh:
        head = fh.readline()
        crc = 0
        for chunk in iter(partial(fh.read, 1 << 16), b""):  # no copy of the whole file
            crc = zlib.crc32(chunk, crc)
        try:
            doc = json.loads(head)
        except (ValueError, RecursionError) as exc:
            raise RunStoreError(f"{path}: line 1: not JSON: {exc}") from None
        if type(doc) is not dict or doc.get("format") != 2:
            raise RunStoreError(f"{path}: line 1: not a format 2 records file")
        if doc.get("body_crc32") != crc:
            raise RunStoreError(f"{path}: line 1: 'body_crc32' does not match the lines after the first")
        fh.seek(len(head))
        for i, line in enumerate(fh, 2):
            try:
                _read_line(line, shape, seen, parts)
            except RunStoreError as exc:
                raise RunStoreError(f"{path}: line {i}: {exc}") from None
    # each column's line parts are dropped once joined, so one column is held twice at a time
    return Records(*(np.concatenate(parts.pop(key)) for key in _PER_TRIAL + _PER_EPOCH))
