"""A run's stored records, ``runs/<run_id>/records.json``: every trial's record, decoded.

``run`` writes it after the search (``write_records``, from
``run_and_store``) from the records the search returns, through
``RunStore._write_text``, so it is replaced whole or not at all. It is the
one stored record of a run's trials: ``RunStore.load_run`` reads it and
nothing else of them.

Format 2. The first line is ``{"format":2,"body_crc32":<zlib.crc32 of the
lines after it>}``. Each line after it is a JSON object for a run of
records in the order written, whole records of up to ``_LINE_EPOCHS``
epochs in all (one record if it has more): per trial its ``row``, ``col``,
``status`` and ``epochs_run``; then the ``train_loss``, ``param_norm``,
``val_acc`` and ``test_acc`` values of the line's epochs end to end (floats
in the trial lines' text, non-finite ones as strings). A record's epochs
are numbered 0, 1, ... on load, so ``write_records`` refuses a record whose
epochs are not, or whose status is unknown.

The loader checks the body CRC first, then reads one line at a time, so
that no copy of the whole file is held. Any fault raises ``RunStoreError``
as ``<path>: line <N>: <detail>``: a first line that is not a format 2
header, a body that does not match its CRC, a line that is not JSON, not
an object or lacks an array, an unknown status, a row, col or epoch count
that is not a non-negative integer (a boolean is not one), a cell outside
the manifest grid or given twice, a column of the wrong length, or a value
that does not decode to a float.
"""

from __future__ import annotations

import json
import zlib
from functools import partial
from itertools import chain, repeat
from typing import Iterable, Sequence

from .grid import GridCell
from .runstore import _STATUS_TEXT, RunStore, RunStoreError, _decode_float, encode_json
from .trainer import EpochLog, TrialRecord

RECORDS = "records.json"
# the arrays of a line after the first: one value per trial, and one per epoch of its trials
_PER_TRIAL = ("row", "col", "status", "epochs_run")
_PER_EPOCH = ("train_loss", "param_norm", "val_acc", "test_acc")
# the epochs a line holds, unless one record has more: at ~80 bytes each its text stays below
# glibc's 128 KiB mmap threshold, so reading a line does not raise that threshold for the process
_LINE_EPOCHS = 1024
# EpochLog(*fields) without its Python-level __new__
_tuple_new = tuple.__new__


def _line(records: Sequence[TrialRecord]) -> str:
    """The line of ``records``, a run of ``records_text``'s list."""
    columns = list(zip(*(entry for r in records for entry in r.epochs)))[1:] or [()] * 4
    arrays = (
        [r.cell.row for r in records], [r.cell.col for r in records],
        [r.status for r in records], [r.epochs_run for r in records], *columns,
    )
    return encode_json(dict(zip(_PER_TRIAL + _PER_EPOCH, arrays)), line=True) + "\n"


def records_text(records: Sequence[TrialRecord]) -> str:
    """The ``records.json`` text of ``records``, in their order."""
    lines = []
    start = n = 0
    for i, record in enumerate(records):
        if record.status not in _STATUS_TEXT or [e[0] for e in record.epochs] != list(range(record.epochs_run)):
            raise RunStoreError(f"record of cell {tuple(record.cell)}: epochs not 0, 1, ..., or unknown status")
        if n + record.epochs_run > _LINE_EPOCHS and i > start:
            lines.append(_line(records[start:i]))
            start, n = i, 0
        n += record.epochs_run
    lines.append(_line(records[start:]))
    body = "".join(lines)
    return f'{{"format":2,"body_crc32":{zlib.crc32(body.encode())}}}\n{body}'


def write_records(store: RunStore, run_id: str, records: Iterable[TrialRecord]) -> None:
    """Write every one of ``records`` to ``run_id``'s ``records.json`` through ``store``."""
    store._write_text(store.run_dir(run_id) / RECORDS, records_text(list(records)))


def _read_line(line: bytes, shape: tuple[int, int], records: dict[GridCell, TrialRecord]) -> None:
    """Add the records of ``line``, a line after the first, to ``records``, those of the lines
    before it."""
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
    if not all(type(s) is str and s in _STATUS_TEXT for s in statuses):
        raise RunStoreError("'status' holds an unknown status")
    for key, values in (("row", rows), ("col", cols), ("epochs_run", runs)):
        if not ({int} >= set(map(type, values)) and min(values, default=0) >= 0):  # a bool is no int
            raise RunStoreError(f"{key!r} holds a value that is not a non-negative integer")
    for k, key in enumerate(_PER_EPOCH):
        if type(columns[k]) is not list or len(columns[k]) != sum(runs):
            raise RunStoreError(f"{key!r} is not an array of one value per epoch")
        columns[k] = map(_decode_float, columns[k])
    epochs = list(map(_tuple_new, repeat(EpochLog), zip(chain.from_iterable(map(range, runs)), *columns)))
    end = 0
    for row, col, status, count in zip(rows, cols, statuses, runs):
        cell = GridCell(row, col)
        if row >= shape[0] or col >= shape[1]:
            raise RunStoreError(f"cell ({row}, {col}) is outside the grid of shape {shape}")
        if cell in records:
            raise RunStoreError(f"cell ({row}, {col}) is given twice")
        records[cell] = TrialRecord(cell, epochs[end:end + count], status)
        end += count


def read_records(path: str, shape: tuple[int, int]) -> dict[GridCell, TrialRecord]:
    """The records in the ``records.json`` at ``path`` of a run whose grid has ``shape``."""
    records: dict[GridCell, TrialRecord] = {}
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
                _read_line(line, shape, records)
            except RunStoreError as exc:
                raise RunStoreError(f"{path}: line {i}: {exc}") from None
    return records
