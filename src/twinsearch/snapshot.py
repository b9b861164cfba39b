"""The records snapshot, ``runs/<run_id>/records.json``: every trial file's record, decoded.

The trial files are the only source of truth; the snapshot is derived from
them so that ``RunStore.load_run`` need not parse them. ``run`` writes it
after the search (``write_records``, from ``run_and_store``) from the records
the search returns and what ``RunStore.append_trial_line`` kept of each file
it wrote: the byte length and ``zlib.crc32`` of the bytes written, and a
fingerprint of the record then. No file is read back, and a record that
changed after its file was written is left out, so its file is parsed. No
snapshot is written if a file would not load as the epochs and status it was
written from (epochs that are not 0, 1, ..., an unknown status). Its first line is
``{"format":1,"body_crc32":<zlib.crc32 of the lines after it>}``, so a
snapshot edited after the write is not used. Each line after it is a JSON
object for a run of trial files in name order, whole files of up to
``_LINE_EPOCHS`` epochs in all (one file if it has more): per file its name,
length, CRC-32, status as the loader reads it and epochs run; then the loss,
norm, val and test values of the line's epochs end to end (floats in the
trial lines' text, non-finite ones as strings).

``load_run`` reads every trial file once and takes a file's record from the
snapshot only if the snapshot lists that name with the same length and CRC;
it parses every other file. It reads the snapshot a line at a time, in step
with the sorted trial files, so that no copy of the whole snapshot is held.
The records, errors and warnings are those of parsing every file. A missing
snapshot is never an error. A malformed one is ignored with a warning naming
it: a bad first line or body CRC before any trial file is read, a bad later
line when the loader reaches it, from which on every file is parsed.
External writers need not write it.
"""

from __future__ import annotations

import json
import warnings
import zlib
from functools import partial
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

from .grid import GridCell
from .runstore import (
    _STATUS_TEXT,
    _WRITTEN,
    RunStore,
    RunStoreError,
    _decode_float,
    _fingerprint,
    encode_json,
)
from .trainer import STATUS_RUNNING, TERMINAL_STATUSES, EpochLog, TrialRecord

RECORDS = "records.json"
# the arrays of a line after the first: one value per trial file, and one per epoch of its files
_PER_FILE = ("file", "length", "crc32", "status", "epochs_run")
_PER_EPOCH = ("train_loss", "param_norm", "val_acc", "test_acc")
# the epochs a line holds, unless one file has more: at ~80 bytes each its text stays below
# glibc's 128 KiB mmap threshold, so reading a line does not raise that threshold for the process
_LINE_EPOCHS = 1024
# EpochLog(*fields) without its Python-level __new__
_tuple_new = tuple.__new__


def _line(files: list[tuple[GridCell, int, int, Sequence[EpochLog], str]]) -> str:
    """The snapshot line of ``files``, a run of ``snapshot_text``'s list."""
    columns = list(zip(*(entry for f in files for entry in f[3])))[1:] or [()] * 4
    cells, sizes, crcs, epochs, statuses = zip(*files)
    names = [f"{cell.row}_{cell.col}.jsonl" for cell in cells]
    # the status as the loader reads it: the last line's, if that is terminal
    statuses = [s if e and s in TERMINAL_STATUSES else STATUS_RUNNING for e, s in zip(epochs, statuses)]
    arrays = (names, sizes, crcs, statuses, list(map(len, epochs)), *columns)
    return encode_json(dict(zip(_PER_FILE + _PER_EPOCH, arrays)), line=True) + "\n"


def write_records(store: RunStore, run_id: str, records: Iterable[TrialRecord]) -> None:
    """Write ``run_id``'s snapshot through ``store``: of each of ``records`` whose trial file
    ``store`` wrote and which is as it was then, with the length and CRC-32 ``store`` kept of the
    bytes written. Nothing is written if there is none, or if one would not load as its record."""
    target = store._trial_targets.get(run_id)
    if target is None:
        return
    n_rows, n_cols, _, written = target
    files = []
    for record in records:
        row, col = record.cell
        if 0 <= row < n_rows and 0 <= col < n_cols:
            size, crc, kept = _WRITTEN.unpack_from(written, _WRITTEN.size * (row * n_cols + col))
            if kept == _fingerprint(record):  # a cell not written keeps 0
                files.append((record.cell, size, crc, record.epochs, record.status))
    text = snapshot_text(files)
    if text is not None:
        store._write_text(store.run_dir(run_id) / RECORDS, text)


def snapshot_text(files: list[tuple[GridCell, int, int, Sequence[EpochLog], str]]) -> str | None:
    """The snapshot of the trial files ``files`` lists as (cell, byte length, CRC-32, epochs,
    status); None if there is none, or if one of them would not load as those epochs and status."""
    if not files:
        return None
    files = sorted(files, key=lambda f: f"{f[0].row}_{f[0].col}.jsonl")  # name order
    lines = []
    start = n = 0
    for i, (_, _, _, epochs, status) in enumerate(files):
        if status not in _STATUS_TEXT or [e[0] for e in epochs] != list(range(len(epochs))):
            return None
        if n + len(epochs) > _LINE_EPOCHS and i > start:
            lines.append(_line(files[start:i]))
            start, n = i, 0
        n += len(epochs)
    lines.append(_line(files[start:]))
    body = "".join(lines)
    return f'{{"format":1,"body_crc32":{zlib.crc32(body.encode())}}}\n{body}'


def _entries(path: str) -> Iterator[tuple[str, int, int, list[EpochLog], str]]:
    """(name, length, CRC-32, epochs, status) of each trial file the snapshot at ``path`` lists,
    in its order; nothing if there is none, and nothing more after a warning once it proves
    malformed."""
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            crc = 0
            for chunk in iter(partial(fh.read, 1 << 16), b""):  # no copy of the whole snapshot
                crc = zlib.crc32(chunk, crc)
            doc = json.loads(head)
            if type(doc) is not dict or doc.get("format") != 1:
                raise RunStoreError("not a format 1 records snapshot")
            if doc.get("body_crc32") != crc:
                raise RunStoreError("'body_crc32' does not match the lines after the first")
            fh.seek(len(head))
            for i, line in enumerate(fh, 2):
                doc = json.loads(line)
                if type(doc) is not dict:
                    raise RunStoreError(f"line {i}: not an object")
                names, sizes, crcs, statuses, runs, *columns = map(doc.get, _PER_FILE + _PER_EPOCH)
                for key, values in zip(_PER_FILE, (names, sizes, crcs, statuses, runs)):
                    if type(values) is not list or len(values) != len(names):
                        raise RunStoreError(f"line {i}: {key!r} is not an array of one value per file")
                if not {str} >= set(map(type, names)):
                    raise RunStoreError(f"line {i}: 'file' holds a value that is not a string")
                if not _STATUS_TEXT.keys() >= set(statuses):
                    raise RunStoreError(f"line {i}: 'status' holds an unknown status")
                if not ({int} >= set(map(type, runs)) and min(runs, default=0) >= 0):
                    raise RunStoreError(f"line {i}: 'epochs_run' holds a value that is not a non-negative integer")
                for k, key in enumerate(_PER_EPOCH):
                    if type(columns[k]) is not list or len(columns[k]) != sum(runs):
                        raise RunStoreError(f"line {i}: {key!r} is not an array of one value per epoch")
                    columns[k] = map(_decode_float, columns[k])
                epochs = list(map(_tuple_new, repeat(EpochLog), zip(chain.from_iterable(map(range, runs)), *columns)))
                end = 0
                for name, size, file_crc, status, n in zip(names, sizes, crcs, statuses, runs):
                    yield name, size, file_crc, epochs[end:end + n], status
                    end += n
    except FileNotFoundError:
        return
    except (OSError, ValueError, TypeError, RecursionError, RunStoreError) as exc:
        warnings.warn(f"{path}: ignoring the records snapshot: {exc}")


class SnapshotReader:
    """The records the snapshot of the run in directory ``run_dir`` lists, asked for in trial
    file name order; a context manager that closes the snapshot file on exit."""

    def __init__(self, run_dir: str):
        self._entries = _entries(f"{run_dir}/{RECORDS}")
        self._entry = next(self._entries, None)

    def __enter__(self) -> SnapshotReader:
        return self

    def __exit__(self, *exc) -> None:
        self._entries.close()

    def read(self, cell: GridCell, name: str, data: bytes) -> TrialRecord | None:
        """``cell``'s record if the snapshot lists its trial file ``name`` with the length and
        CRC-32 of ``data``, the file's bytes, else None. Each name must sort after the one before."""
        while self._entry is not None and self._entry[0] < name:
            self._entry = next(self._entries, None)
        entry = self._entry
        if entry is None or entry[0] != name or entry[1] != len(data) or entry[2] != zlib.crc32(data):
            return None
        return TrialRecord(cell, entry[3], entry[4])
