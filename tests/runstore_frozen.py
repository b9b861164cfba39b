"""Frozen reference for reading one trial file: the per-line ``json.loads``
loader, written out once and not changed since.

Any rewrite of ``RunStore._read_jsonl``, which reads the trial files (no
command reads the decision log), must load the same records from the
same bytes, and fail on the same bytes with the same exception type,
message and warnings. Three deliberate changes since: the package
rejects JSON booleans as row/col/epoch, which this reference
(``isinstance(x, int)``) accepts; a line that is no JSON object and not
rejected for a missing field (a number, boolean or null, or an array or
string holding every field name), a status that is an array or object,
or a float field holding an integer beyond float range, raises
``RunStoreError`` in the package, where this reference lets a
``TypeError`` or ``OverflowError`` escape (``ESCAPED_FAULTS`` in
``tests/test_runstore.py``); and the package places every
``RunStoreError`` and warning as ``<path>: line <N>: <detail>``, N the
line of the file (blank lines counted), where this reference names the
path on some faults only and counts non-blank lines.
``tests/test_runstore.py`` (``relocated``) moves this reference's
messages to that form, at the line where the test put the fault, before
comparing.
"""

from __future__ import annotations

import json
import math
import warnings

from twinsearch.runstore import RunStoreError
from twinsearch.trainer import EpochLog, TrialRecord

__all__ = ["reference_load_trial_file", "reference_read_jsonl"]

TERMINAL_STATUSES = frozenset({"completed", "stopped_early", "diverged"})
KNOWN_STATUSES = frozenset({"running", *TERMINAL_STATUSES})
TRIAL_FIELDS = ("row", "col", "epoch", "train_loss", "param_norm", "status")


def _decode_float(value):
    if value is None:
        return None
    if isinstance(value, str):
        if value == "NaN":
            return math.nan
        if value == "Inf":
            return math.inf
        if value == "-Inf":
            return -math.inf
        raise RunStoreError(f"not a float encoding: {value!r}")
    return float(value)


def _not_an_index(key):
    return RunStoreError(f"trial line field {key!r} must be a non-negative integer")


def reference_read_jsonl(path: str) -> list:
    with open(path, "rb") as fh:
        raw = fh.read()
    out = []
    chunks = raw.split(b"\n")
    torn_tail = chunks[-1] != b""
    lines = [c for c in chunks if c != b""]
    for i, chunk in enumerate(lines, start=1):
        try:
            out.append(json.loads(chunk.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            if i == len(lines):
                warnings.warn(f"{path}: dropping torn final line {i}: {exc}")
                return out
            raise RunStoreError(f"{path}: corrupt line {i}: {exc}") from exc
    if torn_tail and lines:
        warnings.warn(f"{path}: dropping unterminated final line {len(lines)}")
        return out[:-1]
    return out


def reference_load_trial_file(path: str, cell) -> TrialRecord:
    record = TrialRecord(cell=cell)
    epochs = record.epochs
    for d in reference_read_jsonl(path):
        for key in TRIAL_FIELDS:
            if key not in d:
                raise RunStoreError(f"trial line missing field {key!r}")
        row, col, epoch, status = d["row"], d["col"], d["epoch"], d["status"]
        if not (isinstance(row, int) and row >= 0):
            raise _not_an_index("row")
        if not (isinstance(col, int) and col >= 0):
            raise _not_an_index("col")
        if not (isinstance(epoch, int) and epoch >= 0):
            raise _not_an_index("epoch")
        if status not in KNOWN_STATUSES:
            raise RunStoreError(f"trial line field 'status' has unknown value {status!r}")
        log = EpochLog(
            epoch,
            _decode_float(d["train_loss"]),
            _decode_float(d["param_norm"]),
            _decode_float(d.get("val_acc")),
            _decode_float(d.get("test_acc")),
        )
        if row != cell.row or col != cell.col:
            raise RunStoreError(f"{path}: line for cell ({row}, {col}) in wrong file")
        if epoch != len(epochs):
            raise RunStoreError(f"{path}: epoch {epoch} breaks contiguity after {len(epochs) - 1}")
        epochs.append(log)
        if status in TERMINAL_STATUSES:
            record.status = status
    return record
