"""Replayable run persistence.

Directory layout (the public contract for external training systems):

    runs/<run_id>/
        manifest.json        grid, scheduler policy, trainer/arch/task specs, seeds
        trials/<row>_<col>.jsonl   one line per epoch, in epoch order
        decisions.jsonl      scheduler decision log (rung outcomes + terminal stops)
        records.json         records snapshot: the trial files' records, decoded
        matrices.json        psi/theta/masks/epochs_run, row-major
        selection.json       the twin pick with full provenance
        baselines.json       baseline picks (written by the baseline command)
        eval_report.json     method-vs-oracle errors

A trial file is its trial's whole record: an external writer writes one per
cell it trains, and an ended trial's last line carries its terminal status
(``completed``, ``stopped_early`` or ``diverged``); a file whose last line
says ``running`` is a trial still owed epochs, unless it ran the whole
budget (``resume_plan``). ``decisions.jsonl`` is the search's provenance:
the search writes it, and no command reads it.

Plain JSON cannot carry non-finite floats, so they are encoded as the
strings "NaN"/"Inf"/"-Inf". Field order is fixed and floats use Python's
shortest-round-trip repr, which makes write/load cycles bit-exact. The
artifacts are ``json.dumps(..., indent=2)``'s text, built by the C encoder
(``encode_json``). ``_trial_line_text``, the only trial-line encoder,
builds one line directly, byte for byte what ``encode_json``'s line form
gives. A torn final trial line (an external writer cut off mid-append) is
dropped with a warning on load; corruption anywhere else is an error.

``load_run`` reads each trial file whole, in one ``os.read``, and parses it
in two passes, as the per-line ``json.loads`` reader of
``tests/runstore_frozen.py`` does. The first splits the bytes on newlines
and runs ``json.loads`` on each non-blank line, decoded as UTF-8. A line
that fails is an error, unless it is the last non-blank line: that torn
line is dropped with a warning, as is a last line that parses but has no
newline. The second checks the parsed lines in order: an object with every
field, non-negative integer row/col/epoch (booleans are not), a known
status string, decodable floats (an integer beyond float range is not), the
file's own cell and contiguous epochs from 0. The first fault raises
``RunStoreError`` as ``<path>: line <N>: <detail>``, N counting every line
of the file from 1, blank ones included. So a line that is not JSON wins
over a failed check, and the warning for a dropped tail comes before a
check's error. A trial file must be named ``<row>_<col>.jsonl`` as the
writer spells it. The manifest, ``matrices.json`` and ``selection.json``
are checked for the fields read from them (``<path>: <detail>``). A run id
must name one directory inside the store root.

The trial files are the only source of truth. ``records.json``, the records
snapshot (``twinsearch.snapshot``), is derived from them so that ``load_run``
need not parse them: it still reads every trial file once, takes a file's
record from the snapshot only if the snapshot lists that name with the same
byte length and ``zlib.crc32``, and parses any other file. A missing
snapshot is never an error; a malformed one is ignored with a warning
naming it. External writers need not write it. Every run ``twinsearch run``
writes has one; a run without one (written before the snapshot existed, or
by an external writer) has every trial file parsed, which costs more than
the C-scanner reader this parser replaced did: a 40x40 run of 6 epochs a
trial loads in ~75-90 ms from its files, against ~55-70 ms then and
~35 ms from its snapshot (2-core host).

Trial lines written by ``execute_search`` carry ``val_acc``/``test_acc``
only on the epochs the baseline summaries read: the last finite epoch under
FIFO, the last five under early stopping (``matrices.metric_window``).
Every other line has null metrics. Loading does not depend on this: files
with metrics on every epoch, as older runs have, load to the same summaries.

The search writes a trial's file once, whole, in the round the trial ends:
``append_trial_line`` creates it exclusively and writes every line in one
unbuffered ``os.write``. A file that already exists is an error and is left
as it is; a short write raises. The file reaches the operating system at
once but is not fsynced, so a machine crash can lose it. A process killed
mid-search leaves the files of ended trials and none of its alive trials';
no command reads such a partial run, which ``resume_plan`` reports.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import warnings
import zlib
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

from .grid import GridCell, HyperGrid
from .scheduler import SchedulerPolicy
from .trainer import STATUS_RUNNING, TERMINAL_STATUSES, EpochLog, TrialRecord

__all__ = [
    "RunStore",
    "RunStoreError",
    "RunNotFoundError",
    "encode_json",
    "resume_plan",
]

TOOL_VERSION = "0.1.0"

_TRIAL_FILE_RE = re.compile(r"^(\d+)_(\d+)\.jsonl$")
_INF_TEXT = {math.inf: "Inf", -math.inf: "-Inf"}
_SEPARATORS = tuple(sep for sep in (os.sep, os.altsep) if sep)
# the manifest objects the loaders read: the class that checks each, and the fields read from it
_MANIFEST_FIELDS = {
    "grid": (HyperGrid, ("lr_values", "wd_values", "lr_bounds", "wd_bounds")),
    "scheduler": (SchedulerPolicy, ("kind", "epoch_budget")),
}


class RunStoreError(RuntimeError):
    pass


class RunNotFoundError(RunStoreError):
    pass


def _encode(obj):
    """``obj`` with non-finite floats as strings and tuples as lists."""
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):  # NaN is the one value unequal to itself
        return [_encode(v) if isinstance(v, (dict, list, tuple)) or v != v or v in _INF_TEXT else v for v in obj]
    return "NaN" if obj != obj else _INF_TEXT.get(obj, obj)


def _document(obj) -> str:
    """``json.dumps(obj, indent=2)`` of ``_encode``'s output: a list of scalars is one C
    ``json.dumps``; items are indented by replacing newlines (JSON strings hold none)."""
    if not obj or type(obj) not in (dict, list):
        return json.dumps(obj)
    if type(obj) is dict:
        body = ",\n".join(f"{encode_basestring_ascii(k)}: {_document(v)}" for k, v in obj.items())
    elif {dict, list}.isdisjoint(map(type, obj)):
        body = json.dumps(obj, separators=(",\n", ": "))[1:-1]
    else:
        body = ",\n".join(map(_document, obj))
    return ("{%s\n}" if type(obj) is dict else "[%s\n]") % ("\n" + body).replace("\n", "\n  ")


def _float_text(value: float | None) -> str:
    """One float field of a trial line, as ``encode_json`` writes it."""
    if value is None:
        return "null"
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return '"NaN"'
    return '"Inf"' if value > 0 else '"-Inf"'


_STATUS_TEXT = {s: json.dumps(s) for s in (STATUS_RUNNING, *sorted(TERMINAL_STATUSES))}
# every field a trial line must carry, in the order a missing one is reported
_TRIAL_FIELDS = ("row", "col", "epoch", "train_loss", "param_norm", "status")
# the JSON name of each type a JSON value decodes to
_JSON_KINDS = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}
# what ``append_trial_line`` keeps of the trial file it writes: byte length, CRC-32, fingerprint
_WRITTEN = struct.Struct("3q")


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
    try:
        return float(value)
    except OverflowError:
        raise RunStoreError(f"integer of {value.bit_length()} bits is out of float range") from None
    except TypeError:
        raise RunStoreError(f"not a float encoding: a JSON {_JSON_KINDS[type(value)]}") from None


def encode_json(obj, line: bool = False) -> str:
    """Canonical JSON text: insertion order kept, non-finite floats as strings, string keys;
    ``json.dumps(..., indent=2)``'s text, or compact as one line."""
    if line:
        return json.dumps(_encode(obj), separators=(",", ":"))
    return _document(_encode(obj))


def _trial_line_text(cell: GridCell, entry: EpochLog, status: str) -> str:
    """One trial line without its newline: ``encode_json(fields, line=True)``, built directly."""
    return (
        f'{{"row":{cell.row:d},"col":{cell.col:d},"epoch":{entry.epoch:d},'
        f'"train_loss":{_float_text(entry.train_loss)},'
        f'"param_norm":{_float_text(entry.param_norm)},'
        f'"val_acc":{_float_text(entry.val_metric)},"test_acc":{_float_text(entry.test_metric)},'
        f'"status":{_STATUS_TEXT.get(status) or json.dumps(status)}}}'
    )


def _epoch_log(d, cell: GridCell, epoch: int) -> EpochLog:
    """The epoch that trial line ``d``, the ``epoch``-th line of ``cell``'s file, logs."""
    if isinstance(d, (dict, list, str)):  # an array or string without a field name fails as an object
        for key in _TRIAL_FIELDS:
            if key not in d:
                raise RunStoreError(f"trial line missing field {key!r}")
    if type(d) is not dict:
        raise RunStoreError(f"trial line is a JSON {_JSON_KINDS[type(d)]}, not an object")
    for key in ("row", "col", "epoch"):
        if type(d[key]) is not int or d[key] < 0:
            raise RunStoreError(f"trial line field {key!r} must be a non-negative integer")
    if type(d["status"]) is not str or d["status"] not in _STATUS_TEXT:
        raise RunStoreError(f"trial line field 'status' has unknown value {d['status']!r}")
    log = EpochLog(
        d["epoch"], _decode_float(d["train_loss"]), _decode_float(d["param_norm"]),
        _decode_float(d.get("val_acc")), _decode_float(d.get("test_acc")),
    )
    if (d["row"], d["col"]) != cell:
        raise RunStoreError(f"line for cell ({d['row']}, {d['col']}) in wrong file")
    if log.epoch != epoch:
        raise RunStoreError(f"epoch {log.epoch} breaks contiguity after {epoch - 1}")
    return log


def _fingerprint(record: TrialRecord) -> int:
    """A hash of ``record``'s status and epochs, kept with the file written from it: within one
    process it changes when they do, but for a chance of about one in 2**64."""
    return hash((record.status, *record.epochs))


def _read_bytes(path: str) -> bytes:
    """The whole file at ``path``, in one ``os.read``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


class RunStore:
    """All reads and writes for one store root (default ./runs)."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        # run_id -> (grid rows, grid cols, trials directory as a plain string, and per cell in
        # row-major order a ``_WRITTEN`` of the trial file written, or zeros) for the records
        # snapshot (``snapshot.write_records``);
        # not an array.array: loading that module kept ~0.13 MB more resident over a 30x30 search
        self._trial_targets: dict[str, tuple[int, int, str, bytearray]] = {}

    def run_dir(self, run_id: str) -> Path:
        """``root/run_id``; an id that would name the root, a parent or a nested path is refused."""
        if run_id in ("", ".", "..") or any(sep in run_id for sep in _SEPARATORS):
            raise RunStoreError(f"run id {run_id!r} must name one directory inside {self.root}")
        return self.root / run_id

    # -- writing ----------------------------------------------------------

    def create_run(self, run_id: str, manifest: dict) -> None:
        run_dir = self.run_dir(run_id)
        if run_dir.exists():
            raise RunStoreError(f"run {run_id!r} already exists at {run_dir}")
        (run_dir / "trials").mkdir(parents=True)
        payload = {"run_id": run_id, "tool_version": TOOL_VERSION, **manifest}
        self._write_text(run_dir / "manifest.json", encode_json(payload) + "\n")

    def append_trial_line(self, run_id: str, record: TrialRecord) -> None:
        """Write ``record``'s trial file whole: ``running`` on every line but the
        last, which carries the record's status."""
        target = self._trial_targets.get(run_id)
        if target is None:
            run_dir = self.run_dir(run_id)
            if not (run_dir / "manifest.json").exists():
                raise RunStoreError(f"run {run_id!r} has no manifest; create the run first")
            shape = _grid_shape(self.load_manifest(run_id))
            files = bytearray(_WRITTEN.size * shape[0] * shape[1])
            target = self._trial_targets[run_id] = (*shape, str(run_dir / "trials"), files)
        n_rows, n_cols, trials_dir, files = target
        row, col = cell = record.cell
        if not (0 <= row < n_rows and 0 <= col < n_cols):
            raise RunStoreError(f"cell ({row}, {col}) outside grid of shape {(n_rows, n_cols)}")
        path = f"{trials_dir}/{row}_{col}.jsonl"
        last = record.epochs_run - 1
        data = "".join(
            _trial_line_text(cell, entry, record.status if i == last else STATUS_RUNNING) + "\n"
            for i, entry in enumerate(record.epochs)
        ).encode()
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            raise RunStoreError(f"{path}: trial file already exists") from None
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise RunStoreError(f"{path}: short write, {written} of {len(data)} bytes")
        at = _WRITTEN.size * (row * n_cols + col)
        _WRITTEN.pack_into(files, at, written, zlib.crc32(data), _fingerprint(record))

    def append_decisions(self, run_id: str, decisions: Iterable[dict]) -> None:
        path = self.run_dir(run_id) / "decisions.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for d in decisions:
                fh.write(encode_json(d, line=True) + "\n")
            fh.flush()

    def write_matrices(self, run_id: str, matrices, grid: HyperGrid, outlier_mask) -> None:
        payload = {
            "shape": list(grid.shape),
            "layout": "row-major",
            "psi": matrices.psi.ravel().tolist(),
            "theta": matrices.theta.ravel().tolist(),
            "valid_mask": matrices.valid_mask.ravel().tolist(),
            "epochs_run": matrices.epochs_run.ravel().tolist(),
            "outlier_mask": outlier_mask.ravel().tolist(),
        }
        self._write_text(self.run_dir(run_id) / "matrices.json", encode_json(payload) + "\n")

    def load_matrices(self, run_id: str):
        from .matrices import LogMatrices

        dtypes = {"psi": float, "theta": float, "valid_mask": bool, "epochs_run": "int64"}
        return LogMatrices(**self._load_artifact(run_id, "matrices.json", dtypes)[2])

    def write_selection(self, run_id: str, artifacts) -> None:
        sel = artifacts.selection
        payload = {
            "selection": sel.to_dict(),
            "quickshift_params": artifacts.params.to_dict(),
            "region_means": artifacts.region_means.tolist(),
            "labels": artifacts.segments.labels.ravel().tolist(),
            "outlier_mask": artifacts.outlier_mask.ravel().tolist(),
            "shape": list(artifacts.segments.labels.shape),
            "layout": "row-major",
        }
        self._write_text(self.run_dir(run_id) / "selection.json", encode_json(payload) + "\n")

    def load_selection(self, run_id: str):
        """The stored twin pick's cell and region id, and the region label of every cell."""
        path, d, arrays = self._load_artifact(run_id, "selection.json", {"labels": "int64"}, ("selection",))
        sel = d["selection"]
        cell = sel.get("cell") if type(sel) is dict else None
        fields = (cell.get("row"), cell.get("col"), sel.get("region_id")) if type(cell) is dict else ()
        if not (fields and all(type(v) is int for v in fields)):
            raise RunStoreError(f"{path}: 'selection' needs integer cell 'row', 'col' and 'region_id'")
        row, col, region_id = fields
        return GridCell(row, col), region_id, arrays["labels"]

    def write_baselines(self, run_id: str, selections: Iterable) -> None:
        payload = {"selections": [s.to_dict() for s in selections]}
        self._write_text(self.run_dir(run_id) / "baselines.json", encode_json(payload) + "\n")

    def write_eval_report(self, run_id: str, report) -> None:
        self._write_text(
            self.run_dir(run_id) / "eval_report.json", encode_json(report.to_dict()) + "\n"
        )

    # -- loading ----------------------------------------------------------

    def _load_artifact(self, run_id: str, name: str, dtypes: dict, fields: tuple[str, ...] = ()):
        """(path, object, arrays) of artifact ``name``: a JSON object holding
        ``fields``, the run grid's ``shape`` and, for each ``dtypes`` key, a
        list of one value per cell, returned as an array of that shape."""
        import numpy as np

        path = self.run_dir(run_id) / name
        if not path.exists():
            raise RunNotFoundError(f"missing artifact: {path}")
        d = _checked_object(path, "artifact", _read_json(path), ("shape", *dtypes, *fields))
        shape = _grid_shape(self.load_manifest(run_id))
        if d["shape"] != list(shape):
            raise RunStoreError(f"{path}: 'shape' is {d['shape']!r}, not the grid's {list(shape)}")
        arrays = {}
        for key, dtype in dtypes.items():
            values = d[key]
            if type(values) is not list or len(values) != shape[0] * shape[1]:
                raise RunStoreError(f"{path}: {key!r} is not a list of one value per cell of {shape}")
            try:
                if dtype is float:
                    values = [_decode_float(v) for v in values]
                arrays[key] = np.array(values, dtype=dtype).reshape(shape)
            except (RunStoreError, TypeError, ValueError) as exc:
                raise RunStoreError(f"{path}: {key!r}: {exc}") from None
        return path, d, arrays

    def load_manifest(self, run_id: str) -> dict:
        path = self.run_dir(run_id) / "manifest.json"
        if not path.exists():
            raise RunNotFoundError(f"run {run_id!r} has no manifest at {path}")
        manifest = _checked_object(path, "manifest", _read_json(path), _MANIFEST_FIELDS)
        for key, (cls, fields) in _MANIFEST_FIELDS.items():
            _checked_object(path, f"manifest field {key!r}", manifest[key], fields)
            try:
                cls.from_dict(manifest[key])
            except (TypeError, ValueError, IndexError) as exc:
                raise RunStoreError(f"{path}: manifest field {key!r}: {exc}") from None
        return manifest

    def load_run(self, run_id: str) -> tuple[dict, dict[GridCell, TrialRecord]]:
        """Manifest and per-cell records, partial trials included."""
        manifest = self.load_manifest(run_id)
        run_dir = str(self.run_dir(run_id))
        records: dict[GridCell, TrialRecord] = {}
        trials_dir = f"{run_dir}/trials"
        if os.path.isdir(trials_dir):
            from .snapshot import SnapshotReader

            with SnapshotReader(run_dir) as snapshot:
                for name in sorted(os.listdir(trials_dir)):
                    m = _TRIAL_FILE_RE.match(name)
                    if not m:
                        continue
                    cell = GridCell(int(m[1]), int(m[2]))
                    if name != f"{cell.row}_{cell.col}.jsonl":  # 00_1.jsonl, or digits not ASCII
                        raise RunStoreError(f"{trials_dir}/{name}: not a trial file name (<row>_<col>.jsonl)")
                    path = f"{trials_dir}/{name}"
                    data = _read_bytes(path)
                    records[cell] = snapshot.read(cell, name, data) or self._read_jsonl(path, cell, data)
        return manifest, records

    def _read_jsonl(self, path: str, cell: GridCell, data: bytes) -> TrialRecord:
        """``cell``'s record from ``data``, the bytes of its trial file at ``path``; a torn final
        line is dropped with a warning."""
        lines = data.split(b"\n")
        last = data.rstrip(b"\n").count(b"\n")  # the last non-blank line
        parsed = []  # (line number, JSON value) of each line kept
        for i, line in enumerate(lines):
            if not line:
                continue
            try:
                d = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if i != last:
                    raise RunStoreError(f"{path}: line {i + 1}: corrupt line: {exc}") from exc
                warnings.warn(f"{path}: line {i + 1}: dropping torn final line: {exc}")
                break
            if i == len(lines) - 1:  # parsed, but the writer always ends its lines
                warnings.warn(f"{path}: line {i + 1}: dropping unterminated final line")
                break
            parsed.append((i + 1, d))
        epochs = []
        status = STATUS_RUNNING
        for n, d in parsed:
            try:
                epochs.append(_epoch_log(d, cell, len(epochs)))
            except RunStoreError as exc:
                raise RunStoreError(f"{path}: line {n}: {exc}") from None
            if d["status"] in TERMINAL_STATUSES:
                status = d["status"]
        return TrialRecord(cell, epochs, status)

    @staticmethod
    def _write_text(path: Path, text: str) -> None:
        """Replace ``path`` atomically with ``text``; a file that already holds it is left alone."""
        data = text.encode("utf-8")
        try:
            if os.stat(path).st_size == len(data) and path.read_bytes() == data:
                return
        except FileNotFoundError:
            pass
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(data)
        os.replace(tmp, path)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RunStoreError(f"{path}: not JSON: {exc}") from None


def _checked_object(path: Path, name: str, d, fields: Iterable[str]) -> dict:
    """``d``, a JSON object holding ``fields``; a fault names ``path`` and ``name``."""
    if type(d) is not dict:
        raise RunStoreError(f"{path}: {name} is a JSON {_JSON_KINDS[type(d)]}, not an object")
    for key in fields:
        if key not in d:
            raise RunStoreError(f"{path}: {name} has no {key!r}")
    return d


def _grid_shape(manifest: dict) -> tuple[int, int]:
    g = manifest.get("grid")
    if not g:
        raise RunStoreError("manifest has no grid")
    return (len(g["wd_values"]), len(g["lr_values"]))


def resume_plan(manifest: dict, records: dict[GridCell, TrialRecord]) -> list[tuple[GridCell, int]]:
    """Cells still owed epochs under the manifest's policy, with the epoch to resume at.

    A cell with no record starts from epoch 0. A cell with a record is
    finished when the record carries a terminal status or ran the whole
    budget; everything else resumes at its next epoch index.
    """
    policy = SchedulerPolicy.from_dict(manifest["scheduler"])
    shape = _grid_shape(manifest)
    plan: list[tuple[GridCell, int]] = []
    for row in range(shape[0]):
        for col in range(shape[1]):
            cell = GridCell(row, col)
            rec = records.get(cell)
            if rec is None:
                plan.append((cell, 0))
            elif rec.status not in TERMINAL_STATUSES and rec.epochs_run < policy.epoch_budget:
                plan.append((cell, rec.epochs_run))
    return plan
