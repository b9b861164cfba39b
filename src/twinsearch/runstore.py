"""Replayable run persistence.

Directory layout:

    runs/<run_id>/
        manifest.json        grid values, scheduler policy, trainer/arch/task specs
        records.json         every trial's record: the one stored record of the trials
                             (written by run through ``write_records``)
        trials/<row>_<col>.jsonl   export: one line per epoch, in epoch order (created
                             empty while the search trains, written when it ends)
        decisions.jsonl      export: scheduler decision log (rung outcomes + terminal stops)
        matrices.json        export: psi/theta/valid_mask/epochs_run, row-major (written by
                             run only; no command reads it; kept for the benchmark's check)
        selection.json       the twin pick with full provenance (written by run and select;
                             the one record of the pick, which eval and plot read)
        baselines.json       baseline picks (written by the baseline command)
        eval_report.json     method-vs-oracle errors

``RunStore`` is the one writer of a run directory, and it keeps no state
of a run between calls: each call builds its paths from the root and the
run id and takes what it writes from its caller, reading no file to learn it.

``load_manifest`` returns the run's ``HyperGrid`` and ``SchedulerPolicy``,
the typed values it checks the manifest with. ``load_run`` returns them and
every stored record as ``records.Records`` columns, read from ``records.json``
(format 2, see ``twinsearch.records``), and reads nothing else of the trials: a command
loads a run once and passes the grid on, so ``load_selection`` takes the
grid from its caller instead of reading the manifest again. The trial
files and ``decisions.jsonl`` are exports that no command reads: ``run``
writes them when its search ends, and editing, adding or deleting one
changes nothing a command reads. A run without a format 2 ``records.json`` does not load:
one written before that format, or by another trainer that wrote only
trial files.

Faults are errors, since nothing else stands in for a stored record: a run
with no ``records.json`` raises ``RunNotFoundError``; a malformed one
raises ``RunStoreError`` as ``<path>: line <N>: <detail>``. The manifest
and ``selection.json`` are checked for the fields read from them (``<path>:
<detail>``; keys no command reads are ignored), the stored labels for JSON
integers of at least -1, and the stored pick for a cell inside the grid that
carries its region's label (not the mask's -1). A run id must name one
directory inside the store root.

Plain JSON cannot carry non-finite floats, so they are encoded as the
strings "NaN"/"Inf"/"-Inf". Field order is fixed and floats use Python's
shortest-round-trip repr, which makes write/load cycles bit-exact. The
artifacts are ``json.dumps(..., indent=2)``'s text, built by the C encoder
(``encode_json``). ``_trial_line_text``, the only trial-line encoder,
builds one line directly, byte for byte what ``encode_json``'s line form
gives. ``append_trial_line`` takes a trial's epochs from its
``trainer.TrialRecord``: epoch ``i``'s loss and norm are row ``i`` of its
(epochs_run, 2) float64 ``values``, read through one ``tolist()`` of that
block, the only Python floats of its epochs, made for that trial's write,
and its accuracies its pair in ``scored``. An ended trial's last line
carries its terminal status (``completed``, ``stopped_early`` or
``diverged``), every other line ``running``.

``execute_search`` scores only the epochs the baseline summaries read: the
last finite epoch under FIFO, the last five under early stopping
(``matrices.metric_window``). Every other line has null metrics, as has
that epoch in ``records.json``.

A trial file is made in two steps. ``create_trial_files`` creates every
given cell's file empty and exclusively in the ``trials`` directory
``create_run`` made (``FileNotFoundError`` without it); the search's own
process calls it for every cell on one helper thread while the search
trains, since creating a file costs far more than writing it, and joins
that thread when the last round is done. It then writes each trial's file
once, whole, in cell order: ``append_trial_line`` opens the created file
(``FileNotFoundError`` if it was never created) and writes every line in
one unbuffered ``os.write``; the caller passes a cell of the run's grid. Creating a file that exists, or
writing one that is not empty, is an error that leaves the file as it is; a
short write raises. ``records.json`` is written after the search, so a
process killed mid-search leaves a run that no command loads, and maybe
empty trial files for the trials that had not ended: exports that no command
reads. The two steps and the helper thread go when ROADMAP item 18 deletes
the trial files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .grid import GridCell, HyperGrid
from .scheduler import SchedulerPolicy
from .trainer import STATUS_RUNNING, STATUSES, TrialRecord

__all__ = [
    "RunStore",
    "RunStoreError",
    "RunNotFoundError",
    "encode_json",
]

RECORDS = "records.json"
_INF_TEXT = {math.inf: "Inf", -math.inf: "-Inf"}
_SEPARATORS = tuple(sep for sep in (os.sep, os.altsep) if sep)
# the manifest objects the loaders read: the class each loads as, and the fields read from it
_MANIFEST_FIELDS = {
    "grid": (HyperGrid, ("lr_values", "wd_values")),
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


def _float_list(values, nulls: bool = False) -> list:
    """A float64 array's values as ``_encode`` gives them, each NaN as null if ``nulls``: a list
    that the C encoder takes as it is, walked value by value only if a non-finite value is left."""
    if nulls:
        unscored = np.isnan(values)
        floats = np.where(unscored, None, values).tolist()
        values = values[~unscored]
    else:
        floats = values.tolist()
    return floats if np.isfinite(values).all() else _encode(floats)


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


_STATUS_TEXT = {s: json.dumps(s) for s in STATUSES}
# the JSON name of each type a JSON value decodes to
_JSON_KINDS = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


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
    if type(value) is bool:
        raise RunStoreError("not a float encoding: a JSON boolean")
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


def _trial_line_text(cell: GridCell, epoch: int, loss: float, norm: float, val, test, status: str) -> str:
    """One trial line without its newline, ``val``/``test`` ``None`` if not scored:
    ``encode_json(fields, line=True)``, built directly."""
    return (
        f'{{"row":{cell.row:d},"col":{cell.col:d},"epoch":{epoch:d},'
        f'"train_loss":{_float_text(loss)},"param_norm":{_float_text(norm)},'
        f'"val_acc":{_float_text(val)},"test_acc":{_float_text(test)},'
        f'"status":{_STATUS_TEXT.get(status) or json.dumps(status)}}}'
    )


class RunStore:
    """All reads and writes for one store root (default ./runs)."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

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
        payload = {"run_id": run_id, "tool_version": __version__, **manifest}
        self._write_text(run_dir / "manifest.json", encode_json(payload) + "\n")

    def create_trial_files(self, run_id: str, cells: Iterable[GridCell]) -> None:
        """Create the trial file of each of ``cells`` empty and exclusively, in order."""
        trials = f"{self.run_dir(run_id)}/trials"
        for row, col in cells:
            path = f"{trials}/{row}_{col}.jsonl"
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            except FileExistsError:
                raise RunStoreError(f"{path}: trial file already exists") from None

    def append_trial_line(self, run_id: str, record: TrialRecord) -> None:
        """Write ``record``'s trial file whole, into the empty file ``create_trial_files``
        made: ``running`` on every line but the last, which carries the record's status."""
        row, col = cell = record.cell
        path = f"{self.run_dir(run_id)}/trials/{row}_{col}.jsonl"
        scored, last = record.scored or {}, record.epochs_run - 1
        data = "".join(
            _trial_line_text(cell, i, loss, norm, *scored.get(i, (None, None)),
                             record.status if i == last else STATUS_RUNNING) + "\n"
            for i, (loss, norm) in enumerate(record.values.tolist())
        ).encode()
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            if os.fstat(fd).st_size:
                raise RunStoreError(f"{path}: trial file already written")
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise RunStoreError(f"{path}: short write, {written} of {len(data)} bytes")

    def append_decisions(self, run_id: str, decisions: Iterable[dict]) -> None:
        path = self.run_dir(run_id) / "decisions.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for d in decisions:
                fh.write(encode_json(d, line=True) + "\n")
            fh.flush()

    def write_records(self, run_id: str, records) -> None:
        """Write every one of ``records``, a ``records.Records``, to ``records.json``,
        replacing it whole."""
        from .records import records_lines

        self._write(self.run_dir(run_id) / RECORDS, records_lines(records))

    def write_matrices(self, run_id: str, matrices) -> None:
        payload = {
            "shape": list(matrices.psi.shape),
            "layout": "row-major",
            "psi": matrices.psi.ravel().tolist(),
            "theta": matrices.theta.ravel().tolist(),
            "valid_mask": matrices.valid_mask.ravel().tolist(),
            "epochs_run": matrices.epochs_run.ravel().tolist(),
        }
        self._write_text(self.run_dir(run_id) / "matrices.json", encode_json(payload) + "\n")

    def load_matrices(self, run_id: str):
        """``matrices.json`` as ``LogMatrices``. No command calls it: the benchmark's tracer
        binds it by name, and it goes when the tracer stops doing so."""
        from .matrices import LogMatrices

        dtypes = {"psi": float, "theta": float, "valid_mask": bool, "epochs_run": "int64"}
        shape = self.load_manifest(run_id)[0].shape
        return LogMatrices(**self._load_artifact(run_id, "matrices.json", shape, dtypes)[2])

    def write_selection(self, run_id: str, artifacts) -> None:
        sel = artifacts.selection
        payload = {
            "selection": sel.to_dict(),
            "quickshift_params": asdict(artifacts.params),
            "region_means": artifacts.region_means.tolist(),
            "labels": artifacts.segments.labels.ravel().tolist(),
            "shape": list(artifacts.segments.labels.shape),
            "layout": "row-major",
        }
        self._write_text(self.run_dir(run_id) / "selection.json", encode_json(payload) + "\n")

    def load_selection(self, run_id: str, grid: HyperGrid):
        """The stored twin pick's cell and region id, and the region label of every cell
        (-1 for a masked cell) of ``grid``, the run's; the cell must lie in the grid and
        carry its region's label, which is no mask."""
        path, d, arrays = self._load_artifact(
            run_id, "selection.json", grid.shape, {"labels": "int64"}, ("selection",)
        )
        sel = d["selection"]
        cell = sel.get("cell") if type(sel) is dict else None
        fields = (cell.get("row"), cell.get("col"), sel.get("region_id")) if type(cell) is dict else ()
        if not (fields and all(type(v) is int for v in fields)):
            raise RunStoreError(f"{path}: 'selection' needs integer cell 'row', 'col' and 'region_id'")
        row, col, region_id = fields
        labels = arrays["labels"]
        if labels.min() < -1:
            raise RunStoreError(f"{path}: 'labels' holds a value below -1")
        if not (0 <= row < labels.shape[0] and 0 <= col < labels.shape[1]):
            raise RunStoreError(f"{path}: selected cell ({row}, {col}) outside grid of shape {labels.shape}")
        if region_id < 0 or labels[row, col] != region_id:  # -1 labels a masked cell
            raise RunStoreError(f"{path}: selected cell ({row}, {col}) is not in region {region_id}")
        return GridCell(row, col), region_id, labels

    def write_baselines(self, run_id: str, selections: Iterable) -> None:
        payload = {"selections": [s.to_dict() for s in selections]}
        self._write_text(self.run_dir(run_id) / "baselines.json", encode_json(payload) + "\n")

    def write_eval_report(self, run_id: str, report) -> None:
        self._write_text(self.run_dir(run_id) / "eval_report.json", encode_json(asdict(report)) + "\n")

    # -- loading ----------------------------------------------------------

    def _load_artifact(
        self, run_id: str, name: str, shape: tuple[int, int], dtypes: dict, fields: tuple[str, ...] = ()
    ):
        """(path, object, arrays) of artifact ``name``: a JSON object holding
        ``fields``, ``shape``, the run grid's, and, for each ``dtypes`` key, a
        list of one value per cell, returned as an array of that shape."""
        path = self.run_dir(run_id) / name
        if not path.exists():
            raise RunNotFoundError(f"missing artifact: {path}")
        d = _checked_object(path, "artifact", _read_json(path), ("shape", *dtypes, *fields))
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
                elif dtype == "int64" and not {int} >= set(map(type, values)):  # a bool is no int
                    raise RunStoreError("holds a value that is not a JSON integer")
                arrays[key] = np.array(values, dtype=dtype).reshape(shape)
            except (RunStoreError, TypeError, ValueError, OverflowError) as exc:
                raise RunStoreError(f"{path}: {key!r}: {exc}") from None
        return path, d, arrays

    def load_manifest(self, run_id: str) -> tuple[HyperGrid, SchedulerPolicy]:
        """The run's grid and scheduler policy, as the manifest stores them."""
        path = self.run_dir(run_id) / "manifest.json"
        if not path.exists():
            raise RunNotFoundError(f"run {run_id!r} has no manifest at {path}")
        manifest = _checked_object(path, "manifest", _read_json(path), _MANIFEST_FIELDS)
        loaded = []
        for key, (cls, fields) in _MANIFEST_FIELDS.items():
            _checked_object(path, f"manifest field {key!r}", manifest[key], fields)
            try:
                loaded.append(cls.from_dict(manifest[key]))
            except (TypeError, ValueError, IndexError) as exc:
                raise RunStoreError(f"{path}: manifest field {key!r}: {exc}") from None
        grid, policy = loaded
        return grid, policy

    def load_run(self, run_id: str):
        """The run's grid, scheduler policy and records, from ``records.json``: the
        ``records.Records`` columns, trials in the order stored."""
        from .records import read_records

        grid, policy = self.load_manifest(run_id)
        path = self.run_dir(run_id) / RECORDS
        if not path.exists():
            raise RunNotFoundError(f"run {run_id!r} has no records at {path}")
        return grid, policy, read_records(str(path), grid.shape)

    @classmethod
    def _write_text(cls, path: Path, text: str) -> None:
        cls._write(path, [text.encode("utf-8")])

    @staticmethod
    def _write(path: Path, chunks: list[bytes]) -> None:
        """Replace ``path`` atomically with ``chunks``, joined; a file that already holds them
        is left alone. Neither side is joined into one copy."""
        try:
            if os.stat(path).st_size == sum(map(len, chunks)):
                with open(path, "rb") as fh:
                    if all(fh.read(len(chunk)) == chunk for chunk in chunks):
                        return
        except FileNotFoundError:
            pass
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
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
