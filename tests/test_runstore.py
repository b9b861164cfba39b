import json
import math
import os
import re
import shutil
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsearch import snapshot as records_snapshot
from twinsearch.grid import GridCell, build_log_grid
from twinsearch.matrices import assemble
from twinsearch.quickshift import default_params
from twinsearch.runstore import RunStore, RunStoreError, _trial_line_text, encode_json, resume_plan
from twinsearch.scheduler import SchedulerPolicy
from twinsearch.search import execute_search, run_and_store, select_and_store
from twinsearch.tasks import TaskSpec
from twinsearch.trainer import (
    STATUS_COMPLETED,
    STATUS_STOPPED_EARLY,
    TERMINAL_STATUSES,
    ArchSpec,
    EpochLog,
    TrainerConfig,
    TrialRecord,
)
from runstore_frozen import reference_load_trial_file, reference_read_jsonl


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "runs")


def manifest_for(grid, policy):
    return {"grid": grid.to_dict(), "scheduler": policy.to_dict(), "task": "external", "seeds": {}}


def small_grid(n=2):
    return build_log_grid(1e-4, 1e-1, n, 1e-4, 1e-1, n)


def plain_record(cell, epochs, status="running"):
    """A record of ``epochs`` epochs, each with loss 1.0 and norm 2.0."""
    return TrialRecord(cell, [EpochLog(epoch, 1.0, 2.0) for epoch in range(epochs)], status)


def write_full_run(store, run_id, grid, epochs=3, policy=None):
    policy = policy or SchedulerPolicy("fifo", epochs)
    store.create_run(run_id, manifest_for(grid, policy))
    for cell in grid.cells():
        logs = [
            EpochLog(
                epoch=epoch,
                train_loss=1.0 / (epoch + 1) + 0.1 * cell.row + 0.01 * cell.col,
                param_norm=2.0 - 0.1 * epoch,
                val_metric=0.5 + 0.01 * epoch,
                test_metric=0.6 + 0.01 * epoch,
            )
            for epoch in range(epochs)
        ]
        store.append_trial_line(run_id, TrialRecord(cell, logs, "completed"))


class TestAppend:
    def test_first_line_creates_file(self, store):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        store.append_trial_line("r1", plain_record(GridCell(0, 0), 1))
        path = store.run_dir("r1") / "trials" / "0_0.jsonl"
        assert path.exists()
        assert len(path.read_text().splitlines()) == 1

    def test_one_call_writes_the_whole_file(self, store):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        store.append_trial_line("r1", plain_record(GridCell(0, 1), 3, "stopped_early"))
        path = store.run_dir("r1") / "trials" / "0_1.jsonl"
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [d["epoch"] for d in lines] == [0, 1, 2]
        assert [d["status"] for d in lines] == ["running", "running", "stopped_early"]
        _, records = store.load_run("r1")
        assert records[GridCell(0, 1)] == plain_record(GridCell(0, 1), 3, "stopped_early")

    @pytest.mark.parametrize("damage", ["whole", "torn", "unterminated", "corrupt-interior"])
    def test_append_after_a_damaged_file_raises_and_writes_nothing(self, store, damage):
        # the file of a trial is written once; whatever is there, whole or
        # damaged, is never appended to or replaced
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=3)
        path = store.run_dir("r1") / "trials" / "0_0.jsonl"
        data = path.read_bytes()
        if damage == "torn":
            data = data[:-10]
        elif damage == "unterminated":
            data = data[:-1]
        elif damage == "corrupt-interior":
            lines = data.split(b"\n")
            lines[1] = b'{"broken":'
            data = b"\n".join(lines)
        path.write_bytes(data)
        for writer in (store, RunStore(store.root)):
            with pytest.raises(RunStoreError) as info:
                writer.append_trial_line("r1", plain_record(GridCell(0, 0), 4, "completed"))
            assert str(info.value) == f"{path}: trial file already exists"
            assert path.read_bytes() == data

    def test_nan_encoded_as_string(self, store):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        store.append_trial_line("r1", TrialRecord(GridCell(0, 0), [EpochLog(0, math.nan, math.inf)], "diverged"))
        raw = (store.run_dir("r1") / "trials" / "0_0.jsonl").read_text()
        doc = json.loads(raw)
        assert doc["train_loss"] == "NaN"
        assert doc["param_norm"] == "Inf"
        _, records = store.load_run("r1")
        entry = records[GridCell(0, 0)].epochs[0]
        assert math.isnan(entry.train_loss) and math.isinf(entry.param_norm)

    def test_unknown_cell_rejected(self, store):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        with pytest.raises(RunStoreError, match="outside grid"):
            store.append_trial_line("r1", plain_record(GridCell(5, 0), 1))

    def test_append_without_manifest_rejected(self, store):
        with pytest.raises(RunStoreError, match="manifest"):
            store.append_trial_line("ghost", plain_record(GridCell(0, 0), 1))

    def test_short_write_raises(self, store, monkeypatch):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:-1]))
        with pytest.raises(RunStoreError, match="short write"):
            store.append_trial_line("r1", plain_record(GridCell(0, 0), 1))


FLOAT_FIELDS = ("train_loss", "param_norm", "val_acc", "test_acc")
FLOAT_VALUES = (
    0.1,
    1.0 / 3.0,
    -2.5e-8,
    1e300,
    123456789.0,
    0.0,
    -0.0,
    5e-324,
    -2.2250738585072014e-309,
    math.nan,
    -math.nan,
    math.inf,
    -math.inf,
    None,
    np.float64(0.7),
    np.float64(np.nan),
)


def legacy_encoding(cell: GridCell, entry: EpochLog, status: str) -> str:
    """A trial line as the generic encoder writes its field dict."""
    payload = {
        "row": cell.row,
        "col": cell.col,
        "epoch": entry.epoch,
        "train_loss": entry.train_loss,
        "param_norm": entry.param_norm,
        "val_acc": entry.val_metric,
        "test_acc": entry.test_metric,
        "status": status,
    }
    return encode_json(payload, line=True)


class TestTrialLineEncoding:
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", FLOAT_VALUES, ids=repr)
    def test_float_fields_match_generic_encoder(self, field, value):
        fields = dict(train_loss=0.25, param_norm=4.5, val_acc=None, test_acc=None)
        fields[field] = value
        line = (GridCell(1, 2), EpochLog(3, *fields.values()), "running")
        assert _trial_line_text(*line) == legacy_encoding(*line)

    @pytest.mark.parametrize("status", ["running", "completed", "stopped_early", "diverged", 'odd "x"'])
    @pytest.mark.parametrize("index", [0, 7, 10**6, 2**62])
    def test_statuses_and_large_indices_match_generic_encoder(self, status, index):
        line = (GridCell(index, index + 1), EpochLog(2 * index, math.nan, 1.5, 0.5, None), status)
        assert _trial_line_text(*line) == legacy_encoding(*line)


def reference_encode(obj):
    """The recursive encoder the document form replaced: one Python call per value."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Inf" if obj > 0 else "-Inf"
        return obj
    if isinstance(obj, dict):
        return {k: reference_encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_encode(v) for v in obj]
    return obj


FLOATS = st.one_of(
    st.floats(),  # NaN, both infinities, -0.0 and subnormals among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, -1e300, 1e-300, -1e-300]),
)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-(10**60), 10**60), FLOATS, FLOATS.map(np.float64), st.text(),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.tuples(inner, inner),
        st.dictionaries(st.text(), inner, max_size=6),  # non-ASCII keys among them
    ),
    max_leaves=40,
)


class TestEncodeJson:
    @settings(max_examples=100, deadline=None)
    @given(JSON_VALUES)
    def test_both_forms_match_json_dumps_of_the_recursive_encoder(self, obj):
        assert encode_json(obj) == json.dumps(reference_encode(obj), indent=2)
        assert encode_json(obj, line=True) == json.dumps(reference_encode(obj), separators=(",", ":"))

    @pytest.mark.parametrize("obj", [[], {}, [[]], {"a": {}}, [{}, [], 1], {"é": ["\u00e9", -0.0, 10**30]}], ids=repr)
    def test_empty_and_nested_containers(self, obj):
        assert encode_json(obj) == json.dumps(reference_encode(obj), indent=2)


class TestLoad:
    def test_round_trip_reproduces_matrices_bit_exactly(self, store):
        grid = small_grid(3)
        write_full_run(store, "r1", grid, epochs=7)
        _, records = store.load_run("r1")
        mats_a = assemble(records.values(), grid)
        _, records_b = store.load_run("r1")
        mats_b = assemble(records_b.values(), grid)
        assert np.array_equal(mats_a.psi, mats_b.psi)
        assert np.array_equal(mats_a.theta, mats_b.theta)

    def test_externally_written_run_selects_offline(self, store):
        grid = small_grid(3)
        write_full_run(store, "ext", grid, epochs=6)
        _, records = store.load_run("ext")
        artifacts = select_and_store(store, "ext", records, grid, default_params(grid))
        assert artifacts.selection.cell in set(grid.cells())
        assert store.load_matrices("ext").valid_mask.all()
        assert json.loads((store.run_dir("ext") / "selection.json").read_text())["selection"] == (
            artifacts.selection.to_dict()
        )

    def test_torn_final_line_dropped_with_warning(self, store):
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=3)
        path = store.run_dir("r1") / "trials" / "0_0.jsonl"
        with open(path, "a") as fh:
            fh.write('{"row": 0, "col": 0, "epoch": 3, "train_l')  # torn mid-record
        with pytest.warns(UserWarning, match="torn"):
            _, records = store.load_run("r1")
        assert records[GridCell(0, 0)].epochs_run == 3

    def test_unterminated_but_parseable_tail_dropped(self, store):
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=2)
        path = store.run_dir("r1") / "trials" / "0_0.jsonl"
        line = _trial_line_text(GridCell(0, 0), EpochLog(2, 1.0, 1.0), "running")
        with open(path, "a") as fh:
            fh.write(line)  # no newline: the writer was cut off
        with pytest.warns(UserWarning, match="unterminated"):
            _, records = store.load_run("r1")
        assert records[GridCell(0, 0)].epochs_run == 2

    def test_corrupt_interior_line_is_an_error_with_location(self, store):
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=3)
        path = store.run_dir("r1") / "trials" / "0_0.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = '{"broken":'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunStoreError, match="line 2"):
            store.load_run("r1")

    @pytest.mark.parametrize("name", ["00_1.jsonl", "0_01.jsonl", "\u0660_1.jsonl"])
    @pytest.mark.parametrize("beside", [True, False], ids=["beside-0_1", "instead-of-0_1"])
    def test_a_trial_file_name_the_writer_never_spells_is_an_error(self, store, name, beside):
        # each name matches <digits>_<digits>.jsonl and reads as cell (0, 1)
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=3)
        trials = store.run_dir("r1") / "trials"
        data = (trials / "0_1.jsonl").read_bytes()
        if not beside:
            (trials / "0_1.jsonl").unlink()
        (trials / name).write_bytes(data)
        with pytest.raises(RunStoreError) as info:
            store.load_run("r1")
        assert str(info.value) == f"{trials}/{name}: not a trial file name (<row>_<col>.jsonl)"

    def test_missing_manifest_is_an_error(self, store):
        with pytest.raises(RunStoreError, match="manifest"):
            store.load_run("nope")

    def test_epoch_gap_is_an_error(self, store):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        logs = [EpochLog(0, 1.0, 2.0), EpochLog(2, 1.0, 2.0)]
        store.append_trial_line("r1", TrialRecord(GridCell(0, 0), logs, "running"))
        with pytest.raises(RunStoreError, match="contiguity"):
            store.load_run("r1")

    def test_duplicate_run_id_rejected(self, store):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        with pytest.raises(RunStoreError, match="already exists"):
            store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))


def edit_line(fields, **changes):
    """Trial-line fields with ``changes`` applied; a value of None removes the field."""
    edited = dict(fields, **changes)
    return {k: v for k, v in edited.items() if v is not None}


class TestLoadSchema:
    """Trial lines on disk that break the schema stop ``load_run`` with a named,
    located error: ``<path>: line <N>: <detail>``."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(status="paused"), "trial line field 'status' has unknown value 'paused'"),
            (dict(param_norm=None), "trial line missing field 'param_norm'"),
            (dict(row=None, status=None), "trial line missing field 'row'"),
            (dict(row=1), "line for cell (1, 0) in wrong file"),
            (dict(epoch=1.0), "trial line field 'epoch' must be a non-negative integer"),
            (dict(epoch="1"), "trial line field 'epoch' must be a non-negative integer"),
            (dict(col=-1), "trial line field 'col' must be a non-negative integer"),
            # JSON booleans are not indices, although Python's bool is an int
            (dict(row=False), "trial line field 'row' must be a non-negative integer"),
            (dict(col=False), "trial line field 'col' must be a non-negative integer"),
            (dict(epoch=True), "trial line field 'epoch' must be a non-negative integer"),
            (dict(train_loss="nan"), "not a float encoding: 'nan'"),
            (dict(val_acc="Infinity"), "not a float encoding: 'Infinity'"),
        ],
        ids=[
            "status", "param_norm", "row-first", "cell", "epoch-float", "epoch-str", "col",
            "row-false", "col-false", "epoch-true", "nan", "val_acc",
        ],
    )
    def test_bad_interior_line_raises(self, store, changes, message):
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=3)
        path = store.run_dir("r1") / "trials" / "0_0.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = json.dumps(edit_line(json.loads(lines[1]), **changes))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunStoreError) as info:
            store.load_run("r1")
        assert str(info.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize(
        "bad, detail",
        [
            (b'{"broken":', "corrupt line: Expecting value"),
            (b'{"row": 0, "col": 0, "epoch": 1}', "trial line missing field 'train_loss'"),
            (b'{"row": 0, "col": 0, "epoch": 2, "train_loss": 1.0, "param_norm": 1.0, '
             b'"status": "running"}', "epoch 2 breaks contiguity after 0"),
        ],
        ids=["corrupt", "missing", "gap"],
    )
    def test_faults_after_blank_lines_name_the_file_line(self, store, bad, detail):
        # blank lines are skipped on load but still count as lines of the file
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=3)
        path = store.run_dir("r1") / "trials" / "0_0.jsonl"
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([lines[0], b"", b"", bad, *lines[2:]]))
        with pytest.raises(RunStoreError) as info:
            store.load_run("r1")
        assert str(info.value).startswith(f"{path}: line 4: {detail}")


# -- the loader against its frozen reference -----------------------------

LINE_KEYS = ("row", "col", "epoch", "train_loss", "param_norm", "val_acc", "test_acc", "status")
# one fault per file; val_acc and test_acc are optional, so missing them is no fault
FAULTS = (
    "bom", "extra-object", "extra-text", "bad-utf8", "torn", "unterminated", "wrong-cell",
    "gap", "bad-status", "bad-float-text", "negative-index", "float-index", "list-line",
    "short-list-line", "number-line", "string-line", "form-feed", "overflow-int", "status-array",
    "status-object",
    *(f"missing-{key}" for key in LINE_KEYS),
)


# faults the frozen reference lets escape as a bare error: fault -> (its error
# type, the detail of the package's RunStoreError)
ESCAPED_FAULTS = {
    "list-line": (TypeError, "trial line is a JSON array, not an object"),
    "number-line": (TypeError, "trial line is a JSON number, not an object"),
    "string-line": (TypeError, "trial line is a JSON string, not an object"),
    "overflow-int": (OverflowError, "integer of 1329 bits is out of float range"),
    "status-array": (TypeError, "trial line field 'status' has unknown value []"),
    "status-object": (TypeError, "trial line field 'status' has unknown value {}"),
}


def random_float(rng):
    pick = rng.random()
    if pick < 0.12:
        return [math.nan, math.inf, -math.inf][int(rng.integers(3))]
    if pick < 0.25:
        return float(rng.integers(-5, 10**6))  # integral, may be written as an int
    if pick < 0.3:
        return None
    if pick < 0.32:
        return bool(rng.integers(2))
    return float(rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300)))


def encode_value(rng, value):
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if value != value else ("Inf" if value > 0 else "-Inf")
    if isinstance(value, float) and value.is_integer() and rng.random() < 0.5:
        return int(value)
    return value


def trial_file_bytes(rng, cell, n_lines, fault):
    """A trial file for ``cell`` as an external writer might leave it, with at most one fault,
    and the 1-based line of the file where that fault is: the last line for a torn or
    unterminated file."""
    at = int(rng.integers(n_lines))
    out = []
    fault_line = None
    for epoch in range(n_lines):
        status = "completed" if epoch == n_lines - 1 and rng.random() < 0.7 else "running"
        fields = {"row": cell.row, "col": cell.col, "epoch": epoch}
        for key in ("train_loss", "param_norm", "val_acc", "test_acc"):
            fields[key] = encode_value(rng, random_float(rng))
        fields["status"] = status
        bad = epoch == at
        if bad and fault.startswith("missing-"):
            del fields[fault[len("missing-"):]]
        elif bad and fault == "wrong-cell":
            fields["row"] += 1
        elif bad and fault == "gap":
            fields["epoch"] += 1
        elif bad and fault == "bad-status":
            fields["status"] = "paused"
        elif bad and fault == "bad-float-text":
            fields["param_norm"] = "nan"
        elif bad and fault == "negative-index":
            fields["col"] = -1
        elif bad and fault == "float-index":
            fields["epoch"] = float(epoch)
        elif bad and fault == "overflow-int":
            fields["train_loss"] = 10**400
        elif bad and fault == "status-array":
            fields["status"] = []
        elif bad and fault == "status-object":
            fields["status"] = {}
        keys = list(fields)
        if rng.random() < 0.3:
            keys = [keys[i] for i in rng.permutation(len(keys))]
        separators = (",", ":") if rng.random() < 0.6 else (", ", ": ")
        text = json.dumps({k: fields[k] for k in keys}, separators=separators)
        if bad and fault == "list-line":
            text = json.dumps(list(fields))
        elif bad and fault == "short-list-line":
            text = "[1, 2]"
        elif bad and fault == "number-line":
            text = "3"
        elif bad and fault == "string-line":
            text = json.dumps(" ".join(fields))
        if rng.random() < 0.3:
            text = "".join(rng.choice([" ", "\t", "\r"], int(rng.integers(1, 3)))) + text
        if rng.random() < 0.3:
            text += "".join(rng.choice([" ", "\t", "\r"], int(rng.integers(1, 3))))
        if bad and fault == "bom":
            text = "\ufeff" + text
        elif bad and fault == "extra-object":
            text += " {}"
        elif bad and fault == "extra-text":
            text += "x"
        elif bad and fault == "form-feed":
            text = "\f" + text
        data = text.encode("utf-8")
        if bad and fault == "bad-utf8":
            cut = int(rng.integers(len(data) + 1))
            data = data[:cut] + b"\xff" + data[cut:]
        if rng.random() < 0.1:
            out.append(b"\n")  # blank lines are skipped
        out.append(data + b"\n")
        if bad:
            fault_line = len(out)
    if fault == "torn":
        out[-1] = out[-1][: int(rng.integers(1, len(out[-1]) - 1))]
    elif fault == "unterminated":
        out[-1] = out[-1].rstrip(b"\n")
    if fault in ("torn", "unterminated"):
        fault_line = len(out)
    return b"".join(out), fault_line


def outcome(load, path, cell):
    """What loading gives: the record's cell, status and typed fields, or the error; plus warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record = load(path, cell)
            result = (
                record.cell,
                record.status,
                # (type, repr) of each field: NaN-aware, and it tells -0.0 from 0.0
                [[(type(v), repr(v)) for v in log] for log in record.epochs],
            )
        except Exception as exc:  # whatever it is, both loaders must raise it alike
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def package_load(store):
    """``store._read_jsonl`` called as the frozen reference is, with a path and a cell."""

    def load(path, cell):
        with open(path, "rb") as fh:
            return store._read_jsonl(path, cell, fh.read())

    return load


def relocated(frozen, path, line):
    """The frozen reference's outcome with each ``RunStoreError`` and warning placed
    where the package places it: ``<path>: line <line>: <detail>``, the detail being
    the reference's message without its path prefix and non-blank line count."""

    def place(message):
        detail = re.sub(
            r"^(corrupt|dropping torn final|dropping unterminated final) line \d+",
            r"\1 line",
            message.removeprefix(f"{path}: "),
        )
        return f"{path}: line {line}: {detail}"

    result, caught = frozen
    if result[0] is RunStoreError:
        result = (RunStoreError, place(result[1]))
    return result, [(category, place(message)) for category, message in caught]


# a fault on one line that is not JSON; "split-char" ends the line inside a character, so
# decoding the whole file reports the newline after it, and the line alone its end
PARSE_FAULTS = ("json", "utf8", "split-char")
# (fault on an earlier line, fault on a later one): "torn" and "torn-utf8" cut the last line
TWO_FAULTS = (
    ("json", "utf8"), ("utf8", "json"), ("utf8", "utf8"), ("utf8", "split-char"), ("split-char", "json"),
    ("schema", "json"), ("schema", "utf8"), ("schema", "split-char"), ("schema", "schema"),
    ("json", "torn"), ("utf8", "torn-utf8"), ("schema", "torn"), ("schema", "torn-utf8"), ("none", "torn-utf8"),
)


def with_fault(rng, line, fault):
    """``line``, a trial line without its newline, with ``fault``."""
    if fault == "json":
        return line + b"x"
    if fault == "utf8":
        cut = int(rng.integers(len(line) + 1))
        return line[:cut] + b"\xff" + line[cut:]
    if fault == "split-char":
        return line + "\u00e9".encode()[:1]
    if fault == "schema":
        return json.dumps({**json.loads(line), "status": "paused"}).encode()
    if fault.startswith("torn"):
        line = line[: int(rng.integers(1, line.rindex(b"}")))]  # no closing brace: not JSON
        return with_fault(rng, line, "utf8") if fault == "torn-utf8" else line
    return line


def two_fault_file(rng, cell, first, second):
    """A trial file with ``first`` on one line and ``second`` on a later one, and the
    1-based lines of the file that hold them."""
    data, _ = trial_file_bytes(rng, cell, int(rng.integers(3, 8)), "none")
    chunks = data.split(b"\n")
    filled = [i for i, chunk in enumerate(chunks) if chunk]
    if second.startswith("torn"):
        a, b = int(rng.choice(filled[:-1])), filled[-1]
        chunks = chunks[: b + 1]  # the torn line is the last, with no newline
    else:  # a JSON fault on the last line is a torn line
        a, b = sorted(int(i) for i in rng.choice(filled[:-1], 2, replace=False))
    chunks[a] = with_fault(rng, chunks[a], first)
    chunks[b] = with_fault(rng, chunks[b], second)
    return b"\n".join(chunks), a + 1, b + 1


class TestLoaderMatchesFrozenReference:
    """``_read_jsonl`` loads and rejects exactly what the per-line json.loads loader did;
    a fault it reports also names the line of the file where it is."""

    def check(self, store, tmp_path, data, cell, fault_line=None):
        path = tmp_path / f"{cell.row}_{cell.col}.jsonl"
        path.write_bytes(data)
        new = outcome(package_load(store), str(path), cell)
        frozen = outcome(reference_load_trial_file, str(path), cell)
        assert new == relocated(frozen, str(path), fault_line)
        return new

    @pytest.mark.parametrize("seed", range(40))
    def test_clean_files(self, store, tmp_path, seed):
        rng = np.random.default_rng(seed)
        cell = GridCell(int(rng.integers(4)), int(rng.integers(4)))
        data, _ = trial_file_bytes(rng, cell, int(rng.integers(1, 9)), "none")
        (result, caught) = self.check(store, tmp_path, data, cell)
        assert isinstance(result[0], GridCell) and not caught

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_faulty_files(self, store, tmp_path, fault, seed):
        rng = np.random.default_rng([seed, FAULTS.index(fault)])
        cell = GridCell(int(rng.integers(4)), int(rng.integers(4)))
        data, fault_line = trial_file_bytes(rng, cell, int(rng.integers(1, 7)), fault)
        if fault not in ESCAPED_FAULTS:
            self.check(store, tmp_path, data, cell, fault_line)
            return
        # the reference lets these escape as a bare TypeError/OverflowError; the
        # package reports them as a RunStoreError at the line, like any fault
        path = tmp_path / f"{cell.row}_{cell.col}.jsonl"
        path.write_bytes(data)
        escaped, detail = ESCAPED_FAULTS[fault]
        assert outcome(reference_load_trial_file, str(path), cell)[0][0] is escaped
        new = outcome(package_load(store), str(path), cell)
        assert new == ((RunStoreError, f"{path}: line {fault_line}: {detail}"), [])

    def test_empty_and_blank_files(self, store, tmp_path):
        for data in (b"", b"\n", b"\n\n\n"):
            assert self.check(store, tmp_path, data, GridCell(0, 0))[0][2] == []

    @pytest.mark.parametrize("first, second", TWO_FAULTS, ids=[f"{a}-then-{b}" for a, b in TWO_FAULTS])
    @pytest.mark.parametrize("seed", range(4))
    def test_files_with_two_faults(self, store, tmp_path, first, second, seed):
        # the first line that is not JSON wins, wherever a decode of the whole file
        # stops; a failed check is raised after the warning for a dropped tail
        rng = np.random.default_rng([seed, TWO_FAULTS.index((first, second))])
        cell = GridCell(int(rng.integers(4)), int(rng.integers(4)))
        data, a, b = two_fault_file(rng, cell, first, second)
        path = tmp_path / f"{cell.row}_{cell.col}.jsonl"
        path.write_bytes(data)
        frozen = outcome(reference_load_trial_file, str(path), cell)
        error_line = b if first not in PARSE_FAULTS and second in PARSE_FAULTS else a
        expected = (relocated(frozen, str(path), error_line)[0], relocated(frozen, str(path), b)[1])
        assert outcome(package_load(store), str(path), cell) == expected
        assert (expected[0][0] is RunStoreError) == (first != "none")
        assert bool(expected[1]) == (second.startswith("torn") and first not in PARSE_FAULTS)


class TestArtifactsRoundTrip:
    def test_matrices_json_bit_exact(self, store, tmp_path):
        grid = build_log_grid(5e-5, 5e-1, 4, 5e-5, 5e-1, 4)
        policy = SchedulerPolicy("fifo", 4)
        run_and_store(
            store,
            "run_a",
            grid,
            policy,
            TaskSpec(seed=1, n_train=40, n_val=8, n_test=60, input_dim=4, n_classes=2),
            ArchSpec((8,)),
            TrainerConfig(batch_size=16, init_seed=1),
        )
        mats = store.load_matrices("run_a")
        _, records = store.load_run("run_a")
        rebuilt = assemble(records.values(), grid)
        assert np.array_equal(mats.psi, rebuilt.psi, equal_nan=True)
        assert np.array_equal(mats.theta, rebuilt.theta, equal_nan=True)
        assert np.array_equal(mats.valid_mask, rebuilt.valid_mask)
        assert np.array_equal(mats.epochs_run, rebuilt.epochs_run)


SNAPSHOT_GRID = build_log_grid(5e-5, 5e-1, 4, 5e-5, 5e-1, 4)
SNAPSHOT_TASK = dict(seed=2, n_train=40, input_dim=4, n_classes=2)
# run id -> (grid, policy, task) of each kind of run a records snapshot must reproduce
SNAPSHOT_RUNS = {
    "fifo": (SNAPSHOT_GRID, SchedulerPolicy("fifo", 6), TaskSpec(n_val=8, n_test=60, **SNAPSHOT_TASK)),
    "hb": (
        SNAPSHOT_GRID,
        SchedulerPolicy("hb", 8, stop_fraction=0.25),
        TaskSpec(n_val=8, n_test=60, **SNAPSHOT_TASK),
    ),
    "diverged": (
        build_log_grid(5e-5, 1e6, 4, 5e-5, 50, 4),
        SchedulerPolicy("fifo", 10),
        TaskSpec(n_val=8, n_test=60, **SNAPSHOT_TASK),
    ),
    "val-free": (SNAPSHOT_GRID, SchedulerPolicy("fifo", 6), TaskSpec(n_val=0, n_test=0, **SNAPSHOT_TASK)),
}


@pytest.fixture(scope="module")
def snapshot_runs(tmp_path_factory):
    """A store root holding one finished run of each kind in ``SNAPSHOT_RUNS``."""
    root = tmp_path_factory.mktemp("snapshot-runs")
    for run_id, (grid, policy, task) in SNAPSHOT_RUNS.items():
        config = TrainerConfig(batch_size=16, init_seed=2)
        run_and_store(RunStore(root), run_id, grid, policy, task, ArchSpec((8,)), config)
    return root


@pytest.fixture()
def runs(snapshot_runs, tmp_path):
    """A store over a private copy of ``snapshot_runs``."""
    shutil.copytree(snapshot_runs, tmp_path / "runs")
    return RunStore(tmp_path / "runs")


def bits(records):
    """Every field of ``records`` with its type, floats as ``float.hex`` (one text for any NaN)."""
    def value(v):
        return (type(v).__name__, float.hex(v) if type(v) is float else v)

    return [
        (type(r).__name__, cell, r.cell, r.status, [(type(e).__name__, *map(value, e)) for e in r.epochs])
        for cell, r in records.items()
    ]


def parsed(store, run_id):
    """``load_run``'s records with the run's snapshot moved aside, so every trial file is parsed."""
    snapshot = store.run_dir(run_id) / "records.json"
    aside = snapshot.with_name("records.aside")
    snapshot.rename(aside)
    try:
        return store.load_run(run_id)[1]
    finally:
        aside.rename(snapshot)


def resealed(data):
    """Snapshot ``data`` with the CRC-32 on its first line recomputed, so only its entries are wrong."""
    head, body = data.split(b"\n", 1)
    return re.sub(rb'"body_crc32":\d+', b'"body_crc32":%d' % zlib.crc32(body), head) + b"\n" + body


def edit_a_loss_digit(data):
    """Snapshot ``data`` with one digit of its first loss value changed, keeping its length."""
    at = re.compile(rb"[1-8]").search(data, data.index(b'"train_loss":[')).start()
    return data[:at] + bytes([data[at] + 1]) + data[at + 1:]


def rewrite_snapshot(store, run_id):
    """Write ``run_id``'s snapshot again from its trial files, as ``run`` writes it."""
    trials = store.run_dir(run_id) / "trials"
    files = []
    for cell, record in parsed(store, run_id).items():
        data = (trials / f"{cell.row}_{cell.col}.jsonl").read_bytes()
        files.append((cell, len(data), zlib.crc32(data), tuple(record.epochs), record.status))
    (store.run_dir(run_id) / "records.json").write_text(records_snapshot.snapshot_text(files))


def load_and_count(store, run_id, monkeypatch):
    """``load_run``'s records, and the names of the trial files it parsed; a warning fails."""
    parse = RunStore._read_jsonl
    seen = []

    def counted(self, path, cell, data):
        seen.append(os.path.basename(path))
        return parse(self, path, cell, data)

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(RunStore, "_read_jsonl", counted)
        return store.load_run(run_id)[1], seen


class TestRecordsSnapshot:
    def test_the_runs_hold_what_they_are_named_for(self, snapshot_runs):
        store = RunStore(snapshot_runs)
        assert all((store.run_dir(run_id) / "records.json").is_file() for run_id in SNAPSHOT_RUNS)
        stopped = [r for r in store.load_run("hb")[1].values() if r.status == "stopped_early"]
        assert stopped and all(r.epochs_run < 8 for r in stopped)
        values = [v for r in store.load_run("diverged")[1].values() for e in r.epochs for v in e[1:3]]
        assert any(math.isnan(v) for v in values) and any(math.isinf(v) for v in values)
        val_free = [e for r in store.load_run("val-free")[1].values() for e in r.epochs]
        assert all(e.val_metric is None and e.test_metric is None for e in val_free)

    @pytest.mark.parametrize("run_id", SNAPSHOT_RUNS)
    def test_a_snapshot_loads_what_parsing_the_files_loads(self, runs, run_id, monkeypatch):
        records, parsed_files = load_and_count(runs, run_id, monkeypatch)
        assert parsed_files == []
        assert bits(records) == bits(parsed(runs, run_id))

    def test_a_digit_edited_in_place_is_read_from_the_file(self, runs, monkeypatch):
        path = runs.run_dir("fifo") / "trials" / "1_2.jsonl"
        data = path.read_bytes()
        head, tail = data.split(b'"train_loss":', 1)
        number = tail.split(b",", 1)[0]
        edited = number[:-1] + (b"2" if number.endswith(b"1") else b"1")
        path.write_bytes(head + b'"train_loss":' + edited + tail[len(number):])
        assert len(path.read_bytes()) == len(data)
        records, parsed_files = load_and_count(runs, "fifo", monkeypatch)
        assert parsed_files == ["1_2.jsonl"]
        assert records[GridCell(1, 2)].epochs[0].train_loss == float(edited) != float(number)
        assert bits(records) == bits(parsed(runs, "fifo"))

    @pytest.mark.parametrize("change", ["added", "removed"])
    def test_an_added_or_removed_trial_file_is_seen(self, runs, change, monkeypatch):
        trials = runs.run_dir("fifo") / "trials"
        if change == "added":
            line = _trial_line_text(GridCell(9, 9), EpochLog(0, 1.0, 2.0), "completed")
            (trials / "9_9.jsonl").write_text(line + "\n")
        else:
            (trials / "0_1.jsonl").unlink()
        records, parsed_files = load_and_count(runs, "fifo", monkeypatch)
        assert parsed_files == (["9_9.jsonl"] if change == "added" else [])
        assert (GridCell(9, 9) in records) == (GridCell(0, 1) in records) == (change == "added")
        assert bits(records) == bits(parsed(runs, "fifo"))

    def test_a_renamed_trial_file_is_still_an_error(self, runs):
        trials = runs.run_dir("fifo") / "trials"
        (trials / "0_1.jsonl").rename(trials / "00_1.jsonl")
        with pytest.raises(RunStoreError) as info:
            runs.load_run("fifo")
        assert str(info.value) == f"{trials}/00_1.jsonl: not a trial file name (<row>_<col>.jsonl)"

    def test_another_runs_snapshot_is_not_used(self, runs, monkeypatch):
        # same grid, so the same 16 file names
        shutil.copy(runs.run_dir("hb") / "records.json", runs.run_dir("fifo") / "records.json")
        records, parsed_files = load_and_count(runs, "fifo", monkeypatch)
        assert len(parsed_files) == 16
        assert bits(records) == bits(parsed(runs, "fifo")) != bits(runs.load_run("hb")[1])

    @pytest.mark.parametrize(
        "damage, detail",
        [
            (lambda data: data[: len(data) // 2], "'body_crc32' does not match the lines after the first"),
            (lambda data: b"not json\n", "Expecting value"),
            (edit_a_loss_digit, "'body_crc32' does not match the lines after the first"),
            (lambda data: data.replace(b'"format":1', b'"format":2'), "not a format 1 records snapshot"),
            (lambda data: resealed(data.replace(b"}\n", b"}\n[1,2]\n", 1)), "line 2: not an object"),
            (lambda data: resealed(data.replace(b'"status":', b'"statuses":')), "line 2: 'status' is not an array"),
            (lambda data: resealed(data.replace(b'"file":["0_0.jsonl"', b'"file":[7', 1)), "line 2: 'file' holds a value"),
            (lambda data: resealed(data.replace(b'"completed"', b'"paused"', 1)), "line 2: 'status' holds an unknown"),
            (lambda data: resealed(data.replace(b'"epochs_run":[', b'"epochs_run":[-', 1)), "line 2: 'epochs_run' holds"),
            (lambda data: resealed(data.replace(b"[null,", b"[", 1)), "line 2: 'val_acc' is not an array"),
            (lambda data: resealed(data.replace(b"[null,", b'["0.5",', 1)), "not a float encoding: '0.5'"),
        ],
        ids=[
            "truncated", "not-json", "loss-digit-edited", "format-2", "not-an-object", "no-status", "numeric-name",
            "unknown-status", "negative-run", "ragged", "string-metric",
        ],
    )
    def test_a_malformed_snapshot_warns_and_the_files_are_parsed(self, runs, damage, detail):
        snapshot = runs.run_dir("fifo") / "records.json"
        snapshot.write_bytes(damage(snapshot.read_bytes()))
        message = re.escape(f"{snapshot}: ignoring the records snapshot: {detail}")
        with pytest.warns(UserWarning, match=message):
            records = runs.load_run("fifo")[1]
        assert bits(records) == bits(parsed(runs, "fifo"))

    def test_a_snapshot_edited_in_place_loads_the_files_values(self, runs):
        snapshot = runs.run_dir("fifo") / "records.json"
        data = snapshot.read_bytes()
        snapshot.write_bytes(edit_a_loss_digit(data))
        assert len(snapshot.read_bytes()) == len(data) and snapshot.read_bytes() != data
        with pytest.warns(UserWarning, match="'body_crc32' does not match"):
            records = runs.load_run("fifo")[1]
        snapshot.write_bytes(data)
        assert bits(records) == bits(runs.load_run("fifo")[1]) == bits(parsed(runs, "fifo"))

    @pytest.mark.parametrize("line_epochs, n_lines", [(4, 16), (20, 6)])
    def test_a_snapshot_of_many_lines_loads_what_parsing_loads(self, runs, line_epochs, n_lines, monkeypatch):
        # 16 files of 6 epochs: one file a line when it has more epochs than a line holds
        path = runs.run_dir("fifo") / "records.json"
        written = path.read_bytes()
        rewrite_snapshot(runs, "fifo")
        assert path.read_bytes() == written
        monkeypatch.setattr(records_snapshot, "_LINE_EPOCHS", line_epochs)
        rewrite_snapshot(runs, "fifo")
        assert len((runs.run_dir("fifo") / "records.json").read_bytes().splitlines()) == 1 + n_lines
        records, parsed_files = load_and_count(runs, "fifo", monkeypatch)
        assert parsed_files == []
        assert bits(records) == bits(parsed(runs, "fifo"))

    def test_files_from_a_malformed_line_on_are_parsed(self, runs, monkeypatch):
        monkeypatch.setattr(records_snapshot, "_LINE_EPOCHS", 20)  # 3 files a line
        rewrite_snapshot(runs, "fifo")
        path = runs.run_dir("fifo") / "records.json"
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'"status":', b'"statuses":')  # 1_2, 1_3 and 2_0
        path.write_bytes(resealed(b"\n".join(lines)))
        parse = RunStore._read_jsonl
        seen = []
        monkeypatch.setattr(RunStore, "_read_jsonl", lambda self, p, c, d: seen.append(p) or parse(self, p, c, d))
        with pytest.warns(UserWarning, match=re.escape(f"{path}: ignoring the records snapshot: line 4: 'status'")):
            records = runs.load_run("fifo")[1]
        names = sorted(os.listdir(runs.run_dir("fifo") / "trials"))
        assert [os.path.basename(p) for p in seen] == names[names.index("1_2.jsonl"):]
        assert bits(records) == bits(parsed(runs, "fifo"))

    def test_a_record_changed_after_its_write_is_not_taken_from_the_snapshot(self, store, monkeypatch):
        grid = small_grid()
        store.create_run("r", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        records = [plain_record(cell, 2, "completed") for cell in grid.cells()]
        for record in records[:3]:  # the last cell's is never written
            store.append_trial_line("r", record)
        records[1].epochs[0] = records[1].epochs[0]._replace(train_loss=123.0)
        records[2].epochs.append(EpochLog(2, 1.0, 2.0))
        records[2].status = "diverged"
        records_snapshot.write_records(store, "r", [*records, plain_record(GridCell(0, -1), 2, "completed")])
        loaded, parsed_files = load_and_count(store, "r", monkeypatch)
        assert parsed_files == ["0_1.jsonl", "1_0.jsonl"]
        assert bits(loaded) == bits(parsed(store, "r"))
        assert bits(loaded) == bits({r.cell: plain_record(r.cell, 2, "completed") for r in records[:3]})

    @pytest.mark.parametrize(
        "record, message",
        [
            (TrialRecord(GridCell(0, 1), [EpochLog(0, 1.0, 2.0), EpochLog(2, 1.0, 2.0)]), "contiguity"),
            (TrialRecord(GridCell(0, 1), [EpochLog(0, 1.0, 2.0)], "paused"), "unknown value 'paused'"),
        ],
        ids=["epoch-gap", "unknown-status"],
    )
    def test_no_snapshot_stands_in_for_a_file_that_fails_to_load(self, store, record, message):
        grid = small_grid()
        store.create_run("r", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        first = plain_record(GridCell(0, 0), 2, "completed")
        store.append_trial_line("r", first)
        store.append_trial_line("r", record)
        records_snapshot.write_records(store, "r", [first, record])
        assert not (store.run_dir("r") / "records.json").exists()
        with pytest.raises(RunStoreError, match=message):
            store.load_run("r")

    def test_an_empty_file_and_signed_non_finite_values_load_as_parsed(self, store, monkeypatch):
        grid = small_grid()
        store.create_run("r", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        written = [
            TrialRecord(GridCell(0, 0), [], "completed"),
            TrialRecord(GridCell(0, 1), [EpochLog(0, -math.nan, -math.inf, -0.0, None)], "diverged"),
        ]
        for record in written:
            store.append_trial_line("r", record)
        records_snapshot.write_records(store, "r", written)
        records, parsed_files = load_and_count(store, "r", monkeypatch)
        assert parsed_files == []
        assert bits(records) == bits(parsed(store, "r"))
        assert records[GridCell(0, 0)].status == "running"


class TestResumePlan:
    def test_complete_run_has_empty_plan(self, store):
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=3)
        assert resume_plan(*store.load_run("r1")) == []

    def test_interrupted_fifo_cells_resume_at_next_epoch(self, store):
        grid = small_grid()
        policy = SchedulerPolicy("fifo", 100)
        store.create_run("r1", manifest_for(grid, policy))
        for cell in grid.cells():
            store.append_trial_line("r1", plain_record(cell, 40))
        plan = resume_plan(*store.load_run("r1"))
        assert len(plan) == 4
        assert all(next_epoch == 40 for _, next_epoch in plan)

    def test_unstarted_cells_resume_at_zero(self, store):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        plan = resume_plan(*store.load_run("r1"))
        assert plan == [(cell, 0) for cell in grid.cells()]

    def test_hb_stopped_cells_not_resumable(self, store):
        grid = small_grid()
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.25, grace_fraction=0.05)
        store.create_run("r1", manifest_for(grid, policy))
        # two cells stopped at the rung (epoch 2), one survivor mid-flight, one pending
        for cell, epochs, status in [
            (GridCell(0, 0), 2, "stopped_early"),
            (GridCell(0, 1), 2, "stopped_early"),
            (GridCell(1, 0), 5, "running"),
        ]:
            store.append_trial_line("r1", plain_record(cell, epochs, status))
        plan = resume_plan(*store.load_run("r1"))
        assert (GridCell(1, 0), 5) in plan
        assert (GridCell(1, 1), 0) in plan
        assert len(plan) == 2

    def test_a_cell_without_its_file_starts_over_despite_a_stop(self, store):
        # every cell of a finished FIFO run has a terminal stop in the log;
        # a missing trial file still leaves its cell owed from epoch 0
        grid = small_grid()
        write_full_run(store, "r1", grid, epochs=3)
        store.append_decisions(
            "r1", [{"row": c.row, "col": c.col, "epoch": 3, "decision": "stop", "rung": None} for c in grid.cells()]
        )
        (store.run_dir("r1") / "trials" / "0_1.jsonl").unlink()
        assert resume_plan(*store.load_run("r1")) == [(GridCell(0, 1), 0)]

    def test_a_running_file_short_of_the_budget_is_owed_despite_a_stop(self, store):
        # the file is the record: a stop in the log does not end a trial whose
        # last line says running before the budget
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("hb", 10, stop_fraction=0.25)))
        for cell in grid.cells():
            store.append_trial_line("r1", plain_record(cell, 3, "running" if cell == (1, 1) else "stopped_early"))
        store.append_decisions(
            "r1", [{"row": c.row, "col": c.col, "epoch": 3, "decision": "stop", "rung": 3} for c in grid.cells()]
        )
        assert resume_plan(*store.load_run("r1")) == [(GridCell(1, 1), 3)]


# Each search's stops come from rungs, divergence and the budget: a constant LR
# up to 1e11 with WD up to 100 makes cells diverge within 3 epochs under FIFO,
# and one cell diverge past the first rung under hb-half and hb-late-grace.
LOGGED_POLICIES = {
    "fifo": SchedulerPolicy("fifo", 4),
    "hb-quarter": SchedulerPolicy("hb", 6, stop_fraction=0.25),
    "hb-half": SchedulerPolicy("hb", 6, stop_fraction=0.5),
    "hb-eta3": SchedulerPolicy("hb", 6, stop_fraction=0.75, halving_rate=3),
    "hb-late-grace": SchedulerPolicy("hb", 8, stop_fraction=0.25, grace_fraction=0.3),
}


@pytest.fixture(scope="module", params=[(name, seed) for name in LOGGED_POLICIES for seed in range(3)],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def logged_run(request, tmp_path_factory):
    """A search written to a store, with the decision log the search wrote."""
    name, seed = request.param
    policy = LOGGED_POLICIES[name]
    grid = build_log_grid(1e-2, 1e11, 4, 1e-3, 100, 4)
    task = TaskSpec(seed=seed, n_train=24, n_val=6, n_test=6, input_dim=4, n_classes=3)
    config = TrainerConfig(batch_size=4, lr_schedule="constant", init_seed=seed)
    store = RunStore(tmp_path_factory.mktemp(name) / "runs")
    store.create_run("run", manifest_for(grid, policy))
    execute_search(grid, policy, task.make(), ArchSpec((6,)), config, store=store, run_id="run")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = reference_read_jsonl(str(store.run_dir("run") / "decisions.jsonl"))
    return store, grid, policy, log


def logged_stops(log):
    stops = {}
    for d in log:
        if d["decision"] == "stop":
            cell = GridCell(d["row"], d["col"])
            assert cell not in stops, f"{cell} stopped twice"
            stops[cell] = d
    return stops


class TestTrialFilesCarryTheLoggedStops:
    """``load_run`` ignores ``decisions.jsonl``; what the search logs there about
    which trials ended must already be in the trial files it wrote."""

    def test_each_logged_stop_is_the_end_of_its_trial_file(self, logged_run):
        store, grid, policy, log = logged_run
        stops = logged_stops(log)
        assert sorted(stops) == grid.cells()
        _, records = store.load_run("run")
        for cell, stop in stops.items():
            rec = records[cell]
            assert rec.epochs_run == stop["epoch"], cell
            assert rec.status in TERMINAL_STATUSES, cell
            # a rung stop ends a trial early; the budget or divergence ends it otherwise
            assert (rec.status == STATUS_STOPPED_EARLY) == (stop["rung"] is not None), cell
            if rec.status == STATUS_COMPLETED:
                assert rec.epochs_run == policy.epoch_budget, cell
        for d in log:
            if d["decision"] == "continue":
                assert d["epoch"] < stops[GridCell(d["row"], d["col"])]["epoch"]
        assert resume_plan(*store.load_run("run")) == []

    def test_a_run_cut_after_any_round_owes_the_cells_its_log_has_not_stopped(self, logged_run, tmp_path):
        # a search cut after round k has written the trial files of the trials
        # ended by then, and the decisions of rounds up to k
        store, grid, policy, log = logged_run
        stops = logged_stops(log)
        cut = RunStore(tmp_path / "runs")
        shutil.copytree(store.run_dir("run"), cut.run_dir("run"))
        for k in range(max(d["epoch"] for d in stops.values()), -1, -1):
            for cell, stop in stops.items():
                if stop["epoch"] == k + 1:
                    (cut.run_dir("run") / "trials" / f"{cell.row}_{cell.col}.jsonl").unlink()
            stopped = {cell for cell, stop in stops.items() if stop["epoch"] <= k}
            owed = [(cell, 0) for cell in grid.cells() if cell not in stopped]
            assert resume_plan(*cut.load_run("run")) == owed, f"cut after round {k}"
