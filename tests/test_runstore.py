import json
import math
import os
import shutil
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsearch import records as run_records
from twinsearch.grid import GridCell, build_log_grid
from twinsearch.matrices import assemble
from twinsearch.quickshift import default_params
from twinsearch.records import write_records
from twinsearch.runstore import (
    RunNotFoundError,
    RunStore,
    RunStoreError,
    _trial_line_text,
    encode_json,
    resume_plan,
)
from twinsearch.scheduler import SchedulerPolicy
from twinsearch.search import execute_search, run_and_store
from twinsearch.selector import twin_pipeline
from twinsearch.tasks import TaskSpec
from twinsearch.trainer import (
    STATUS_COMPLETED,
    STATUS_RUNNING,
    STATUS_STOPPED_EARLY,
    TERMINAL_STATUSES,
    ArchSpec,
    EpochLog,
    TrainerConfig,
    TrialRecord,
)
from runstore_frozen import reference_read_jsonl


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "runs")


def manifest_for(grid, policy):
    return {"grid": grid.to_dict(), "scheduler": policy.to_dict(), "task": "external"}


def small_grid(n=2):
    return build_log_grid(1e-4, 1e-1, n, 1e-4, 1e-1, n)


def plain_record(cell, epochs, status="running"):
    """A record of ``epochs`` epochs, each with loss 1.0 and norm 2.0."""
    return TrialRecord(cell, [EpochLog(epoch, 1.0, 2.0) for epoch in range(epochs)], status)


def write_full_run(store, run_id, grid, epochs=3, policy=None):
    """A run of ``grid`` as ``run`` stores one: trial files, then ``records.json``."""
    policy = policy or SchedulerPolicy("fifo", epochs)
    store.create_run(run_id, manifest_for(grid, policy))
    records = []
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
        records.append(TrialRecord(cell, logs, "completed"))
        store.append_trial_line(run_id, records[-1])
    write_records(store, run_id, records)


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
        record = TrialRecord(GridCell(0, 0), [EpochLog(0, math.nan, math.inf)], "diverged")
        store.append_trial_line("r1", record)
        write_records(store, "r1", [record])
        raw = (store.run_dir("r1") / "trials" / "0_0.jsonl").read_text()
        doc = json.loads(raw)
        assert doc["train_loss"] == "NaN"
        assert doc["param_norm"] == "Inf"
        assert b'"train_loss":["NaN"],"param_norm":["Inf"]' in (store.run_dir("r1") / "records.json").read_bytes()
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
        mats = assemble(records.values(), grid)
        artifacts = twin_pipeline(mats, grid, default_params(grid))
        store.write_matrices("ext", mats)
        store.write_selection("ext", artifacts)
        assert artifacts.selection.cell in set(grid.cells())
        assert store.load_matrices("ext").valid_mask.all()
        assert json.loads((store.run_dir("ext") / "selection.json").read_text())["selection"] == (
            artifacts.selection.to_dict()
        )
        assert store.load_selection("ext")[:2] == (artifacts.selection.cell, artifacts.selection.region_id)

    def test_missing_manifest_is_an_error(self, store):
        with pytest.raises(RunStoreError, match="manifest"):
            store.load_run("nope")

    def test_a_run_without_records_is_not_found(self, store):
        # as a search cut before its end leaves it: trial files, no records.json
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        store.append_trial_line("r1", plain_record(GridCell(0, 0), 5, "completed"))
        with pytest.raises(RunNotFoundError) as info:
            store.load_run("r1")
        assert str(info.value) == f"run 'r1' has no records at {store.run_dir('r1') / 'records.json'}"

    @pytest.mark.parametrize(
        "record",
        [
            TrialRecord(GridCell(0, 1), [EpochLog(0, 1.0, 2.0), EpochLog(2, 1.0, 2.0)]),
            TrialRecord(GridCell(0, 1), [EpochLog(0, 1.0, 2.0)], "paused"),
        ],
        ids=["epoch-gap", "unknown-status"],
    )
    def test_a_record_the_format_cannot_hold_is_refused_on_write(self, store, record):
        # epochs are numbered 0, 1, ... on load, and a status must be one the loader knows
        grid = small_grid()
        store.create_run("r", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        with pytest.raises(RunStoreError) as info:
            write_records(store, "r", [plain_record(GridCell(0, 0), 2, "completed"), record])
        assert str(info.value) == "record of cell (0, 1): epochs not 0, 1, ..., or unknown status"
        assert not (store.run_dir("r") / "records.json").exists()

    def test_duplicate_run_id_rejected(self, store):
        grid = small_grid()
        store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        with pytest.raises(RunStoreError, match="already exists"):
            store.create_run("r1", manifest_for(grid, SchedulerPolicy("fifo", 5)))


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


STORED_GRID = build_log_grid(5e-5, 5e-1, 4, 5e-5, 5e-1, 4)
STORED_TASK = dict(seed=2, n_train=40, input_dim=4, n_classes=2)
# run id -> (grid, policy, task) of each kind of run records.json must reproduce
STORED_RUNS = {
    "fifo": (STORED_GRID, SchedulerPolicy("fifo", 6), TaskSpec(n_val=8, n_test=60, **STORED_TASK)),
    "hb": (
        STORED_GRID,
        SchedulerPolicy("hb", 8, stop_fraction=0.25),
        TaskSpec(n_val=8, n_test=60, **STORED_TASK),
    ),
    "diverged": (
        build_log_grid(5e-5, 1e6, 4, 5e-5, 50, 4),
        SchedulerPolicy("fifo", 10),
        TaskSpec(n_val=8, n_test=60, **STORED_TASK),
    ),
    "val-free": (STORED_GRID, SchedulerPolicy("fifo", 6), TaskSpec(n_val=0, n_test=0, **STORED_TASK)),
}


@pytest.fixture(scope="module")
def stored_runs(tmp_path_factory):
    """A store root holding one finished run of each kind in ``STORED_RUNS``."""
    root = tmp_path_factory.mktemp("stored-runs")
    for run_id, (grid, policy, task) in STORED_RUNS.items():
        config = TrainerConfig(batch_size=16, init_seed=2)
        run_and_store(RunStore(root), run_id, grid, policy, task, ArchSpec((8,)), config)
    return root


@pytest.fixture()
def runs(stored_runs, tmp_path):
    """A store over a private copy of ``stored_runs``."""
    shutil.copytree(stored_runs, tmp_path / "runs")
    return RunStore(tmp_path / "runs")


def bits(records):
    """Every field of ``records`` with its type, floats as ``float.hex`` (one text for any NaN)."""
    def value(v):
        return (type(v).__name__, float.hex(v) if type(v) is float else v)

    return [
        (type(r).__name__, cell, r.cell, r.status, [(type(e).__name__, *map(value, e)) for e in r.epochs])
        for cell, r in records.items()
    ]


def resealed(data):
    """Records ``data`` with the CRC-32 on its first line made to match the lines after it."""
    _, body = data.split(b"\n", 1)
    return b'{"format":2,"body_crc32":%d}\n' % zlib.crc32(body) + body


def edited(line=2, **changes):
    """A damage to records data: ``changes``, key -> function of the old value, applied to the
    object on ``line``, and the data resealed."""

    def damage(data):
        lines = data.split(b"\n")
        doc = json.loads(lines[line - 1])
        for key, change in changes.items():
            doc[key] = change(doc.get(key))
        lines[line - 1] = json.dumps(doc).encode()
        return resealed(b"\n".join(lines))

    return damage


def first(value):
    """A change that puts ``value`` in place of an array's first item."""
    return lambda values: [value, *values[1:]]


def edit_a_loss_digit(data):
    """Records ``data`` with one digit of its first loss value changed, keeping its length."""
    at = data.index(b'"train_loss":[') + len(b'"train_loss":[')
    while data[at] not in b"12345678":
        at += 1
    return data[:at] + bytes([data[at] + 1]) + data[at + 1:]


def rewrite_records(store, run_id):
    """Write ``run_id``'s records.json again from its loaded records, as ``run`` writes it."""
    write_records(store, run_id, store.load_run(run_id)[1].values())


class TestRecords:
    def test_the_runs_hold_what_they_are_named_for(self, stored_runs):
        store = RunStore(stored_runs)
        assert all((store.run_dir(run_id) / "records.json").is_file() for run_id in STORED_RUNS)
        stopped = [r for r in store.load_run("hb")[1].values() if r.status == "stopped_early"]
        assert stopped and all(r.epochs_run < 8 for r in stopped)
        values = [v for r in store.load_run("diverged")[1].values() for e in r.epochs for v in e[1:3]]
        assert any(math.isnan(v) for v in values) and any(math.isinf(v) for v in values)
        val_free = [e for r in store.load_run("val-free")[1].values() for e in r.epochs]
        assert all(e.val_metric is None and e.test_metric is None for e in val_free)

    @pytest.mark.parametrize("run_id", STORED_RUNS)
    def test_each_trial_file_holds_the_lines_of_its_loaded_record(self, runs, run_id):
        # no command reads the trial files, so this is what keeps them faithful
        _, records = runs.load_run(run_id)
        trials = runs.run_dir(run_id) / "trials"
        assert sorted(os.listdir(trials)) == sorted(f"{c.row}_{c.col}.jsonl" for c in records)
        for cell, record in records.items():
            last = record.epochs_run - 1
            lines = [
                _trial_line_text(cell, entry, record.status if i == last else "running") + "\n"
                for i, entry in enumerate(record.epochs)
            ]
            assert (trials / f"{cell.row}_{cell.col}.jsonl").read_text() == "".join(lines), cell

    @pytest.mark.parametrize("change", ["edited", "added", "removed", "renamed", "all-deleted"])
    def test_the_trial_files_and_the_decision_log_are_not_read(self, runs, change):
        before = bits(runs.load_run("fifo")[1])
        trials = runs.run_dir("fifo") / "trials"
        if change == "edited":
            path = trials / "1_2.jsonl"
            path.write_bytes(path.read_bytes().replace(b'"train_loss":', b'"train_loss":1', 1))
        elif change == "added":
            (trials / "9_9.jsonl").write_text("not a trial line\n")
        elif change == "removed":
            (trials / "0_1.jsonl").unlink()
        elif change == "renamed":  # a name the writer never spells
            (trials / "0_1.jsonl").rename(trials / "00_1.jsonl")
        else:
            shutil.rmtree(trials)
            (runs.run_dir("fifo") / "decisions.jsonl").unlink()
        assert bits(runs.load_run("fifo")[1]) == before

    @pytest.mark.parametrize(
        "damage, detail",
        [
            (lambda data: data[: len(data) // 2], "line 1: 'body_crc32' does not match the lines after the first"),
            (edit_a_loss_digit, "line 1: 'body_crc32' does not match the lines after the first"),
            (lambda data: b"", "line 1: not JSON: Expecting value"),
            (lambda data: b"not json\n", "line 1: not JSON: Expecting value"),
            (lambda data: b"[2]\n", "line 1: not a format 2 records file"),
            (lambda data: data.replace(b'"format":2', b'"format":1', 1), "line 1: not a format 2 records file"),
            (lambda data: resealed(data.replace(b"}\n", b"}\n[1,2]\n", 1)), "line 2: not an object"),
            (lambda data: resealed(data.replace(b"}\n", b"}\n{bad\n", 1)), "line 2: not JSON: Expecting"),
            (edited(status=lambda v: None), "line 2: 'status' is not an array of one value per trial"),
            (edited(col=lambda v: v[1:]), "line 2: 'col' is not an array of one value per trial"),
            (edited(status=first("paused")), "line 2: 'status' holds an unknown status"),
            (edited(status=first([])), "line 2: 'status' holds an unknown status"),
            (edited(epochs_run=first(-1)), "line 2: 'epochs_run' holds a value that is not a non-negative integer"),
            (edited(epochs_run=first(True)), "line 2: 'epochs_run' holds a value that is not a non-negative integer"),
            (edited(row=first(False)), "line 2: 'row' holds a value that is not a non-negative integer"),
            (edited(row=first(0.0)), "line 2: 'row' holds a value that is not a non-negative integer"),
            (edited(col=first(-1)), "line 2: 'col' holds a value that is not a non-negative integer"),
            (edited(row=first(4)), "line 2: cell (4, 0) is outside the grid of shape (4, 4)"),
            (edited(col=lambda v: [0, 0, *v[2:]]), "line 2: cell (0, 0) is given twice"),
            (edited(val_acc=lambda v: v[1:]), "line 2: 'val_acc' is not an array of one value per epoch"),
            (edited(val_acc=first("0.5")), "line 2: not a float encoding: '0.5'"),
            (edited(train_loss=first(10**400)), "line 2: integer of 1329 bits is out of float range"),
        ],
        ids=[
            "truncated", "loss-digit-edited", "empty", "not-json", "header-array", "format-1",
            "not-an-object", "line-not-json", "no-status", "short-col", "unknown-status", "status-array",
            "negative-run", "bool-run", "bool-row", "float-row", "negative-col", "cell-outside",
            "cell-twice", "ragged-column", "string-metric", "overflowing-loss",
        ],
    )
    def test_a_malformed_records_file_is_an_error_at_its_line(self, runs, damage, detail):
        path = runs.run_dir("fifo") / "records.json"
        path.write_bytes(damage(path.read_bytes()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RunStoreError) as info:
                runs.load_run("fifo")
        assert str(info.value).startswith(f"{path}: {detail}")

    @pytest.mark.parametrize("line_epochs, n_lines", [(4, 16), (20, 6)])
    def test_a_records_file_of_many_lines_loads_the_same_records(self, runs, line_epochs, n_lines, monkeypatch):
        # 16 records of 6 epochs: one record a line when it has more epochs than a line holds
        path = runs.run_dir("fifo") / "records.json"
        written = path.read_bytes()
        before = bits(runs.load_run("fifo")[1])
        rewrite_records(runs, "fifo")
        assert path.read_bytes() == written
        monkeypatch.setattr(run_records, "_LINE_EPOCHS", line_epochs)
        rewrite_records(runs, "fifo")
        assert len(path.read_bytes().splitlines()) == 1 + n_lines
        assert bits(runs.load_run("fifo")[1]) == before

    @pytest.mark.parametrize(
        "damage, detail",
        [
            (edited(line=4, status=lambda v: None), "'status' is not an array of one value per trial"),
            # the first record of line 4 (cell (1, 2)) given the cell of line 2's first, (0, 0)
            (edited(line=4, row=first(0), col=first(0)), "cell (0, 0) is given twice"),
        ],
        ids=["no-status", "cell-of-an-earlier-line"],
    )
    def test_a_fault_on_a_later_line_names_that_line(self, runs, monkeypatch, damage, detail):
        monkeypatch.setattr(run_records, "_LINE_EPOCHS", 20)  # 3 records a line
        rewrite_records(runs, "fifo")
        path = runs.run_dir("fifo") / "records.json"
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(RunStoreError) as info:
            runs.load_run("fifo")
        assert str(info.value) == f"{path}: line 4: {detail}"

    def test_an_empty_record_and_signed_non_finite_values_round_trip(self, store):
        grid = small_grid()
        store.create_run("r", manifest_for(grid, SchedulerPolicy("fifo", 5)))
        written = {
            GridCell(0, 0): TrialRecord(GridCell(0, 0), [], "completed"),
            GridCell(0, 1): TrialRecord(GridCell(0, 1), [EpochLog(0, -math.nan, -math.inf, -0.0, None)], "diverged"),
            GridCell(1, 1): TrialRecord(GridCell(1, 1), [EpochLog(0, 0.5, 5e-324, 1.0, 0.25)], "running"),
        }
        write_records(store, "r", written.values())
        assert bits(store.load_run("r")[1]) == bits(written)


# -- the reader on generated records -------------------------------------

NOT_JSON = "not JSON: "  # a line json.loads refuses; its message follows
NOT_FORMAT_2 = "not a format 2 records file"
CRC_MISMATCH = "'body_crc32' does not match the lines after the first"
UNKNOWN_STATUS = "'status' holds an unknown status"
STATUSES = (STATUS_RUNNING, *sorted(TERMINAL_STATUSES))
PER_TRIAL = ("row", "col", "status", "epochs_run")
PER_EPOCH = ("train_loss", "param_norm", "val_acc", "test_acc")


def per_trial(key):
    return f"{key!r} is not an array of one value per trial"


def per_epoch(key):
    return f"{key!r} is not an array of one value per epoch"


def not_an_index(key):
    return f"{key!r} holds a value that is not a non-negative integer"


def random_value(rng, optional=False):
    pick = rng.random()
    if optional and pick < 0.2:
        return None
    if pick < 0.35:
        return [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308][
            int(rng.integers(8))
        ]
    if pick < 0.5:
        return float(rng.integers(-5, 10**6))  # integral
    return float(rng.standard_normal() * 10.0 ** int(rng.integers(-300, 300)))


def random_records(rng):
    """A grid of 2x2 to 5x5 cells and records for a random set of at least three of its cells,
    in random order: each of 0 to 9 epochs (the first two of at least one), of any status."""
    grid = build_log_grid(1e-4, 1e-1, int(rng.integers(2, 6)), 1e-4, 1e-1, int(rng.integers(2, 6)))
    cells = grid.cells()
    records = []
    for k, i in enumerate(rng.permutation(len(cells))[: int(rng.integers(3, len(cells) + 1))]):
        epochs = [
            EpochLog(epoch, random_value(rng), random_value(rng), random_value(rng, True), random_value(rng, True))
            for epoch in range(int(rng.integers(1 if k < 2 else 0, 10)))
        ]
        records.append(TrialRecord(cells[i], epochs, STATUSES[int(rng.integers(len(STATUSES)))]))
    return grid, records


def write_random_run(store, rng, monkeypatch, line_epochs):
    """A run of random records written with ``line_epochs`` epochs a line: the path of its
    ``records.json``, its grid and the records."""
    grid, records = random_records(rng)
    store.create_run("r", manifest_for(grid, SchedulerPolicy("fifo", 9)))
    monkeypatch.setattr(run_records, "_LINE_EPOCHS", line_epochs)
    write_records(store, "r", records)
    return store.run_dir("r") / "records.json", grid, records


def spots(docs):
    """Every (line, trial) of the line objects ``docs``, in file order."""
    return [(i, t) for i, doc in enumerate(docs) for t in range(len(doc["row"]))]


def edit(change):
    """A line fault that edits the line's object: ``change(rng, doc, t, earlier, shape)``
    alters trial ``t`` of ``doc`` in place and returns the detail of the error; ``earlier``
    holds the cells of the trials before it."""

    def fault(rng, line, t, earlier, shape):
        doc = json.loads(line)
        detail = change(rng, doc, t, earlier, shape)
        return json.dumps(doc).encode(), detail

    return fault


def put(key, value, detail):
    """A line fault that puts ``value`` in place of trial ``t``'s ``key``."""

    def change(rng, doc, t, earlier, shape):
        doc[key][t] = value(doc[key][t]) if callable(value) else value
        return detail

    return edit(change)


def put_epoch_value(value, detail):
    """A line fault that puts ``value`` in place of a random value of a random per-epoch column."""

    def change(rng, doc, t, earlier, shape):
        column = doc[PER_EPOCH[int(rng.integers(4))]]
        column[int(rng.integers(len(column)))] = value
        return detail

    return edit(change)


def resize(key, grow, detail):
    """A line fault that makes ``key``'s array one value longer, or one shorter."""

    def change(rng, doc, t, earlier, shape):
        if grow:
            doc[key].append(doc[key][0])
        else:
            del doc[key][int(rng.integers(len(doc[key])))]
        return detail

    return edit(change)


def drop(key, detail):
    def change(rng, doc, t, earlier, shape):
        del doc[key]
        return detail

    return edit(change)


def outside(axis):
    def change(rng, doc, t, earlier, shape):
        doc[("row", "col")[axis]][t] = shape[axis] + int(rng.integers(3))
        return f"cell ({doc['row'][t]}, {doc['col'][t]}) is outside the grid of shape {shape}"

    return edit(change)


def given_twice(rng, doc, t, earlier, shape):
    row, col = earlier[int(rng.integers(len(earlier)))]
    doc["row"][t], doc["col"][t] = row, col
    return f"cell ({row}, {col}) is given twice"


def one_more_epoch(rng, doc, t, earlier, shape):
    doc["epochs_run"][t] += 1
    return per_epoch("train_loss")


def text(change):
    """A line fault that makes the line's text ``change(rng, line)``, which json.loads refuses."""
    return lambda rng, line, t, earlier, shape: (change(rng, line), NOT_JSON)


def cut(rng, line):
    return line[: int(rng.integers(1, line.rindex(b"}")))]


def bad_utf8(rng, line):
    at = int(rng.integers(len(line) + 1))
    return line[:at] + b"\xff" + line[at:]


# faults of one line after the first: name -> fault(rng, line, t, earlier, shape), which
# returns the line's new text and the detail of the error it raises
LINE_FAULTS = {
    "extra-text": text(lambda rng, line: line + b"x"),
    "extra-object": text(lambda rng, line: line + b" {}"),
    "bad-utf8": text(bad_utf8),
    "torn": text(cut),
    "blank": text(lambda rng, line: b""),
    "array-line": lambda rng, line, *_: (json.dumps(list(json.loads(line).values())).encode(), "not an object"),
    "number-line": lambda rng, line, *_: (b"3", "not an object"),
    "string-line": lambda rng, line, *_: (json.dumps(" ".join(json.loads(line))).encode(), "not an object"),
    "null-line": lambda rng, line, *_: (b"null", "not an object"),
    **{f"missing-{key}": drop(key, per_trial(key)) for key in PER_TRIAL},
    **{f"missing-{key}": drop(key, per_epoch(key)) for key in PER_EPOCH},
    **{f"extra-{key}": resize(key, True, per_trial(key)) for key in PER_TRIAL[1:]},
    **{f"extra-{key}": resize(key, True, per_epoch(key)) for key in PER_EPOCH},
    **{f"short-{key}": resize(key, False, per_epoch(key)) for key in PER_EPOCH},
    "one-more-epoch": edit(one_more_epoch),
    "unknown-status": put("status", "paused", UNKNOWN_STATUS),
    "status-array": put("status", [], UNKNOWN_STATUS),
    "status-object": put("status", {}, UNKNOWN_STATUS),
    "status-null": put("status", None, UNKNOWN_STATUS),
    "status-number": put("status", 3, UNKNOWN_STATUS),
    **{f"negative-{key}": put(key, -1, not_an_index(key)) for key in ("row", "col", "epochs_run")},
    **{f"bool-{key}": put(key, True, not_an_index(key)) for key in ("row", "col", "epochs_run")},
    **{f"float-{key}": put(key, float, not_an_index(key)) for key in ("row", "col", "epochs_run")},
    "row-outside": outside(0),
    "col-outside": outside(1),
    "cell-twice": edit(given_twice),
    "float-text": put_epoch_value("nan", "not a float encoding: 'nan'"),
    "float-array": put_epoch_value([], "not a float encoding: a JSON array"),
    "float-object": put_epoch_value({}, "not a float encoding: a JSON object"),
    "overflow-int": put_epoch_value(10**400, "integer of 1329 bits is out of float range"),
    "float-bool": put_epoch_value(True, "not a float encoding: a JSON boolean"),
}
# line faults that need a value in the line's per-epoch columns
EPOCH_FAULTS = {"float-text", "float-array", "float-object", "float-bool", "overflow-int",
                *(f"short-{key}" for key in PER_EPOCH)}
# faults of the whole file, all reported at line 1: name -> fault(rng, body, crc), which returns
# the file's new bytes and the detail of the error; ``body`` is the text after the first line
FILE_FAULTS = {
    "empty": lambda rng, body, crc: (b"", NOT_JSON),
    "header-not-json": lambda rng, body, crc: (b"format 2\n" + body, NOT_JSON),
    "header-array": lambda rng, body, crc: (b"[2,%d]\n" % crc + body, NOT_FORMAT_2),
    "no-header": lambda rng, body, crc: (body, NOT_FORMAT_2),
    "format-1": lambda rng, body, crc: (b'{"format":1,"body_crc32":%d}\n' % crc + body, NOT_FORMAT_2),
    "format-3": lambda rng, body, crc: (b'{"format":3,"body_crc32":%d}\n' % crc + body, NOT_FORMAT_2),
    "format-text": lambda rng, body, crc: (b'{"format":"2","body_crc32":%d}\n' % crc + body, NOT_FORMAT_2),
    "format-true": lambda rng, body, crc: (b'{"format":true,"body_crc32":%d}\n' % crc + body, NOT_FORMAT_2),
    "no-format": lambda rng, body, crc: (b'{"body_crc32":%d}\n' % crc + body, NOT_FORMAT_2),
    "crc-off-by-one": lambda rng, body, crc: (b'{"format":2,"body_crc32":%d}\n' % (crc + 1) + body, CRC_MISMATCH),
    "crc-text": lambda rng, body, crc: (b'{"format":2,"body_crc32":"%d"}\n' % crc + body, CRC_MISMATCH),
    "no-crc": lambda rng, body, crc: (b'{"format":2}\n' + body, CRC_MISMATCH),
    # the body changed and the header kept
    "byte-changed": lambda rng, body, crc: (header(crc) + changed_byte(rng, body), CRC_MISMATCH),
    "line-appended": lambda rng, body, crc: (header(crc) + body + body.split(b"\n")[0] + b"\n", CRC_MISMATCH),
    "line-dropped": lambda rng, body, crc: (header(crc) + body.split(b"\n", 1)[1], CRC_MISMATCH),
    "truncated": lambda rng, body, crc: (header(crc) + body[: int(rng.integers(len(body)))], CRC_MISMATCH),
}
# (fault on an earlier line, fault on a later one)
TWO_FAULTS = (
    ("extra-text", "bad-utf8"), ("bad-utf8", "torn"), ("torn", "missing-status"), ("blank", "cell-twice"),
    ("array-line", "extra-text"), ("missing-row", "float-text"), ("extra-col", "unknown-status"),
    ("short-val_acc", "row-outside"), ("unknown-status", "blank"), ("bool-epochs_run", "negative-col"),
    ("col-outside", "overflow-int"), ("float-text", "missing-train_loss"), ("overflow-int", "cell-twice"),
    ("one-more-epoch", "number-line"),
)


def header(crc):
    return b'{"format":2,"body_crc32":%d}\n' % crc


def changed_byte(rng, body):
    at = int(rng.integers(len(body)))
    return body[:at] + bytes([(body[at] + 1 + int(rng.integers(255))) % 256]) + body[at + 1:]


def body_lines(path):
    """The objects of the lines after the first of ``path``'s records, and those lines."""
    lines = path.read_bytes().split(b"\n")[1:-1]
    return [json.loads(line) for line in lines], lines


def with_line_faults(path, shape, faults, rng):
    """Put each of ``faults``, (name, line) pairs, on its line of ``path``'s records at a random
    trial, and reseal the file: the detail of each fault."""
    docs, lines = body_lines(path)
    order = spots(docs)
    details = []
    for name, i in faults:
        choices = [k for k, (j, _) in enumerate(order) if j == i and (name != "cell-twice" or k > 0)]
        k = choices[int(rng.integers(len(choices)))]
        earlier = [(docs[j]["row"][t], docs[j]["col"][t]) for j, t in order[:k]]
        lines[i], detail = LINE_FAULTS[name](rng, lines[i], order[k][1], earlier, shape)
        details.append(detail)
    path.write_bytes(resealed(b"\n".join([b"{}", *lines, b""])))
    return details


def line_for(rng, docs, name):
    """A random line index of ``docs`` that can take the line fault ``name``."""
    fits = [
        i for i, doc in enumerate(docs)
        if (name not in EPOCH_FAULTS or doc["train_loss"]) and (name != "cell-twice" or i > 0 or len(doc["row"]) > 1)
    ]
    return fits[int(rng.integers(len(fits)))]


class TestReaderOnGeneratedRecords:
    """``load_run`` reads back every set of records ``write_records`` writes, at any number of
    epochs a line, and refuses each fault of a ``records.json`` at the line where it is."""

    def load_error(self, store):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RunStoreError) as info:
                store.load_run("r")
        return str(info.value)

    def check_error(self, store, path, line, detail):
        message = self.load_error(store)
        expected = f"{path}: line {line}: {detail}"
        if detail == NOT_JSON:
            assert message.startswith(expected)
        else:
            assert message == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_clean_records(self, store, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        line_epochs = [1, 2, 3, 5, 8, 1024][seed % 6]
        path, grid, records = write_random_run(store, rng, monkeypatch, line_epochs)
        written = path.read_bytes()
        loaded = store.load_run("r")[1]
        assert bits(loaded) == bits({r.cell: r for r in records})
        assert list(loaded) == [r.cell for r in records]
        rewrite_records(store, "r")
        assert path.read_bytes() == written
        # each line is as full as it can be: a line holds more than line_epochs epochs only
        # as one record, and the next line's first record would not have fitted on it
        docs, _ = body_lines(path)
        for doc, after in zip(docs, docs[1:] + [None]):
            n = sum(doc["epochs_run"])
            assert n <= line_epochs or len(doc["row"]) == 1
            if after is not None:
                assert n + after["epochs_run"][0] > line_epochs

    @pytest.mark.parametrize("fault", LINE_FAULTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_a_faulty_line(self, store, monkeypatch, fault, seed):
        rng = np.random.default_rng([seed, list(LINE_FAULTS).index(fault)])
        path, grid, _ = write_random_run(store, rng, monkeypatch, [1, 3, 8, 1024][seed])
        line = line_for(rng, body_lines(path)[0], fault)
        (detail,) = with_line_faults(path, grid.shape, [(fault, line)], rng)
        self.check_error(store, path, line + 2, detail)

    @pytest.mark.parametrize("fault", FILE_FAULTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_a_faulty_file(self, store, monkeypatch, fault, seed):
        rng = np.random.default_rng([seed, list(FILE_FAULTS).index(fault)])
        path, _, _ = write_random_run(store, rng, monkeypatch, [1, 3, 8, 1024][seed])
        body = path.read_bytes().split(b"\n", 1)[1]
        data, detail = FILE_FAULTS[fault](rng, body, zlib.crc32(body))
        path.write_bytes(data)
        self.check_error(store, path, 1, detail)

    @pytest.mark.parametrize("first, second", TWO_FAULTS, ids=[f"{a}-then-{b}" for a, b in TWO_FAULTS])
    @pytest.mark.parametrize("seed", range(4))
    def test_the_first_of_two_faulty_lines_is_named(self, store, monkeypatch, first, second, seed):
        # one record a line: every line holds an epoch, and there are at least two lines
        rng = np.random.default_rng([seed, TWO_FAULTS.index((first, second))])
        path, grid, _ = write_random_run(store, rng, monkeypatch, 1)
        docs, _ = body_lines(path)
        b = 1 + line_for(rng, docs[1:], second)
        a = line_for(rng, docs[:b], first)
        detail, _ = with_line_faults(path, grid.shape, [(first, a), (second, b)], rng)
        self.check_error(store, path, a + 2, detail)


class TestResumePlan:
    """``resume_plan`` over records held in memory, as a resumed search would pass them."""

    def test_complete_run_has_empty_plan(self):
        grid = small_grid()
        records = {cell: plain_record(cell, 3, "completed") for cell in grid.cells()}
        assert resume_plan(manifest_for(grid, SchedulerPolicy("fifo", 3)), records) == []

    def test_interrupted_fifo_cells_resume_at_next_epoch(self):
        grid = small_grid()
        records = {cell: plain_record(cell, 40) for cell in grid.cells()}
        plan = resume_plan(manifest_for(grid, SchedulerPolicy("fifo", 100)), records)
        assert len(plan) == 4
        assert all(next_epoch == 40 for _, next_epoch in plan)

    def test_unstarted_cells_resume_at_zero(self):
        grid = small_grid()
        plan = resume_plan(manifest_for(grid, SchedulerPolicy("fifo", 5)), {})
        assert plan == [(cell, 0) for cell in grid.cells()]

    def test_hb_stopped_cells_not_resumable(self):
        grid = small_grid()
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.25, grace_fraction=0.05)
        # two cells stopped at the rung (epoch 2), one survivor mid-flight, one pending
        records = {
            cell: plain_record(cell, epochs, status)
            for cell, epochs, status in [
                (GridCell(0, 0), 2, "stopped_early"),
                (GridCell(0, 1), 2, "stopped_early"),
                (GridCell(1, 0), 5, "running"),
            ]
        }
        plan = resume_plan(manifest_for(grid, policy), records)
        assert (GridCell(1, 0), 5) in plan
        assert (GridCell(1, 1), 0) in plan
        assert len(plan) == 2

    def test_a_cell_without_a_record_starts_over(self):
        grid = small_grid()
        records = {cell: plain_record(cell, 3, "completed") for cell in grid.cells() if cell != (0, 1)}
        assert resume_plan(manifest_for(grid, SchedulerPolicy("fifo", 3)), records) == [(GridCell(0, 1), 0)]

    def test_a_running_record_short_of_the_budget_is_owed(self):
        grid = small_grid()
        records = {
            cell: plain_record(cell, 3, "running" if cell == (1, 1) else "stopped_early") for cell in grid.cells()
        }
        policy = SchedulerPolicy("hb", 10, stop_fraction=0.25)
        assert resume_plan(manifest_for(grid, policy), records) == [(GridCell(1, 1), 3)]


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
    """A search written to a store: the store, grid, policy, the decision log the search
    wrote and the records it returned."""
    name, seed = request.param
    policy = LOGGED_POLICIES[name]
    grid = build_log_grid(1e-2, 1e11, 4, 1e-3, 100, 4)
    task = TaskSpec(seed=seed, n_train=24, n_val=6, n_test=6, input_dim=4, n_classes=3)
    config = TrainerConfig(batch_size=4, lr_schedule="constant", init_seed=seed)
    store = RunStore(tmp_path_factory.mktemp(name) / "runs")
    store.create_run("run", manifest_for(grid, policy))
    records = execute_search(grid, policy, task.make(), ArchSpec((6,)), config, store=store, run_id="run")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = reference_read_jsonl(str(store.run_dir("run") / "decisions.jsonl"))
    return store, grid, policy, log, records


def logged_stops(log):
    stops = {}
    for d in log:
        if d["decision"] == "stop":
            cell = GridCell(d["row"], d["col"])
            assert cell not in stops, f"{cell} stopped twice"
            stops[cell] = d
    return stops


class TestRecordsCarryTheLoggedStops:
    """No command reads ``decisions.jsonl``; what the search logs there about which
    trials ended must already be in the records it returns and the trial files it wrote."""

    def test_each_logged_stop_ends_its_record_and_its_trial_file(self, logged_run):
        store, grid, policy, log, records = logged_run
        stops = logged_stops(log)
        assert sorted(stops) == grid.cells()
        for cell, stop in stops.items():
            rec = records[cell]
            assert rec.epochs_run == stop["epoch"], cell
            assert rec.status in TERMINAL_STATUSES, cell
            # a rung stop ends a trial early; the budget or divergence ends it otherwise
            assert (rec.status == STATUS_STOPPED_EARLY) == (stop["rung"] is not None), cell
            if rec.status == STATUS_COMPLETED:
                assert rec.epochs_run == policy.epoch_budget, cell
            lines = (store.run_dir("run") / "trials" / f"{cell.row}_{cell.col}.jsonl").read_text().splitlines()
            assert len(lines) == stop["epoch"], cell
            assert json.loads(lines[-1])["status"] == rec.status, cell
        for d in log:
            if d["decision"] == "continue":
                assert d["epoch"] < stops[GridCell(d["row"], d["col"])]["epoch"]
        assert resume_plan(store.load_manifest("run"), records) == []

    def test_the_records_ended_by_any_round_owe_the_cells_the_log_has_not_stopped(self, logged_run):
        # a search cut after round k had ended the trials the log stops by then
        store, grid, policy, log, records = logged_run
        stops = logged_stops(log)
        manifest = store.load_manifest("run")
        for k in range(max(d["epoch"] for d in stops.values()) + 1):
            ended = {cell: records[cell] for cell, stop in stops.items() if stop["epoch"] <= k}
            owed = [(cell, 0) for cell in grid.cells() if cell not in ended]
            assert resume_plan(manifest, ended) == owed, f"cut after round {k}"
