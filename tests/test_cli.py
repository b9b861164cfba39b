import json
import os
import shutil
import subprocess
import sys
import zlib
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import twinsearch
from twinsearch import cli
from twinsearch.cli import main
from twinsearch.grid import GridCell
from twinsearch.matrices import build_metric_surfaces
from twinsearch.quickshift import QuickshiftParams, default_params
from twinsearch.records import Records
from twinsearch.runstore import RunStore
from twinsearch.scheduler import SchedulerPolicy
from twinsearch.selector import twin_pipeline
from twinsearch.tasks import TaskSpec
from twinsearch.trainer import EpochLog, TrialRecord
from records_frozen import reference_assemble, reference_slice_records, trial_records


RUN_FLAGS = [
    "--n-lr", "5", "--n-wd", "5",
    "--epochs", "8", "--batch-size", "32",
    "--hidden", "12",
    "--n-train", "80", "--n-val", "16", "--n-test", "300",
    "--input-dim", "6", "--n-classes", "2", "--class-sep", "3.0", "--label-noise", "0.0",
]


def run_cli(tmp_path, *args):
    return main(["--store-root", str(tmp_path / "runs"), *args])


def artifact(tmp_path, run_id, name):
    return tmp_path / "runs" / run_id / name


class TestRun:
    def test_smoke_writes_all_artifacts(self, tmp_path, capsys):
        code = run_cli(tmp_path, "run", "--run-id", "demo", *RUN_FLAGS)
        assert code == 0
        for name in ("manifest.json", "matrices.json", "selection.json", "decisions.jsonl"):
            assert artifact(tmp_path, "demo", name).exists()
        out = capsys.readouterr().out
        assert "selected cell" in out
        doc = json.loads(artifact(tmp_path, "demo", "selection.json").read_text())
        cell = doc["selection"]["cell"]
        assert 0 <= cell["row"] < 5 and 0 <= cell["col"] < 5

    def test_same_seed_reruns_identical_artifacts(self, tmp_path):
        # 72 cells, over one stack slice: --jobs 3 trains them in up to two processes,
        # and changes no byte
        wide = [*RUN_FLAGS, "--n-lr", "9", "--n-wd", "8"]
        assert run_cli(tmp_path, "run", "--run-id", "a", *wide, "--jobs", "1") == 0
        assert run_cli(tmp_path, "run", "--run-id", "b", *wide, "--jobs", "3") == 0
        for name in ("records.json", "matrices.json", "selection.json"):
            a = artifact(tmp_path, "a", name).read_bytes()
            b = artifact(tmp_path, "b", name).read_bytes()
            assert a == b

    def test_hb_decision_log_alive_counts(self, tmp_path):
        code = run_cli(
            tmp_path,
            "run",
            "--run-id", "hb",
            "--scheduler", "hb", "--stop-fraction", "0.25", "--eta", "2", "--grace", "0.05",
            "--n-lr", "10", "--n-wd", "10",
            "--epochs", "20", "--hidden", "8",
            "--n-train", "60", "--n-val", "0", "--n-test", "100",
            "--input-dim", "4", "--n-classes", "2", "--class-sep", "4.0", "--label-noise", "0.0",
        )
        assert code == 0
        lines = [
            json.loads(l)
            for l in artifact(tmp_path, "hb", "decisions.jsonl").read_text().splitlines()
        ]
        by_rung = {}
        for d in lines:
            if d["rung"] is not None:
                by_rung.setdefault(d["rung"], []).append(d["decision"])
        # ladder for T=20, grace 5%: [1, 2, 4, ...]; halvings at 1 and 2
        assert len(by_rung[1]) == 100
        assert by_rung[1].count("continue") == 50
        assert len(by_rung[2]) == 50
        assert by_rung[2].count("continue") == 25

    def test_usage_error_exit_code(self, tmp_path, capsys):
        code = run_cli(tmp_path, "run", "--run-id", "bad", "--lr-low", "-1.0", *RUN_FLAGS)
        assert code == 1
        assert "lr_low" in capsys.readouterr().err

    def test_unknown_flag_exit_code(self, tmp_path):
        assert run_cli(tmp_path, "run", "--run-id", "x", "--bogus", "1") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            # segmentation parameters belong to select; run always uses the defaults
            ["--kernel-size", "5"],
            ["--max-dist", "5"],
            ["--ratio", "20"],
            ["--n-val", "-1"],
            ["--n-test", "-1"],
            ["--task-seed", "-1"],
            ["--init-seed", "-1"],
            ["--class-sep", "inf"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_rejected_flags_exit_1_before_the_run_exists(self, tmp_path, capsys, flags):
        assert run_cli(tmp_path, "run", "--run-id", "bad", *RUN_FLAGS, *flags) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "runs" / "bad").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_or_not_an_integer_exit_1(self, tmp_path, capsys, jobs):
        assert run_cli(tmp_path, "run", "--run-id", "bad", *RUN_FLAGS, "--jobs", jobs) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --jobs: ")
        assert not (tmp_path / "runs" / "bad").exists()

    def test_jobs_defaults_to_the_usable_cpus(self):
        args = cli._build_parser().parse_args(["run", "--run-id", "r"])
        assert args.jobs == len(os.sched_getaffinity(0))

    def test_task_is_built_once(self, tmp_path, monkeypatch):
        built = []
        make = TaskSpec.make

        def counting_make(spec):
            built.append(spec)
            return make(spec)

        monkeypatch.setattr(TaskSpec, "make", counting_make)
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        assert len(built) == 1

    def test_duplicate_run_id_is_storage_error(self, tmp_path):
        assert run_cli(tmp_path, "run", "--run-id", "dup", *RUN_FLAGS) == 0
        assert run_cli(tmp_path, "run", "--run-id", "dup", *RUN_FLAGS) == 3


def tree(path):
    return sorted(p.relative_to(path) for p in path.rglob("*"))


@pytest.mark.parametrize("command", ["run", "select"])
@pytest.mark.parametrize("run_id", ["", ".", "..", "../esc", "a/b", "ABSOLUTE"])
def test_run_id_outside_the_store_root_is_a_storage_error(tmp_path, capsys, command, run_id):
    if run_id == "ABSOLUTE":
        run_id = str(tmp_path / "esc")
    (tmp_path / "runs").mkdir()
    before = tree(tmp_path)
    args = ["run", "--run-id", run_id, *RUN_FLAGS] if command == "run" else ["select", run_id]
    assert run_cli(tmp_path, *args) == 3
    assert capsys.readouterr().err.startswith(f"storage error: run id {run_id!r} must name one directory")
    assert tree(tmp_path) == before


def without(manifest_text, key):
    """The manifest's JSON text with ``key`` removed."""
    doc = json.loads(manifest_text)
    del doc[key]
    return json.dumps(doc)


def with_field(manifest_text, key, field, value):
    """The manifest's JSON text with ``doc[key][field]`` set to ``value``."""
    doc = json.loads(manifest_text)
    doc[key][field] = value
    return json.dumps(doc)


def with_item(manifest_text, key, field, index, value):
    """The manifest's JSON text with ``doc[key][field][index]`` set to ``value``."""
    doc = json.loads(manifest_text)
    doc[key][field][index] = value
    return json.dumps(doc)


def reseal(path, fault):
    """Rewrite the ``records.json`` at ``path`` with ``fault`` applied to its second line, an
    object whose text it returns, and the body CRC on its first line made to match again."""
    _, line, rest = path.read_bytes().split(b"\n", 2)
    body = (fault(json.loads(line)) + "\n").encode() + rest
    path.write_bytes(b'{"format":2,"body_crc32":%d}\n' % zlib.crc32(body) + body)


class TestSelect:
    def test_online_offline_equivalence(self, tmp_path):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        online = artifact(tmp_path, "r", "selection.json").read_bytes()
        assert run_cli(tmp_path, "select", "r") == 0
        offline = artifact(tmp_path, "r", "selection.json").read_bytes()
        assert online == offline

    def test_a_bare_select_takes_every_parameter_from_default_params(self, tmp_path, monkeypatch):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        params = QuickshiftParams(kernel_size=2.0, max_dist=3.0, ratio=20.0)
        monkeypatch.setattr(cli, "default_params", lambda grid: params)
        assert run_cli(tmp_path, "select", "r") == 0
        stored = json.loads(artifact(tmp_path, "r", "selection.json").read_text())
        assert stored["quickshift_params"] == asdict(params)

    def test_reselect_is_idempotent(self, tmp_path):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        assert run_cli(tmp_path, "select", "r") == 0
        first = artifact(tmp_path, "r", "selection.json").read_bytes()
        assert run_cli(tmp_path, "select", "r") == 0
        assert artifact(tmp_path, "r", "selection.json").read_bytes() == first

    def test_unchanged_artifacts_are_not_rewritten(self, tmp_path, capsys):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        names = ("matrices.json", "selection.json")

        def stamps():
            return {
                name: (st.st_ino, st.st_mtime_ns, st.st_size)
                for name in names
                for st in [artifact(tmp_path, "r", name).stat()]
            }

        before = stamps()
        for _ in range(2):
            assert run_cli(tmp_path, "select", "r") == 0
            assert stamps() == before
        plain = artifact(tmp_path, "r", "selection.json").read_bytes()
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r", "--ratio", "20") == 0
        assert int(capsys.readouterr().out.rsplit("regions=", 1)[1].split()[0]) > 1
        assert artifact(tmp_path, "r", "selection.json").read_bytes() != plain
        after = stamps()
        assert after["selection.json"] != before["selection.json"]
        assert not list((tmp_path / "runs" / "r").glob("*.tmp"))

    def test_external_fixture_run(self, tmp_path, capsys):
        # hand-authored 3x3 run: no trainer involved
        from twinsearch.grid import build_log_grid

        store = RunStore(tmp_path / "runs")
        grid = build_log_grid(1e-4, 1e-2, 3, 1e-4, 1e-2, 3)
        store.create_run(
            "ext",
            {"grid": asdict(grid), "scheduler": asdict(SchedulerPolicy("fifo", 2)), "task": "external"},
        )
        losses = [[0.9, 0.5, 0.4], [0.8, 0.2, 0.1], [0.9, 0.6, 0.5]]
        norms = [[3.0, 2.5, 2.0], [2.8, 2.2, 1.8], [3.1, 2.6, 2.1]]
        records = [
            TrialRecord(
                GridCell(r, c),
                [EpochLog(epoch, losses[r][c] + (0.1 if epoch == 0 else 0.0), norms[r][c]) for epoch in range(2)],
                "completed",
            )
            for r in range(3)
            for c in range(3)
        ]
        store.write_records("ext", Records.of(records))
        assert run_cli(tmp_path, "select", "ext") == 0
        out = capsys.readouterr().out
        assert "selected cell" in out and "lr=" in out

    def test_incomplete_run_exit_2_lists_cells(self, tmp_path, capsys):
        from twinsearch.grid import build_log_grid

        store = RunStore(tmp_path / "runs")
        grid = build_log_grid(1e-4, 1e-2, 2, 1e-4, 1e-2, 2)
        store.create_run(
            "partial",
            {"grid": asdict(grid), "scheduler": asdict(SchedulerPolicy("fifo", 5)), "task": "external"},
        )
        store.write_records("partial", Records.of([TrialRecord(GridCell(0, 0), [EpochLog(0, 1.0, 2.0)])]))
        assert run_cli(tmp_path, "select", "partial") == 2
        assert "incomplete" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--lr-stride", "2", "--wd-stride", "2"]], ids=["whole", "strided"])
    def test_a_cell_missing_from_the_records_is_incomplete(self, tmp_path, capsys, flags):
        # its trial file and the FIFO decision log's stop for it are still there
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        store = RunStore(tmp_path / "runs")
        records = trial_records(store.load_run("r")[2])
        store.write_records("r", Records.of(rec for cell, rec in records.items() if cell != (0, 0)))
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r", *flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: run 'r' has incomplete cells: (0, 0)")
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "status, epochs, code",
        [
            ("running", 2, 2),  # short of the budget: still owed epochs
            ("running", 3, 0),  # ran the whole budget
            ("stopped_early", 1, 0),
            ("diverged", 1, 0),
        ],
    )
    def test_a_cell_is_complete_when_its_record_ended_or_ran_the_budget(
        self, tmp_path, capsys, status, epochs, code
    ):
        from twinsearch.grid import build_log_grid

        store = RunStore(tmp_path / "runs")
        grid = build_log_grid(1e-4, 1e-2, 2, 1e-4, 1e-2, 2)
        policy = SchedulerPolicy("hb", 3, stop_fraction=0.5)
        store.create_run("r", {"grid": asdict(grid), "scheduler": asdict(policy), "task": "external"})
        records = [
            TrialRecord(cell, [EpochLog(e, 1.0 + 0.1 * cell.row + 0.01 * cell.col, 2.0) for e in range(3)], "completed")
            for cell in grid.cells()
        ]
        records[2] = TrialRecord(GridCell(1, 0), records[2].epochs[:epochs], status)
        store.write_records("r", Records.of(records))
        assert run_cli(tmp_path, "select", "r") == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.err == "error: run 'r' has incomplete cells: (1, 0)\n"
        else:
            assert captured.err == "" and captured.out.startswith("run r: selected cell")

    def test_a_run_without_records_exits_2_and_keeps_the_pick(self, tmp_path, capsys):
        # its trial files are all there, but no command reads them
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        stored = artifact(tmp_path, "r", "selection.json").read_bytes()
        path = artifact(tmp_path, "r", "records.json")
        path.unlink()
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r") == 2
        assert capsys.readouterr().err == f"error: run 'r' has no records at {path}\n"
        assert artifact(tmp_path, "r", "selection.json").read_bytes() == stored

    def test_quickshift_overrides_change_segmentation(self, tmp_path, capsys):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        assert run_cli(tmp_path, "select", "r") == 0
        default_out = capsys.readouterr().out
        assert run_cli(tmp_path, "select", "r", "--kernel-size", "5", "--max-dist", "5") == 0
        large_out = capsys.readouterr().out
        def regions(s):
            return int(s.rsplit("regions=", 1)[1].split()[0])
        assert regions(large_out) <= regions(default_out)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lr-stride", "0"],
            ["--wd-stride", "5"],  # fewer than 2 grid points left
            ["--kernel-size", "0"],
            ["--kernel-size", "1e-300"],
            ["--kernel-size", "inf"],
            ["--max-dist", "-1"],
            ["--ratio", "-1"],
            ["--ratio", "nan"],
            ["--ratio", "inf"],
            ["--ratio", "1e200"],  # its square overflows
        ],
        ids=lambda flags: "=".join(flags),
    )
    def test_bad_flags_are_usage_errors_and_keep_the_pick(self, tmp_path, capsys, flags):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        stored = artifact(tmp_path, "r", "selection.json").read_bytes()
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r", *flags) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert artifact(tmp_path, "r", "selection.json").read_bytes() == stored

    @pytest.mark.parametrize(
        "fault",
        [
            lambda line: "3",
            lambda line: json.dumps({**line, "train_loss": [10**400, *line["train_loss"][1:]]}),
            lambda line: json.dumps({**line, "status": [[], *line["status"][1:]]}),
            lambda line: json.dumps({**line, "status": [{}, *line["status"][1:]]}),
            # cell (0, 1) once more, as the first trial
            lambda line: json.dumps({**line, "row": [0, *line["row"][1:]], "col": [1, *line["col"][1:]]}),
            # cell (0, 5), outside the 5x5 grid, in place of (0, 0)
            lambda line: json.dumps({**line, "col": [5, *line["col"][1:]]}),
        ],
        ids=["number-line", "overflowing-loss", "status-array", "status-object", "cell-twice", "cell-outside"],
    )
    def test_malformed_records_line_is_a_storage_error(self, tmp_path, capsys, fault):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        stored = artifact(tmp_path, "r", "selection.json").read_bytes()
        path = artifact(tmp_path, "r", "records.json")
        reseal(path, fault)
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r") == 3
        assert capsys.readouterr().err.startswith(f"storage error: {path}: line 2: ")
        assert artifact(tmp_path, "r", "selection.json").read_bytes() == stored

    @pytest.mark.parametrize(
        "name, fault, detail",
        [
            ("manifest.json", lambda text: without(text, "scheduler"), None),
            ("manifest.json", lambda text: without(text, "grid"), None),
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "grid": "x"}), None),
            ("manifest.json", lambda text: "[1]", None),
            ("manifest.json", lambda text: "{bad", None),
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "grid": {}}), None),
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "scheduler": {}}), None),
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "scheduler": {"kind": "hb"}}), None),
            ("manifest.json", lambda text: with_field(text, "grid", "lr_values", 5), None),
            ("manifest.json", lambda text: with_field(text, "grid", "wd_values", "abc"), None),
            ("manifest.json", lambda text: with_field(text, "scheduler", "kind", "asha"), None),
            ("manifest.json", lambda text: with_field(text, "scheduler", "epoch_budget", "4"), None),
            ("manifest.json", lambda text: with_field(text, "scheduler", "epoch_budget", True), None),
            ("manifest.json", lambda text: with_field(text, "scheduler", "epoch_budget", 1.5), None),
            ("manifest.json", lambda text: with_field(text, "grid", "lr_values", [1e-3] * 5), None),
            ("manifest.json", lambda text: with_field(text, "grid", "lr_values", [True, 10.0]), None),
            ("manifest.json", lambda text: with_field(text, "grid", "wd_values", [0.1, True]), None),
            (
                "manifest.json",
                lambda text: with_field(with_field(text, "scheduler", "kind", "hb"), "scheduler", "stop_fraction", True),
                None,
            ),
            ("manifest.json", lambda text: with_field(text, "grid", "lr_values", [0.0, 1.0]), None),
            # 1e309 is past the float range, so JSON loads it as inf
            (
                "manifest.json",
                lambda text: with_field(text, "grid", "wd_values", "W").replace('"W"', "[1.0, 1e309]"),
                None,
            ),
            # an integer past the float range stays an int in JSON: the grid refuses it, not numpy
            (
                "manifest.json",
                lambda text: with_item(text, "grid", "lr_values", 1, 10**400),
                "manifest field 'grid': lr values must be finite and positive",
            ),
        ],
        ids=[
            "no-scheduler", "no-grid", "grid-string", "manifest-array", "manifest-not-json",
            "grid-empty", "scheduler-empty", "scheduler-no-budget",
            "lr-values-number", "wd-values-string", "kind-asha", "budget-string",
            "budget-bool", "budget-fraction",
            "lr-values-flat", "lr-values-bool", "wd-values-bool", "hb-stop-fraction-bool",
            "lr-values-zero", "wd-values-inf", "lr-value-past-float-range",
        ],
    )
    def test_malformed_manifest_is_a_storage_error(self, tmp_path, capsys, name, fault, detail):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        stored = artifact(tmp_path, "r", "selection.json").read_bytes()
        path = artifact(tmp_path, "r", name)
        path.write_text(fault(path.read_text()))
        capsys.readouterr()
        for command in ("select", "baseline"):
            assert run_cli(tmp_path, command, "r") == 3
            captured = capsys.readouterr()
            if detail is None:
                assert captured.err.startswith(f"storage error: {path}: ")
            else:
                assert captured.err == f"storage error: {path}: {detail}\n"
            assert "Traceback" not in captured.out + captured.err
        assert artifact(tmp_path, "r", "selection.json").read_bytes() == stored
        assert not artifact(tmp_path, "r", "baselines.json").exists()

    @pytest.mark.parametrize(
        "fault",
        [
            lambda path: path.write_text(path.read_text() + "3\n"),
            lambda path: path.write_text(path.read_text() + '{"decision": "stop"}\n'),
            lambda path: path.unlink(),
        ],
        ids=["decision-number", "stop-without-cell", "missing"],
    )
    def test_no_command_reads_the_decision_log(self, tmp_path, capsys, fault):
        # the trial files say which trials ended; the log is provenance only
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        stored = artifact(tmp_path, "r", "selection.json").read_bytes()
        fault(artifact(tmp_path, "r", "decisions.jsonl"))
        capsys.readouterr()
        for command in ("select", "baseline"):
            assert run_cli(tmp_path, command, "r") == 0
        assert capsys.readouterr().err == ""
        assert artifact(tmp_path, "r", "selection.json").read_bytes() == stored

    def test_strided_select_prints_a_pick_and_stores_nothing(self, tmp_path, capsys):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        names = ("matrices.json", "selection.json")
        stored = {name: artifact(tmp_path, "r", name).read_bytes() for name in names}
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r", "--lr-stride", "2", "--wd-stride", "2", "--ratio", "20") == 0
        out = capsys.readouterr().out
        row, col = (int(v) for v in out.split("selected cell (", 1)[1].split(")", 1)[0].split(", "))
        assert 0 <= row < 3 and 0 <= col < 3  # cells of the 3x3 sub-grid
        assert {name: artifact(tmp_path, "r", name).read_bytes() for name in names} == stored

    @pytest.mark.parametrize(
        "run_flags, ratio",
        [
            (["--scheduler", "hb", "--stop-fraction", "0.5"], None),  # trials stopped at one epoch
            (["--n-lr", "9", "--n-wd", "7", "--lr-high", "1e6", "--wd-high", "50"], 20.0),  # a trial diverges
        ],
        ids=["hb", "fifo-diverging"],
    )
    def test_strided_select_prints_the_pick_of_the_frozen_reference(self, tmp_path, capsys, run_flags, ratio):
        # a strided select stores nothing, so its printed cell and region count are all it gives
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS, *run_flags) == 0
        grid, _, records = RunStore(tmp_path / "runs").load_run("r")
        sub_records, sub_grid = reference_slice_records(trial_records(records), grid, 2, 2)
        params = default_params(sub_grid)
        params = params if ratio is None else replace(params, ratio=ratio)
        expected = twin_pipeline(reference_assemble(sub_records, sub_grid), sub_grid, params)
        sel = expected.selection
        capsys.readouterr()
        flags = [] if ratio is None else ["--ratio", str(ratio)]
        assert run_cli(tmp_path, "select", "r", "--lr-stride", "2", "--wd-stride", "2", *flags) == 0
        assert capsys.readouterr().out == (
            f"run r: selected cell ({sel.cell.row}, {sel.cell.col}) lr={sel.lr:g} wd={sel.wd:g} "
            f"region={sel.region_id} regions={expected.segments.n_regions}\n"
        )

    def test_whole_grid_select_writes_only_the_pick(self, tmp_path):
        # the matrices do not depend on the segmentation parameters
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        artifact(tmp_path, "r", "matrices.json").unlink()
        assert run_cli(tmp_path, "select", "r", "--ratio", "20") == 0
        assert artifact(tmp_path, "r", "selection.json").exists()
        assert not artifact(tmp_path, "r", "matrices.json").exists()

    def test_select_with_infinite_max_dist(self, tmp_path, capsys):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        assert run_cli(tmp_path, "select", "r", "--max-dist", "inf", "--ratio", "20") == 0
        assert "regions=" in capsys.readouterr().out
        doc = json.loads(artifact(tmp_path, "r", "selection.json").read_text())
        assert doc["quickshift_params"]["max_dist"] == "Inf"


class TestBaselineAndEval:
    def test_baseline_requires_flag_for_oracle(self, tmp_path, capsys):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        code = run_cli(tmp_path, "baseline", "r", "--methods", "oracle")
        assert code == 1
        assert "allow-test-metrics" in capsys.readouterr().err

    def test_baseline_selts_selvs_without_flag(self, tmp_path):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        assert run_cli(tmp_path, "baseline", "r", "--methods", "selts,selvs") == 0
        doc = json.loads(artifact(tmp_path, "r", "baselines.json").read_text())
        assert [s["method"] for s in doc["selections"]] == ["selts", "selvs"]

    def test_eval_writes_report(self, tmp_path):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        assert run_cli(tmp_path, "eval", "r", "--allow-test-metrics") == 0
        doc = json.loads(artifact(tmp_path, "r", "eval_report.json").read_text())
        assert "oracle" in doc["mae"]
        assert doc["mae"]["oracle"] == 0.0
        assert all(v >= 0 for v in doc["mae"].values())

    def test_eval_reports_the_stored_pick(self, tmp_path):
        # these flags move the pick of the run off the one at the default parameters
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        default = json.loads(artifact(tmp_path, "r", "selection.json").read_text())["selection"]["cell"]
        assert run_cli(tmp_path, "select", "r", "--max-dist", "1.5", "--ratio", "20") == 0
        cell = json.loads(artifact(tmp_path, "r", "selection.json").read_text())["selection"]["cell"]
        assert cell != default
        assert run_cli(tmp_path, "eval", "r", "--allow-test-metrics") == 0
        report = json.loads(artifact(tmp_path, "r", "eval_report.json").read_text())
        grid, _, records = RunStore(tmp_path / "runs").load_run("r")
        test_acc = build_metric_surfaces(records, grid, "fifo").test_acc
        assert report["per_config_metric"][0]["twin"] == test_acc[cell["row"], cell["col"]]

    def test_eval_over_two_runs_reports_each_run_and_their_mean(self, tmp_path):
        for run_id, seed in (("a", "0"), ("b", "1")):
            assert run_cli(tmp_path, "run", "--run-id", run_id, *RUN_FLAGS, "--task-seed", seed) == 0

        def report(*run_ids):  # written into the first run's directory
            assert run_cli(tmp_path, "eval", *run_ids, "--allow-test-metrics") == 0
            return json.loads(artifact(tmp_path, run_ids[0], "eval_report.json").read_text())

        one_a, one_b, both = report("a"), report("b"), report("a", "b")
        for key in ("per_config_metric", "per_config_error"):
            assert both[key] == one_a[key] + one_b[key]
        assert both["mae"].keys() == one_a["mae"].keys() == one_b["mae"].keys()
        for method, mae in both["mae"].items():
            assert mae == (one_a["mae"][method] + one_b["mae"][method]) / 2, method

    def test_eval_without_a_stored_pick_exits_2(self, tmp_path, capsys):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        path = artifact(tmp_path, "r", "selection.json")
        path.unlink()
        capsys.readouterr()
        assert run_cli(tmp_path, "eval", "r", "--allow-test-metrics") == 2
        assert capsys.readouterr().err == f"error: missing artifact: {path}\n"
        assert not artifact(tmp_path, "r", "eval_report.json").exists()

    def test_eval_without_flag_is_usage_error(self, tmp_path):
        assert run_cli(tmp_path, "eval", "whatever") == 1

    @pytest.mark.parametrize("run_ids", [("r", "r"), ("s", "r", "s")])
    def test_eval_naming_a_run_twice_is_a_usage_error_and_writes_no_report(
        self, tmp_path, capsys, run_ids
    ):
        # counting a run once per mention would re-weight the MAE
        for run_id in ("r", "s"):
            assert run_cli(tmp_path, "run", "--run-id", run_id, *RUN_FLAGS) == 0
        capsys.readouterr()
        assert run_cli(tmp_path, "eval", *run_ids, "--allow-test-metrics") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: eval names a run twice")
        assert captured.out == ""
        for run_id in ("r", "s"):
            assert not artifact(tmp_path, run_id, "eval_report.json").exists()

    @pytest.mark.parametrize("methods", [",", " , ", "selts,selts", "selts, selvs,selts"])
    def test_empty_or_repeated_methods_are_usage_errors_and_keep_the_baselines(
        self, tmp_path, capsys, methods
    ):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        assert run_cli(tmp_path, "baseline", "r", "--methods", "selts,selvs") == 0
        stored = artifact(tmp_path, "r", "baselines.json").read_bytes()
        capsys.readouterr()
        assert run_cli(tmp_path, "baseline", "r", "--methods", methods) == 1
        assert capsys.readouterr().err.startswith("usage error: --methods names")
        assert artifact(tmp_path, "r", "baselines.json").read_bytes() == stored


def moved(doc, region_id=None, **cell):
    """``selection.json``'s ``doc`` with the picked cell's fields replaced by ``cell``, and
    its region id by ``region_id`` if given."""
    sel = {**doc["selection"], "cell": {**doc["selection"]["cell"], **cell}}
    if region_id is not None:
        sel["region_id"] = region_id
    return {**doc, "selection": sel}


class TestPlot:
    @pytest.fixture()
    def completed_run(self, tmp_path):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        return tmp_path

    @pytest.mark.parametrize("target", ["psi", "theta", "labels", "norm-vs-test"])
    def test_targets_render(self, completed_run, target, tmp_path):
        out = tmp_path / f"{target}.svg"
        assert run_cli(completed_run, "plot", "r", "--target", target, "--out", str(out)) == 0
        text = out.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_psi_heatmap_has_grid_cells_and_ticks(self, completed_run, tmp_path):
        out = tmp_path / "psi.svg"
        run_cli(completed_run, "plot", "r", "--target", "psi", "--out", str(out))
        text = out.read_text()
        assert text.count('stroke="#ffffff"') == 25
        assert "5e-5" in text and "5e-1" in text

    def test_plot_byte_stable(self, completed_run, tmp_path):
        out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(completed_run, "plot", "r", "--target", "labels", "--out", str(out_a))
        run_cli(completed_run, "plot", "r", "--target", "labels", "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize(
        "fault",
        [
            lambda doc: {**doc, "selection": {**doc["selection"], "cell": None}},
            lambda doc: {**doc, "selection": {"cell": {"row": 0}}},
            lambda doc: {**doc, "selection": {**doc["selection"], "region_id": "1"}},
            lambda doc: moved(doc, row=doc["shape"][0]),
            lambda doc: moved(doc, row=-1),
            lambda doc: moved(doc, region_id=1 + doc["selection"]["region_id"]),
            # a masked cell, labelled -1, is in no region
            lambda doc: {**moved(doc, region_id=-1, row=0, col=0), "labels": [-1, *doc["labels"][1:]]},
            lambda doc: {k: v for k, v in doc.items() if k != "labels"},
            lambda doc: {**doc, "labels": doc["labels"][:-1]},
            # a label must be a JSON integer of at least -1, not a value that casts to one
            lambda doc: {**doc, "labels": [0.9, *doc["labels"][1:]]},
            lambda doc: {**doc, "labels": [True, *doc["labels"][1:]]},
            lambda doc: {**doc, "labels": ["0", *doc["labels"][1:]]},
            lambda doc: {**doc, "labels": [-2, *doc["labels"][1:]]},
            lambda doc: {**doc, "labels": [2**63, *doc["labels"][1:]]},
            lambda doc: {**doc, "shape": [5]},
            lambda doc: {**doc, "shape": [1, 25]},
            lambda doc: [doc],
            None,
        ],
        ids=[
            "selection-no-cell", "selection-no-col", "selection-region-string",
            "selection-row-past-grid", "selection-row-negative", "selection-off-region", "selection-masked-cell",
            "selection-no-labels", "selection-short-labels",
            "selection-float-label", "selection-bool-label", "selection-string-label",
            "selection-label-below-mask", "selection-label-past-int64",
            "selection-one-axis", "selection-not-the-grid", "selection-array",
            "selection-truncated",
        ],
    )
    def test_malformed_artifact_is_a_storage_error(self, completed_run, tmp_path, capsys, fault):
        path = artifact(completed_run, "r", "selection.json")
        text = path.read_text()
        # None: the file is cut in half, as by a crash while writing it
        path.write_text(text[: len(text) // 2] if fault is None else json.dumps(fault(json.loads(text))))
        out = tmp_path / "x.svg"
        capsys.readouterr()
        for command in (["plot", "r", "--target", "labels", "--out", str(out)], ["eval", "r", "--allow-test-metrics"]):
            assert run_cli(completed_run, *command) == 3
            captured = capsys.readouterr()
            assert captured.err.startswith(f"storage error: {path}: ")
            assert "Traceback" not in captured.out + captured.err
        assert not out.exists()
        assert not artifact(completed_run, "r", "eval_report.json").exists()

    @pytest.mark.parametrize("fault", ["deleted", "truncated"])
    def test_plot_reads_no_matrices(self, completed_run, tmp_path, fault):
        # every target is drawn from records.json and the stored pick alone
        def render():
            svgs = []
            for target in ("psi", "theta", "labels", "norm-vs-test"):
                out = tmp_path / f"{target}.svg"
                assert run_cli(completed_run, "plot", "r", "--target", target, "--out", str(out)) == 0
                svgs.append(out.read_bytes())
            return svgs

        before = render()
        path = artifact(completed_run, "r", "matrices.json")
        if fault == "deleted":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:100])
        assert render() == before

    def test_missing_artifact_exit_2(self, tmp_path):
        assert run_cli(tmp_path, "plot", "ghost", "--target", "psi", "--out", str(tmp_path / "x.svg")) == 2


def test_console_entry_point(tmp_path):
    # the child imports the package this test imported, wherever that is
    package_root = str(Path(twinsearch.__file__).parents[1])
    path = os.pathsep.join([package_root, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "twinsearch.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "select" in proc.stdout


def test_select_imports_no_hashlib(tmp_path):
    # hashlib loads OpenSSL, megabytes of resident memory a select has no use for
    assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
    package_root = str(Path(twinsearch.__file__).parents[1])
    child = (
        "import sys\n"
        f"sys.path.insert(0, {package_root!r})\n"
        "from twinsearch.cli import main\n"
        f"assert main(['--store-root', {str(tmp_path / 'runs')!r}, 'select', 'r']) == 0\n"
        "print(sorted({'hashlib', '_hashlib'} & sys.modules.keys()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("scheduler", ["fifo", "hb"])
def test_commands_read_a_stored_run_from_its_records_alone(tmp_path, scheduler):
    # the trial files and the decision log are exports: with both deleted, every
    # command writes what it wrote with them
    assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS, "--scheduler", scheduler) == 0
    commands = [
        ["select", "r"],
        ["baseline", "r", "--methods", "selts,selvs,oracle", "--allow-test-metrics"],
        ["eval", "r", "--allow-test-metrics"],
        ["plot", "r", "--target", "psi", "--out", str(tmp_path / "psi.svg")],
    ]
    outputs = [artifact(tmp_path, "r", name) for name in ("selection.json", "baselines.json", "eval_report.json")]
    outputs.append(tmp_path / "psi.svg")
    written = []
    for deleted in (False, True):
        if deleted:
            shutil.rmtree(artifact(tmp_path, "r", "trials"))
            artifact(tmp_path, "r", "decisions.jsonl").unlink()
        for command in commands:
            assert run_cli(tmp_path, *command) == 0
        written.append([path.read_bytes() for path in outputs])
        for path in outputs:
            path.unlink()
    assert written[0] == written[1]


def test_each_command_reads_the_manifest_once_per_run(tmp_path, monkeypatch):
    for run_id in ("r", "s"):
        assert run_cli(tmp_path, "run", "--run-id", run_id, *RUN_FLAGS) == 0
    calls = []
    load_manifest = RunStore.load_manifest

    def counted(self, run_id):
        calls.append(run_id)
        return load_manifest(self, run_id)

    monkeypatch.setattr(RunStore, "load_manifest", counted)
    commands = [
        ["select", "r"],
        ["select", "r", "--lr-stride", "2", "--wd-stride", "2"],
        ["baseline", "r", "--methods", "selts,selvs,oracle", "--allow-test-metrics"],
        ["eval", "r", "--allow-test-metrics"],
        ["eval", "r", "s", "--allow-test-metrics"],
        *(["plot", "r", "--target", t, "--out", str(tmp_path / f"{t}.svg")]
          for t in ("psi", "theta", "labels", "norm-vs-test")),
    ]
    for command in commands:
        calls.clear()
        assert run_cli(tmp_path, *command) == 0
        assert calls == [arg for arg in command[1:] if arg in ("r", "s")], command


def test_run_reads_no_manifest(tmp_path, monkeypatch):
    # run writes the manifest and the trial files; it has the grid in hand, so reads none back
    calls = []
    load_manifest = RunStore.load_manifest

    def counted(self, run_id):
        calls.append(run_id)
        return load_manifest(self, run_id)

    monkeypatch.setattr(RunStore, "load_manifest", counted)
    assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
    assert calls == []


def test_a_run_stored_with_the_older_copies_still_loads(tmp_path):
    # manifests once also stored the grid bounds, the epoch budget under "trainer" and a
    # "seeds" object, and selection.json the outlier mask: no command reads those keys, so
    # a run that holds them gives what a run without them gives
    assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
    targets = ("psi", "theta", "labels", "norm-vs-test")
    commands = [["plot", "r", "--target", t, "--out", str(tmp_path / f"{t}.svg")] for t in targets]
    commands += [
        ["eval", "r", "--allow-test-metrics"],
        ["baseline", "r", "--methods", "selts,selvs,oracle", "--allow-test-metrics"],
        ["select", "r"],  # last: it rewrites the stored pick
    ]
    outputs = [tmp_path / f"{t}.svg" for t in targets]
    outputs += [artifact(tmp_path, "r", name) for name in ("eval_report.json", "baselines.json", "selection.json")]
    fresh = {name: artifact(tmp_path, "r", name).read_text() for name in ("manifest.json", "selection.json")}
    written = []
    for older in (False, True):
        if older:
            manifest = json.loads(fresh["manifest.json"])
            grid, trainer = manifest["grid"], manifest["trainer"]
            for axis in ("lr", "wd"):
                grid[f"{axis}_bounds"] = [grid[f"{axis}_values"][0], grid[f"{axis}_values"][-1]]
            manifest["trainer"] = {
                "momentum": trainer["momentum"], "epochs": manifest["scheduler"]["epoch_budget"],
                "batch_size": trainer["batch_size"], "lr_schedule": trainer["lr_schedule"],
            }
            manifest["seeds"] = {"init_seed": trainer["init_seed"], "task_seed": manifest["task"]["seed"]}
            artifact(tmp_path, "r", "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
            selection = json.loads(fresh["selection.json"])
            selection["outlier_mask"] = [label < 0 for label in selection["labels"]]
            artifact(tmp_path, "r", "selection.json").write_text(json.dumps(selection, indent=2) + "\n")
        for command in commands:
            assert run_cli(tmp_path, *command) == 0
        written.append([path.read_bytes() for path in outputs])
        for path in outputs[:-1]:
            path.unlink()
    assert written[0] == written[1]
