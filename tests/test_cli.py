import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinsearch
from twinsearch.cli import main
from twinsearch.grid import GridCell
from twinsearch.runstore import RunStore
from twinsearch.scheduler import SchedulerPolicy
from twinsearch.tasks import TaskSpec
from twinsearch.trainer import EpochLog, TrialRecord


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
        assert run_cli(tmp_path, "run", "--run-id", "a", *RUN_FLAGS) == 0
        # --jobs is still accepted and has no effect
        assert run_cli(tmp_path, "run", "--run-id", "b", *RUN_FLAGS, "--jobs", "3") == 0
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
        ],
        ids=lambda flags: flags[0],
    )
    def test_rejected_flags_exit_1_before_the_run_exists(self, tmp_path, capsys, flags):
        assert run_cli(tmp_path, "run", "--run-id", "bad", *RUN_FLAGS, *flags) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not (tmp_path / "runs" / "bad").exists()

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


class TestSelect:
    def test_online_offline_equivalence(self, tmp_path):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        online = artifact(tmp_path, "r", "selection.json").read_bytes()
        assert run_cli(tmp_path, "select", "r") == 0
        offline = artifact(tmp_path, "r", "selection.json").read_bytes()
        assert online == offline

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
            {"grid": grid.to_dict(), "scheduler": SchedulerPolicy("fifo", 2).to_dict(), "task": "external", "seeds": {}},
        )
        losses = [[0.9, 0.5, 0.4], [0.8, 0.2, 0.1], [0.9, 0.6, 0.5]]
        norms = [[3.0, 2.5, 2.0], [2.8, 2.2, 1.8], [3.1, 2.6, 2.1]]
        for r in range(3):
            for c in range(3):
                logs = [
                    EpochLog(epoch, losses[r][c] + (0.1 if epoch == 0 else 0.0), norms[r][c])
                    for epoch in range(2)
                ]
                store.append_trial_line("ext", TrialRecord(GridCell(r, c), logs, "completed"))
        assert run_cli(tmp_path, "select", "ext") == 0
        out = capsys.readouterr().out
        assert "selected cell" in out and "lr=" in out

    def test_incomplete_run_exit_2_lists_cells(self, tmp_path, capsys):
        from twinsearch.grid import build_log_grid

        store = RunStore(tmp_path / "runs")
        grid = build_log_grid(1e-4, 1e-2, 2, 1e-4, 1e-2, 2)
        store.create_run(
            "partial",
            {"grid": grid.to_dict(), "scheduler": SchedulerPolicy("fifo", 5).to_dict(), "task": "external", "seeds": {}},
        )
        store.append_trial_line("partial", TrialRecord(GridCell(0, 0), [EpochLog(0, 1.0, 2.0)]))
        assert run_cli(tmp_path, "select", "partial") == 2
        assert "incomplete" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--lr-stride", "2", "--wd-stride", "2"]], ids=["whole", "strided"])
    def test_a_missing_trial_file_leaves_its_cell_incomplete(self, tmp_path, capsys, flags):
        # the FIFO decision log stops every cell; the cell still has no record
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        (artifact(tmp_path, "r", "trials") / "0_0.jsonl").unlink()
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r", *flags) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: run 'r' has incomplete cells: (0, 0)")
        assert "Traceback" not in captured.out + captured.err

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
            lambda fields: "3",
            lambda fields: json.dumps({**fields, "train_loss": 10**400}),
            lambda fields: json.dumps({**fields, "status": []}),
            lambda fields: json.dumps({**fields, "status": {}}),
        ],
        ids=["number-line", "overflowing-loss", "status-array", "status-object"],
    )
    def test_malformed_trial_line_is_a_storage_error(self, tmp_path, capsys, fault):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        stored = artifact(tmp_path, "r", "selection.json").read_bytes()
        path = artifact(tmp_path, "r", "trials") / "0_0.jsonl"
        first, rest = path.read_text().split("\n", 1)
        path.write_text(fault(json.loads(first)) + "\n" + rest)
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r") == 3
        assert f"{path}: line 1: " in capsys.readouterr().err
        assert artifact(tmp_path, "r", "selection.json").read_bytes() == stored

    @pytest.mark.parametrize("beside", [True, False], ids=["beside-0_1", "instead-of-0_1"])
    def test_a_stray_trial_file_is_a_storage_error(self, tmp_path, capsys, beside):
        # 00_1.jsonl reads as cell (0, 1): shadowed by 0_1.jsonl, or in its place
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        stored = artifact(tmp_path, "r", "selection.json").read_bytes()
        trials = artifact(tmp_path, "r", "trials")
        stray = trials / "00_1.jsonl"
        if beside:
            stray.write_bytes((trials / "0_0.jsonl").read_bytes().replace(b'"row":0,"col":0', b'"row":0,"col":1'))
        else:
            (trials / "0_1.jsonl").rename(stray)
        capsys.readouterr()
        assert run_cli(tmp_path, "select", "r") == 3
        assert capsys.readouterr().err.startswith(f"storage error: {stray}: not a trial file name")
        assert artifact(tmp_path, "r", "selection.json").read_bytes() == stored

    @pytest.mark.parametrize(
        "name, fault",
        [
            ("manifest.json", lambda text: without(text, "scheduler")),
            ("manifest.json", lambda text: without(text, "grid")),
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "grid": "x"})),
            ("manifest.json", lambda text: "[1]"),
            ("manifest.json", lambda text: "{bad"),
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "grid": {}})),
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "scheduler": {}})),
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "scheduler": {"kind": "hb"}})),
            ("manifest.json", lambda text: with_field(text, "grid", "lr_values", 5)),
            ("manifest.json", lambda text: with_field(text, "grid", "wd_values", "abc")),
            ("manifest.json", lambda text: with_field(text, "scheduler", "kind", "asha")),
            ("manifest.json", lambda text: with_field(text, "scheduler", "epoch_budget", "4")),
            ("manifest.json", lambda text: with_field(text, "scheduler", "epoch_budget", True)),
            ("manifest.json", lambda text: with_field(text, "scheduler", "epoch_budget", 1.5)),
            ("manifest.json", lambda text: with_field(text, "grid", "lr_bounds", [])),
            (
                "manifest.json",
                lambda text: with_field(with_field(text, "scheduler", "kind", "hb"), "scheduler", "stop_fraction", True),
            ),
        ],
        ids=[
            "no-scheduler", "no-grid", "grid-string", "manifest-array", "manifest-not-json",
            "grid-empty", "scheduler-empty", "scheduler-no-budget",
            "lr-values-number", "wd-values-string", "kind-asha", "budget-string",
            "budget-bool", "budget-fraction",
            "lr-bounds-empty", "hb-stop-fraction-bool",
        ],
    )
    def test_malformed_manifest_is_a_storage_error(self, tmp_path, capsys, name, fault):
        assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS) == 0
        stored = artifact(tmp_path, "r", "selection.json").read_bytes()
        path = artifact(tmp_path, "r", name)
        path.write_text(fault(path.read_text()))
        capsys.readouterr()
        for command in ("select", "baseline"):
            assert run_cli(tmp_path, command, "r") == 3
            captured = capsys.readouterr()
            assert captured.err.startswith(f"storage error: {path}: ")
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
        "name, fault",
        [
            ("selection.json", lambda doc: {**doc, "selection": {**doc["selection"], "cell": None}}),
            ("selection.json", lambda doc: {**doc, "selection": {"cell": {"row": 0}}}),
            ("selection.json", lambda doc: {**doc, "selection": {**doc["selection"], "region_id": "1"}}),
            ("selection.json", lambda doc: {k: v for k, v in doc.items() if k != "labels"}),
            ("selection.json", lambda doc: {**doc, "labels": doc["labels"][:-1]}),
            ("selection.json", lambda doc: {**doc, "shape": [5]}),
            ("selection.json", lambda doc: {**doc, "shape": [1, 25]}),
            ("selection.json", lambda doc: [doc]),
            ("selection.json", None),
            ("matrices.json", lambda doc: {k: v for k, v in doc.items() if k != "psi"}),
            ("matrices.json", lambda doc: {**doc, "theta": doc["theta"] + [1.0]}),
            ("matrices.json", lambda doc: {**doc, "psi": ["x"] * len(doc["psi"])}),
            ("matrices.json", lambda doc: {**doc, "shape": [5, "5"]}),
            ("matrices.json", None),
        ],
        ids=[
            "selection-no-cell", "selection-no-col", "selection-region-string", "selection-no-labels",
            "selection-short-labels", "selection-one-axis", "selection-not-the-grid", "selection-array",
            "selection-truncated",
            "matrices-no-psi", "matrices-long-theta", "matrices-bad-float", "matrices-string-axis",
            "matrices-truncated",
        ],
    )
    def test_malformed_artifact_is_a_storage_error(self, completed_run, tmp_path, capsys, name, fault):
        path = artifact(completed_run, "r", name)
        text = path.read_text()
        # None: the file is cut in half, as by a crash while writing it
        path.write_text(text[: len(text) // 2] if fault is None else json.dumps(fault(json.loads(text))))
        out = tmp_path / "x.svg"
        capsys.readouterr()
        assert run_cli(completed_run, "plot", "r", "--target", "labels", "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"storage error: {path}: ")
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

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
def test_commands_on_a_stored_run_parse_no_file(tmp_path, monkeypatch, scheduler):
    # every record comes from the records snapshot that run writes; no trial file
    # is parsed, and the decision log is not read
    assert run_cli(tmp_path, "run", "--run-id", "r", *RUN_FLAGS, "--scheduler", scheduler) == 0
    parse = RunStore._read_jsonl
    parsed = []

    def recorded(self, path, cell, data):
        parsed.append(os.path.basename(path))
        return parse(self, path, cell, data)

    monkeypatch.setattr(RunStore, "_read_jsonl", recorded)
    for command in (
        ["select", "r"],
        ["baseline", "r", "--methods", "selts,selvs,oracle", "--allow-test-metrics"],
        ["eval", "r", "--allow-test-metrics"],
        ["plot", "r", "--target", "psi", "--out", str(tmp_path / "psi.svg")],
    ):
        parsed.clear()
        assert run_cli(tmp_path, *command) == 0
        assert parsed == []
