"""Smoke tests: the scripts under scripts/ still run against the package API."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twinsearch.quickshift import BLOCK
from twinsearch.trainer import STACK_SLICE

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_selectors_runs_on_a_tiny_setting(capsys):
    script = load_script("compare_selectors")
    argv = ["--seeds", "0", "--n-grid", "3", "--epochs", "3", "--n-test", "50"]
    assert script.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed 0: regions=")
    for method in ("twin", "selts", "selvs"):
        assert f"MAE vs oracle [{method}]" in out


def test_parity_reports_one_tree_identical_to_itself(capsys):
    script = load_script("parity")
    src = SCRIPTS.parent / "src"
    argv = [str(src), str(src), "--recipes", "fifo-grid,hb-valfree", "--seeds", "0"]
    assert script.main([*argv, "--grid", "3", "--epochs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["fifo-grid seed 0", "hb-valfree seed 0"]
    assert all(": identical (" in line for line in out)


def test_parity_compares_a_grid_whose_rows_are_wider_than_a_quickshift_block(capsys):
    script = load_script("parity")
    run_flags, _ = script.RECIPES["select-wide-rows"]
    assert int(run_flags[run_flags.index("--n-lr") + 1]) > BLOCK
    src = str(SCRIPTS.parent / "src")
    assert script.main([src, src, "--recipes", "select-wide-rows", "--seeds", "0"]) == 0
    assert capsys.readouterr().out.startswith("select-wide-rows seed 0: identical (")


def test_parity_jobs_compares_sharded_runs_with_runs_in_one_process(capsys, tmp_path):
    script = load_script("parity")
    (job,) = script.build_jobs(["select-near-eval"], [0], None, None)
    run, *later = job["ops"]
    assert script.with_run_jobs(job["ops"], 1) == [[*run, "--jobs", "1"], *later]
    assert script.with_run_jobs(job["ops"], None) == job["ops"]
    src = str(SCRIPTS.parent / "src")
    # 80 cells: tree A's run, at the default --jobs, trains them in a process per CPU
    argv = [src, src, "--recipes", "hb-deep-ragged", "--seeds", "0", "--jobs", "1"]
    assert script.main([*argv, "--json", str(tmp_path / "parity.json")]) == 0
    assert capsys.readouterr().out.startswith("hb-deep-ragged seed 0: identical (")
    assert json.loads((tmp_path / "parity.json").read_text())["run_jobs_b"] == 1


def test_parity_names_a_changed_and_a_missing_file(tmp_path):
    script = load_script("parity")
    for side in ("a", "b"):
        (tmp_path / side / "trials").mkdir(parents=True)
        (tmp_path / side / "trials" / "0_0.jsonl").write_bytes(b'{"epoch":0}\n')
        (tmp_path / side / "selection.json").write_bytes(b"{}\n")
    (tmp_path / "b" / "trials" / "0_0.jsonl").write_bytes(b'{"epoch":1}\n')
    (tmp_path / "a" / "baselines.json").write_bytes(b"{}\n")
    n_files, problems = script.compare_dirs(tmp_path / "a", tmp_path / "b")
    assert n_files == 3
    assert problems == ["only in A: baselines.json", "differs: trials/0_0.jsonl"]


@pytest.fixture(scope="module")
def altered_src(tmp_path_factory):
    """A copy of the package whose ``baselines.json`` carries one more key."""
    src = tmp_path_factory.mktemp("altered") / "src"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(SCRIPTS.parent / "src" / "twinsearch", src / "twinsearch", ignore=ignore)
    runstore = src / "twinsearch" / "runstore.py"
    old = 'payload = {"selections": '
    assert runstore.read_text().count(old) == 1
    runstore.write_text(runstore.read_text().replace(old, 'payload = {"altered": True, "selections": '))
    return src


@pytest.mark.parametrize("listed, status", [("baselines.json", 0), ("selection.json", 1)])
def test_parity_allows_a_change_only_to_the_listed_files(capsys, altered_src, listed, status):
    script = load_script("parity")
    argv = [str(SCRIPTS.parent / "src"), str(altered_src), "--recipes", "fifo-grid", "--seeds", "0"]
    assert script.main([*argv, "--grid", "3", "--epochs", "3", "--expect-changed", listed]) == status
    out = capsys.readouterr().out.splitlines()
    if status == 0:
        # each expected change names the first key path where it differs
        assert out == [
            "fifo-grid seed 0: identical but for the expected changes (16 files)",
            "  expected: differs: baselines.json: first at $.altered",
        ]
    else:
        assert out == ["fifo-grid seed 0: 1 of 16 files not identical", "  differs: baselines.json"]


@pytest.mark.parametrize(
    "listed, status, fifo_verdict", [("", 1, "differs"), ("baselines.json", 0, "expected")]
)
def test_parity_writes_the_verdict_per_recipe_and_seed_to_json(
    tmp_path, altered_src, listed, status, fifo_verdict
):
    script = load_script("parity")
    src = str(SCRIPTS.parent / "src")
    out = tmp_path / "parity.json"
    argv = [src, str(altered_src), "--recipes", "fifo-grid,hb-valfree", "--seeds", "0"]
    argv += ["--grid", "3", "--epochs", "3", "--expect-changed", listed, "--json", str(out)]
    assert script.main(argv) == status
    table = json.loads(out.read_text())
    assert (table["src_a"], table["src_b"]) == (src, str(altered_src))
    assert table["expect_changed"] == [listed] * bool(listed) and table["failures"] == []
    assert table["jobs"] == [
        {"recipe": "fifo-grid", "seed": 0, "verdict": fifo_verdict, "files": 16,
         "problems": [] if listed else ["differs: baselines.json"],
         "expected": ["differs: baselines.json: first at $.altered"] if listed else []},
        # no baseline command runs in this recipe
        {"recipe": "hb-valfree", "seed": 0, "verdict": "identical", "files": 14,
         "problems": [], "expected": []},
    ]


def test_parity_json_lists_failed_commands(tmp_path):
    script = load_script("parity")
    src = str(SCRIPTS.parent / "src")
    out = tmp_path / "parity.json"
    argv = [src, src, "--recipes", "fifo-grid", "--seeds", "0", "--grid", "0", "--json", str(out)]
    assert script.main(argv) == 2
    table = json.loads(out.read_text())
    assert table["jobs"] == []
    runs = [f for f in table["failures"] if ": run --run-id parity " in f]
    assert [f[:10] for f in runs] == ["A: exit 1:", "B: exit 1:"]
    assert all("n_lr must be >= 2" in f for f in runs)


def test_parity_segmenting_recipes_run_select_with_their_flags(capsys):
    script = load_script("parity")
    src = SCRIPTS.parent / "src"
    recipes = "select-ratio20,select-near,select-maxdist-inf"
    argv = [str(src), str(src), "--recipes", recipes, "--seeds", "0"]
    assert script.main([*argv, "--grid", "3", "--epochs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [f"{r} seed 0" for r in recipes.split(",")]
    assert all(": identical (" in line for line in out)
    selects = [job["ops"][-1] for job in script.build_jobs(recipes.split(","), [0], None, None)]
    assert [op[2:] for op in selects] == [
        ["--ratio", "20"],
        ["--max-dist", "1.5", "--ratio", "20"],
        ["--max-dist", "inf"],
    ]


def test_parity_select_near_eval_recipe_evaluates_after_the_overriding_select():
    script = load_script("parity")
    (job,) = script.build_jobs(["select-near-eval"], [0], None, None)
    run, *later = job["ops"]
    assert run == ["run", "--run-id", script.RUN_ID, *script.SEGMENT_RUN, "--task-seed", "0", "--init-seed", "0"]
    assert later == [["select", script.RUN_ID, "--max-dist", "1.5", "--ratio", "20"], *script.EVAL_OPS]


def test_parity_plot_recipe_compares_the_svg_of_every_target(capsys):
    script = load_script("parity")
    src = str(SCRIPTS.parent / "src")
    argv = [src, src, "--recipes", "fifo-plot", "--seeds", "0", "--grid", "3", "--epochs", "3"]
    assert script.main(argv) == 0
    # the 16 files of fifo-grid's run directory and one SVG for each of the four targets
    assert capsys.readouterr().out.splitlines() == ["fifo-plot seed 0: identical (20 files)"]
    (job,) = script.build_jobs(["fifo-plot"], [0], None, None)
    assert job["ops"][1:] == [*script.EVAL_OPS, *script.PLOT_OPS]
    outs = [op[op.index("--out") + 1] for op in script.PLOT_OPS]
    assert outs == [f"{script.RUN_ID}/{t}.svg" for t in ("psi", "theta", "labels", "norm-vs-test")]


def test_parity_hb_plot_recipe_compares_the_svg_of_every_target_of_an_hb_run(capsys):
    script = load_script("parity")
    src = str(SCRIPTS.parent / "src")
    argv = [src, src, "--recipes", "hb-plot", "--seeds", "0", "--grid", "3", "--epochs", "3"]
    assert script.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["hb-plot seed 0: identical (20 files)"]
    (job,) = script.build_jobs(["hb-plot"], [0], None, None)
    run, *later = job["ops"]
    assert run[run.index("--scheduler") + 1] == "hb"
    assert later == [*script.EVAL_OPS, *script.PLOT_OPS]


def test_parity_schedule_recipes_train_with_their_settings(tmp_path):
    script = load_script("parity")
    src = SCRIPTS.parent / "src"
    jobs = script.build_jobs(["fifo-piecewise", "fifo-constant"], [0], 3, 4)
    assert script.run_tree(src, tmp_path, jobs) == []
    manifests = [
        json.loads((tmp_path / job["store"] / script.RUN_ID / "manifest.json").read_text()) for job in jobs
    ]
    assert [m["trainer"] for m in manifests] == [
        {"momentum": 0.9, "batch_size": 32, "lr_schedule": "piecewise", "init_seed": 0},
        {"momentum": 0.5, "batch_size": 16, "lr_schedule": "constant", "init_seed": 0},
    ]
    assert [m["scheduler"]["epoch_budget"] for m in manifests] == [4, 4]
    for job in jobs:
        assert (tmp_path / job["store"] / script.RUN_ID / "eval_report.json").is_file()


def test_parity_ragged_recipe_trains_two_layers_on_shrinking_stacks(tmp_path):
    script = load_script("parity")
    src = SCRIPTS.parent / "src"
    jobs = script.build_jobs(["hb-deep-ragged"], [0], None, None)
    assert script.run_tree(src, tmp_path, jobs) == []
    run_dir = tmp_path / jobs[0]["store"] / script.RUN_ID
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["arch"] == {"hidden": [32, 16]}
    # 70 examples in batches of 64: each epoch ends on a minibatch of 6
    assert (manifest["task"]["n_train"], manifest["trainer"]["batch_size"]) == (70, 64)
    # 80 trials: the cohort starts in two stack slices
    n_lr, n_wd = len(manifest["grid"]["lr_values"]), len(manifest["grid"]["wd_values"])
    assert (n_lr, n_wd) == (10, 8) and n_lr * n_wd > STACK_SLICE
    budget = manifest["scheduler"]["epoch_budget"]
    decisions = [json.loads(line) for line in (run_dir / "decisions.jsonl").read_text().splitlines()]
    # trials stop at two or more rungs before the budget, so the cohort shrinks more than once
    assert len({d["epoch"] for d in decisions if d["decision"] == "stop" and d["epoch"] < budget}) >= 2
    assert (run_dir / "eval_report.json").is_file()


def test_blas_thread_count_does_not_change_a_run(tmp_path):
    # parity checks and resume both assume a run's bytes do not depend on how
    # many threads BLAS uses; one small HB run under 1 and under 2 threads
    script = load_script("parity")
    src = str(SCRIPTS.parent / "src")
    flags = ["--n-lr", "4", "--n-wd", "4", "--epochs", "6", "--scheduler", "hb", "--stop-fraction", "0.25"]
    procs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        argv = ["--store-root", str(tmp_path / threads), "run", "--run-id", "r", *flags]
        procs.append(subprocess.Popen([sys.executable, "-m", "twinsearch.cli", *argv], env=env))
    assert [proc.wait() for proc in procs] == [0, 0]
    n_files, problems = script.compare_dirs(tmp_path / "1" / "r", tmp_path / "2" / "r")
    assert n_files == 16 + 5 and problems == []
