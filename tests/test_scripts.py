"""Smoke tests: the scripts under scripts/ still run against the package API."""

import importlib.util
import json
from pathlib import Path

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


def test_parity_schedule_recipes_train_with_their_settings(tmp_path):
    script = load_script("parity")
    src = SCRIPTS.parent / "src"
    jobs = script.build_jobs(["fifo-piecewise", "fifo-constant"], [0], 3, 4)
    assert script.run_tree(src, tmp_path, jobs) == []
    trainers = [
        json.loads((tmp_path / job["store"] / script.RUN_ID / "manifest.json").read_text())["trainer"]
        for job in jobs
    ]
    assert trainers == [
        {"momentum": 0.9, "epochs": 4, "batch_size": 32, "lr_schedule": "piecewise"},
        {"momentum": 0.5, "epochs": 4, "batch_size": 16, "lr_schedule": "constant"},
    ]
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


def test_parity_foreign_recipe_rewrites_trial_files_before_select(tmp_path):
    script = load_script("parity")
    src = SCRIPTS.parent / "src"
    jobs = script.build_jobs(["select-foreign"], [0], 3, 2)
    assert [op[0] for op in jobs[0]["ops"]] == ["run", script.FOREIGN, "select", "baseline"]
    assert script.run_tree(src, tmp_path, jobs) == []
    run_dir = tmp_path / jobs[0]["store"] / script.RUN_ID
    trials = sorted((run_dir / "trials").glob("*.jsonl"))
    assert len(trials) == 9
    for path in trials:
        lines = path.read_bytes().split(b"\r\n")
        assert len(lines) == 3 and lines[-1] == b""
        assert lines[0].startswith(b'{"status": "running", "test_acc": ')
        assert lines[0].endswith(b', "col": %d, "row": %d}' % tuple(map(int, path.stem.split("_")[::-1])))
    assert (run_dir / "selection.json").is_file() and (run_dir / "baselines.json").is_file()
