#!/usr/bin/env python3
"""Byte-compare the run directories that two source trees write.

Runs a fixed set of CLI recipes, for each seed, once with the ``twinsearch``
package from ``SRC_A`` and once with the one from ``SRC_B``, and compares
every file of the resulting run directories byte for byte: manifest, trial
lines, decision log, records, matrices, selection, baselines, eval report
and, for the ``fifo-plot`` and ``hb-plot`` recipes, the SVG of every ``plot``
target.

    python3 scripts/parity.py OLD/src NEW/src
    python3 scripts/parity.py OLD/src NEW/src --recipes fifo-grid,fifo-diverge --seeds 0
    python3 scripts/parity.py OLD/src NEW/src --expect-changed selection.json,eval_report.json
    python3 scripts/parity.py OLD/src NEW/src --expect-changed trials/,decisions.jsonl
    python3 scripts/parity.py OLD/src NEW/src --json parity.json
    python3 scripts/parity.py src src --jobs 1

Each tree runs in one fresh Python process, which works in each job's store
directory, so a relative ``plot --out`` lands in it. ``--jobs N`` appends
``--jobs N`` to every ``run`` command of the second tree, so ``src src --jobs
1`` checks runs sharded across processes (``run``'s default) against runs in
one process, recipe by recipe. ``--expect-changed`` names files, by their
path inside the run directory, that a change to the package is meant to
alter; a name that ends in ``/``, such as ``trials/``, names every file
under that directory (``is_expected``). They may differ or exist on one
side only, and each one that does is printed per recipe and seed, with
where it first differs: the key path for a JSON file, the line number and
the key path within that line for a JSON-lines file such as
``records.json`` (``first_difference``). ``--json`` also writes the table
to a file: ``--jobs``'s N (or null), and per recipe and seed, the verdict (``identical``,
``expected`` when only named files changed, ``differs``), the number of
files compared, and the problems found, split into unexpected and expected
ones, each expected one as printed. Exit status: 0 when every file not so
named is identical, 1 when any of them differs or exists on one side only,
2 when a command fails (the JSON then lists the failed commands and no
verdicts).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_ID = "parity"
EVAL_OPS = [
    ["baseline", RUN_ID, "--methods", "selts,selvs,oracle", "--allow-test-metrics"],
    ["eval", RUN_ID, "--allow-test-metrics"],
]

SEGMENT_RUN = ["--n-lr", "16", "--n-wd", "16", "--epochs", "6"]
# every plot target, drawn into the run directory (relative to the job's store)
PLOT_OPS = [
    ["plot", RUN_ID, "--target", target, "--out", f"{RUN_ID}/{target}.svg"]
    for target in ("psi", "theta", "labels", "norm-vs-test")
]

# name -> (flags of the run command, commands after it)
RECIPES: dict[str, tuple[list[str], list[list[str]]]] = {
    "fifo-grid": ([], EVAL_OPS),
    "fifo-plot": ([], [*EVAL_OPS, *PLOT_OPS]),
    "hb-valfree": (
        ["--n-lr", "30", "--n-wd", "30", "--scheduler", "hb", "--stop-fraction", "0.25",
         "--n-val", "0", "--n-test", "0"],
        [],
    ),
    # HB whose halving runs through every rung before the budget: at stop fraction 0.05 the
    # default 100 trials halve at epochs 3, 6, 12, 24 and 48, so a search decides six times.
    "hb-ladder": (["--scheduler", "hb", "--stop-fraction", "0.05"], EVAL_OPS),
    "reselect-40": (
        ["--n-lr", "40", "--n-wd", "40", "--epochs", "6", "--n-test", "200"],
        [["select", RUN_ID]],
    ),
    "fifo-diverge": (["--lr-high", "1e6", "--wd-high", "50"], EVAL_OPS),
    "hb-val": (["--scheduler", "hb", "--stop-fraction", "0.25"], EVAL_OPS),
    # The one recipe that plots an HB run: norm-vs-test summarizes the test metric over
    # the window of the run's scheduler kind, which is not FIFO's one epoch.
    "hb-plot": (["--scheduler", "hb", "--stop-fraction", "0.25"], [*EVAL_OPS, *PLOT_OPS]),
    # The only recipe with trials that diverge under HB, some in rung rounds.
    "hb-diverge": (
        ["--lr-high", "1e6", "--wd-high", "50", "--scheduler", "hb", "--stop-fraction", "0.25",
         "--grace", "0.3", "--epochs", "30"],
        EVAL_OPS,
    ),
    "deep-5class": (["--hidden", "32,16", "--n-classes", "5"], EVAL_OPS),
    "binary": (["--n-classes", "2"], EVAL_OPS),
    # Every recipe above trains with the default cosine schedule, momentum
    # and batch size; these two cover the other LR schedules and settings.
    "fifo-piecewise": (["--lr-schedule", "piecewise"], EVAL_OPS),
    "fifo-constant": (
        ["--lr-schedule", "constant", "--momentum", "0.5", "--batch-size", "16"],
        EVAL_OPS,
    ),
    # Buffer shapes: two hidden layers, a minibatch of 6 after one of 64, and
    # an HB cohort of 80 trials, two stack slices, that its rungs shrink to
    # one slice of 40, then of 20.
    "hb-deep-ragged": (
        ["--hidden", "32,16", "--scheduler", "hb", "--stop-fraction", "0.25", "--n-train", "70",
         "--batch-size", "64", "--n-lr", "10", "--n-wd", "8"],
        EVAL_OPS,
    ),
    # At default Quickshift parameters every recipe above selects from one
    # region; these re-select a 16x16 run with parameters that segment it
    # into several, so linking and labelling are compared too.
    "select-ratio20": (SEGMENT_RUN, [["select", RUN_ID, "--ratio", "20"]]),
    "select-near": (SEGMENT_RUN, [["select", RUN_ID, "--max-dist", "1.5", "--ratio", "20"]]),
    "select-maxdist-inf": (SEGMENT_RUN, [["select", RUN_ID, "--max-dist", "inf"]]),
    # Grid rows of 80 cells, wider than Quickshift's 64-cell blocks, so each row is
    # split in two; re-selected into several regions, so linking is compared too.
    "select-wide-rows": (
        ["--n-lr", "80", "--n-wd", "3", "--epochs", "6"],
        [["select", RUN_ID, "--max-dist", "3", "--ratio", "20"]],
    ),
    # The one recipe that evaluates after an overriding select, so it compares
    # the report of the pick that select stored, not of the one run made.
    "select-near-eval": (
        SEGMENT_RUN, [["select", RUN_ID, "--max-dist", "1.5", "--ratio", "20"], *EVAL_OPS]
    ),
}

# Runs every job's commands against its own store; prints one JSON line.
CHILD = """
import contextlib, io, json, os, sys
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
from twinsearch.cli import main

failures = []
for job in spec["jobs"]:
    os.makedirs(job["store"], exist_ok=True)
    os.chdir(job["store"])
    for argv in job["ops"]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["--store-root", job["store"], *argv])
        if rc != 0:
            failures.append(f"exit {rc}: {' '.join(argv)}: {err.getvalue().strip()[-300:]}")
print(json.dumps(failures))
"""


def build_jobs(recipes, seeds, grid: int | None, epochs: int | None) -> list[dict]:
    """One job per (recipe, seed): a store name and the commands to run in it."""
    shrink = []
    if grid is not None:
        shrink += ["--n-lr", str(grid), "--n-wd", str(grid)]
    if epochs is not None:
        shrink += ["--epochs", str(epochs)]
    jobs = []
    for name in recipes:
        run_flags, later_ops = RECIPES[name]
        for seed in seeds:
            seed_flags = ["--task-seed", str(seed), "--init-seed", str(seed)]
            run = ["run", "--run-id", RUN_ID, *run_flags, *shrink, *seed_flags]
            jobs.append({
                "name": f"{name} seed {seed}", "recipe": name, "seed": seed,
                "store": f"{name}-{seed}", "ops": [run, *later_ops],
            })
    return jobs


def with_run_jobs(ops: list[list[str]], run_jobs: int | None) -> list[list[str]]:
    """``ops`` with ``--jobs run_jobs`` appended to each ``run`` command, unless it is None."""
    if run_jobs is None:
        return ops
    return [[*op, "--jobs", str(run_jobs)] if op[0] == "run" else op for op in ops]


def run_tree(src: Path, store_root: Path, jobs: list[dict], run_jobs: int | None = None) -> list[str]:
    """Run every job with the package under ``src``, its ``run`` commands given ``--jobs
    run_jobs`` if that is not None; returns the failed commands."""
    spec = {
        "src": str(src),
        "jobs": [
            {"store": str(store_root / j["store"]), "ops": with_run_jobs(j["ops"], run_jobs)} for j in jobs
        ],
    }
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(spec)], capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    return json.loads(lines[-1])


def compare_dirs(a: Path, b: Path) -> tuple[int, list[str]]:
    """Number of files compared and the problems found, as relative paths."""
    files_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    problems = [f"only in A: {rel}" for rel in sorted(files_a - files_b)]
    problems += [f"only in B: {rel}" for rel in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            problems.append(f"differs: {rel}")
    return len(files_a | files_b), problems


def is_expected(rel: str, expected: set[str]) -> bool:
    """Whether ``expected`` names the file ``rel``: by its path, or by a directory name ending
    in ``/`` that holds it."""
    return rel in expected or any(name.endswith("/") and rel.startswith(name) for name in expected)


def _key_path(a, b, path: str = "$") -> str | None:
    """The first key path at which the JSON values ``a`` and ``b`` differ, or None."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = _key_path(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _key_path(x, y, f"{path}[{i}]")
            if found:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else path


def _json_key_path(a: bytes, b: bytes) -> str:
    try:
        return _key_path(json.loads(a), json.loads(b)) or "no key (same JSON, other text)"
    except ValueError:
        return "no key (not JSON)"


def first_difference(name: str, a: bytes, b: bytes) -> str:
    """Where two versions ``a`` and ``b`` of the file ``name`` first differ: the key path of a
    JSON file; the line number, and the key path within that line, of any other file, such as
    a JSON-lines one (``records.json`` holds JSON lines too)."""
    if name.endswith(".json"):
        try:
            return _key_path(json.loads(a), json.loads(b)) or "no key (same JSON, other text)"
        except ValueError:
            pass
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return f"line {i + 1}, {_json_key_path(x, y)}"
    if len(lines_a) == len(lines_b):
        return "no line (same lines, other line ends)"
    return f"line {min(len(lines_a), len(lines_b)) + 1}, only on one side"


def _located(problem: str, run_a: Path, run_b: Path) -> str:
    """``problem`` with where its file first differs, if it is a ``differs`` one."""
    kind, rel = problem.split(": ", 1)
    if kind != "differs":
        return problem
    return f"{problem}: first at {first_difference(rel, (run_a / rel).read_bytes(), (run_b / rel).read_bytes())}"


def compare_trees(
    src_a: Path, src_b: Path, jobs: list[dict], expected: set[str], run_jobs_b: int | None = None
) -> tuple[int, dict]:
    """Run ``jobs`` with both trees, tree B's ``run`` commands with ``--jobs run_jobs_b`` if that
    is not None, and print the comparison; the exit status and the table."""
    table = {"src_a": str(src_a), "src_b": str(src_b), "run_jobs_b": run_jobs_b,
             "expect_changed": sorted(expected), "failures": [], "jobs": []}
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        root_a, root_b = Path(tmp) / "a", Path(tmp) / "b"
        for side, src, root, run_jobs in (("A", src_a, root_a, None), ("B", src_b, root_b, run_jobs_b)):
            for failure in run_tree(src.resolve(), root, jobs, run_jobs):
                print(f"{side}: {failure}")
                table["failures"].append(f"{side}: {failure}")
        if table["failures"]:
            return 2, table
        differ = False
        for job in jobs:
            run_a = root_a / job["store"] / RUN_ID
            run_b = root_b / job["store"] / RUN_ID
            n_files, problems = compare_dirs(run_a, run_b)
            changed = [p for p in problems if is_expected(p.split(": ", 1)[1], expected)]
            problems = [p for p in problems if p not in changed]
            changed = [_located(p, run_a, run_b) for p in changed]
            if problems:
                differ = True
                verdict = "differs"
                print(f"{job['name']}: {len(problems)} of {n_files} files not identical")
                for problem in problems:
                    print(f"  {problem}")
            elif changed:
                verdict = "expected"
                print(f"{job['name']}: identical but for the expected changes ({n_files} files)")
            else:
                verdict = "identical"
                print(f"{job['name']}: identical ({n_files} files)")
            for change in changed:
                print(f"  expected: {change}")
            table["jobs"].append({
                "recipe": job["recipe"], "seed": job["seed"], "verdict": verdict,
                "files": n_files, "problems": problems, "expected": changed,
            })
    return 1 if differ else 0, table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path, help="directory that holds one twinsearch package")
    parser.add_argument("src_b", type=Path, help="directory that holds the other")
    parser.add_argument("--recipes", default=",".join(RECIPES), help="comma-separated recipe names")
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated task/init seeds")
    parser.add_argument("--grid", type=int, default=None, help="override every grid to N x N")
    parser.add_argument("--epochs", type=int, default=None, help="override every epoch budget")
    parser.add_argument(
        "--expect-changed", default="", metavar="NAME[,NAME...]",
        help="files of the run directory that may differ, e.g. selection.json; a name that "
        "ends in / names every file under that directory, e.g. trials/",
    )
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="append --jobs N to the second tree's run commands")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the verdict per recipe and seed to PATH")
    args = parser.parse_args(argv)

    recipes = [r for r in args.recipes.split(",") if r]
    unknown = [r for r in recipes if r not in RECIPES]
    if unknown:
        parser.error(f"unknown recipe(s) {unknown}; choose from {list(RECIPES)}")
    for src in (args.src_a, args.src_b):
        if not (src / "twinsearch" / "cli.py").is_file():
            parser.error(f"no twinsearch package under {src}")
    seeds = [int(s) for s in args.seeds.split(",") if s]
    expected = {name for name in args.expect_changed.split(",") if name}

    jobs = build_jobs(recipes, seeds, args.grid, args.epochs)
    status, table = compare_trees(args.src_a, args.src_b, jobs, expected, args.jobs)
    if args.json is not None:
        args.json.write_text(json.dumps(table, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
