#!/usr/bin/env python3
"""Byte-compare the run directories that two source trees write.

Runs a fixed set of CLI recipes, for each seed, once with the ``twinsearch``
package from ``SRC_A`` and once with the one from ``SRC_B``, and compares
every file of the resulting run directories byte for byte: manifest, trial
lines, decision log, matrices, selection, baselines and eval report. The
``select-foreign`` recipe rewrites every trial file the way another writer
might (spaced separators, reversed keys, CRLF, integral floats as ints)
before it selects, so the loader's handling of such lines is compared too.

    python3 scripts/parity.py OLD/src NEW/src
    python3 scripts/parity.py OLD/src NEW/src --recipes fifo-grid,fifo-diverge --seeds 0

Each tree runs in one fresh Python process. Exit status: 0 when every file
is identical, 1 when any file differs or exists on one side only, 2 when a
command fails.
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
# not a CLI command: rewrites every trial file of the run with ", "/": "
# separators, reversed key order, CRLF line ends and integral floats as ints
FOREIGN = "rewrite-trials-foreign"

# name -> (flags of the run command, commands after it)
RECIPES: dict[str, tuple[list[str], list[list[str]]]] = {
    "fifo-grid": ([], EVAL_OPS),
    "hb-valfree": (
        ["--n-lr", "30", "--n-wd", "30", "--scheduler", "hb", "--stop-fraction", "0.25",
         "--n-val", "0", "--n-test", "0"],
        [],
    ),
    "reselect-40": (
        ["--n-lr", "40", "--n-wd", "40", "--epochs", "6", "--n-test", "200"],
        [["select", RUN_ID]],
    ),
    "fifo-diverge": (["--lr-high", "1e6", "--wd-high", "50"], EVAL_OPS),
    "hb-val": (["--scheduler", "hb", "--stop-fraction", "0.25"], EVAL_OPS),
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
    # Every recipe above reads only the lines the package writes itself; this
    # one re-selects from trial files rewritten as another writer might. Four
    # val/test examples make accuracies of 0 and 1, which it writes as ints.
    "select-foreign": (
        ["--n-lr", "8", "--n-wd", "8", "--epochs", "6", "--n-val", "4", "--n-test", "4"],
        [[FOREIGN], ["select", RUN_ID], EVAL_OPS[0]],
    ),
}

# Runs every job's commands against its own store; prints one JSON line.
CHILD = """
import contextlib, io, json, pathlib, sys
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
from twinsearch.cli import main

def rewrite_foreign(trials):
    for path in sorted(pathlib.Path(trials).glob("*.jsonl")):
        out = []
        for line in path.read_bytes().decode("utf-8").splitlines():
            fields = json.loads(line)
            fields = {
                k: int(v) if isinstance(v, float) and v.is_integer() else v
                for k, v in reversed(fields.items())
            }
            out.append(json.dumps(fields, separators=(", ", ": ")) + "\\r\\n")
        path.write_bytes("".join(out).encode("utf-8"))

failures = []
for job in spec["jobs"]:
    for argv in job["ops"]:
        if argv == [spec["foreign"]]:
            rewrite_foreign(pathlib.Path(job["store"]) / spec["run_id"] / "trials")
            continue
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
            jobs.append(
                {"name": f"{name} seed {seed}", "store": f"{name}-{seed}", "ops": [run, *later_ops]}
            )
    return jobs


def run_tree(src: Path, store_root: Path, jobs: list[dict]) -> list[str]:
    """Run every job with the package under ``src``; returns the failed commands."""
    spec = {
        "src": str(src),
        "run_id": RUN_ID,
        "foreign": FOREIGN,
        "jobs": [{"store": str(store_root / j["store"]), "ops": j["ops"]} for j in jobs],
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path, help="directory that holds one twinsearch package")
    parser.add_argument("src_b", type=Path, help="directory that holds the other")
    parser.add_argument("--recipes", default=",".join(RECIPES), help="comma-separated recipe names")
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated task/init seeds")
    parser.add_argument("--grid", type=int, default=None, help="override every grid to N x N")
    parser.add_argument("--epochs", type=int, default=None, help="override every epoch budget")
    args = parser.parse_args(argv)

    recipes = [r for r in args.recipes.split(",") if r]
    unknown = [r for r in recipes if r not in RECIPES]
    if unknown:
        parser.error(f"unknown recipe(s) {unknown}; choose from {list(RECIPES)}")
    for src in (args.src_a, args.src_b):
        if not (src / "twinsearch" / "cli.py").is_file():
            parser.error(f"no twinsearch package under {src}")
    seeds = [int(s) for s in args.seeds.split(",") if s]

    jobs = build_jobs(recipes, seeds, args.grid, args.epochs)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        root_a, root_b = Path(tmp) / "a", Path(tmp) / "b"
        failed = False
        for side, src, root in (("A", args.src_a, root_a), ("B", args.src_b, root_b)):
            for failure in run_tree(src.resolve(), root, jobs):
                print(f"{side}: {failure}")
                failed = True
        if failed:
            return 2
        differ = False
        for job in jobs:
            run_a = root_a / job["store"] / RUN_ID
            n_files, problems = compare_dirs(run_a, root_b / job["store"] / RUN_ID)
            if problems:
                differ = True
                print(f"{job['name']}: {len(problems)} of {n_files} files not identical")
                for problem in problems:
                    print(f"  {problem}")
            else:
                print(f"{job['name']}: identical ({n_files} files)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
