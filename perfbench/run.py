"""Benchmark driver for the twinsearch CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload fifo-grid --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

Each repetition runs in a fresh process (``worker.py``) that calls
``twinsearch.cli.main`` on the sources under ``src/``. The workload seed
reaches the program only as ``--task-seed``/``--init-seed``. After every
repetition the driver checks exit codes, parses the artifacts and compares
their sha256 digests and the counts read from the run directory with the
first repetition of the same seed. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` a traced repetition follows the untraced ones and the metrics
are the per-layer ones. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

RUN_ID = "bench"
MIN_REPS = 2  # a median needs more than one sample, however long a repetition takes
STARTUPS = 5  # bare worker start-ups timed as set-up when a workload builds nothing
TIME_LIMIT_S = 150  # no repetition starts that could end after this
RESULT_FILES = ("selection.json", "baselines.json", "eval_report.json", "matrices.json")
READ_COMMANDS = ("select", "baseline", "eval")  # each loads the run once
RUNSTORE_WRITES = (
    "runstore.create_run",
    "runstore.write_matrices",
    "runstore.write_selection",
    "runstore.write_baselines",
    "runstore.write_eval_report",
)


def _seed_flags(seed: int) -> list[str]:
    return ["--task-seed", str(seed), "--init-seed", str(seed)]


@dataclass(frozen=True)
class Workload:
    """What one repetition runs; BENCHMARK.json and README.md say why each workload exists."""

    rep_ops: Callable[[int], list[list[str]]]
    # Runs built before the timed phase; repetitions then share the first
    # build's store. Without builds every repetition gets a fresh store.
    build_ops: Callable[[int], list[list[str]]] | None = None
    builds: int = 0


WORKLOADS = {
    "fifo-grid": Workload(
        rep_ops=lambda seed: [
            ["run", "--run-id", RUN_ID, *_seed_flags(seed)],
            ["baseline", RUN_ID, "--methods", "selts,selvs,oracle", "--allow-test-metrics"],
            ["eval", RUN_ID, "--allow-test-metrics"],
        ],
    ),
    "hb-valfree": Workload(
        rep_ops=lambda seed: [
            [
                "run", "--run-id", RUN_ID, "--n-lr", "30", "--n-wd", "30",
                "--scheduler", "hb", "--stop-fraction", "0.25", "--epochs", "50",
                "--n-val", "0", "--n-test", "0", *_seed_flags(seed),
            ]
        ],
    ),
    "reselect-40": Workload(
        build_ops=lambda seed: [
            [
                "run", "--run-id", RUN_ID, "--n-lr", "40", "--n-wd", "40",
                "--epochs", "6", "--n-test", "200", *_seed_flags(seed),
            ]
        ],
        builds=2,
        rep_ops=lambda seed: [["select", RUN_ID]],
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


@dataclass
class Rep:
    """One worker process: its timings and what the check found."""

    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    failed: int
    problems: list[str]
    digests: dict[str, str]
    counts: dict[str, float]
    traced: dict | None = None


def _snapshot(root: Path) -> dict[str, tuple[int, int, int]]:
    snap = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            snap[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return snap


def inspect_run(run_dir: Path) -> tuple[dict[str, str], dict[str, float]]:
    """Digests of the result files and exact counts read from the run directory.

    Raises CheckFailed when an artifact is missing, does not parse, or
    contradicts the grid in the manifest.
    """
    try:
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_bytes())
        n_wd, n_lr = len(manifest["grid"]["wd_values"]), len(manifest["grid"]["lr_values"])
        budget = manifest["scheduler"]["epoch_budget"]
        digests = {}
        docs = {}
        for name in RESULT_FILES:
            path = run_dir / name
            if path.exists():
                data = path.read_bytes()
                docs[name] = json.loads(data)
                digests[name] = hashlib.sha256(data).hexdigest()
        epochs = 0
        final_status: Counter = Counter()
        input_bytes = manifest_path.stat().st_size
        trial_files = sorted((run_dir / "trials").glob("*.jsonl"))
        for path in trial_files:
            data = path.read_bytes()
            lines = [json.loads(line) for line in data.splitlines()]
            epochs += len(lines)
            final_status[lines[-1]["status"]] += 1
            input_bytes += len(data)
        decisions = run_dir / "decisions.jsonl"
        if decisions.exists():
            data = decisions.read_bytes()
            for line in data.splitlines():
                json.loads(line)
            input_bytes += len(data)
        sel = docs["selection.json"]
        cell = sel["selection"]["cell"]
        n_labels = len(sel["labels"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"{run_dir}: {type(exc).__name__}: {exc}") from exc
    if not (0 <= cell["row"] < n_wd and 0 <= cell["col"] < n_lr):
        raise CheckFailed(f"{run_dir}: selected cell {cell} outside the {n_wd}x{n_lr} grid")
    if n_labels != n_wd * n_lr or len(trial_files) != n_wd * n_lr:
        raise CheckFailed(f"{run_dir}: {n_labels} labels and {len(trial_files)} trial files for {n_wd * n_lr} cells")
    counts = {
        "scheduler.epoch_share": epochs / (n_wd * n_lr * budget),
        "scheduler.stopped_early_trials": final_status["stopped_early"],
        "trainer.diverged_trials": final_status["diverged"],
        "run_input_bytes": input_bytes,
    }
    return digests, counts


def _run_worker(ops: list[list[str]], store: Path, trace: bool, spans_out: Path | None, deadline: float) -> dict:
    spec = {
        "src": str(SRC),
        "ops": [["--store-root", str(store), *argv] for argv in ops],
        "trace": trace,
        "spans_out": str(spans_out) if spans_out else None,
    }
    spawned = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def run_rep(ops, store: Path, trace: bool, deadline: float, spans_out: Path | None = None) -> Rep:
    """Run ``ops`` in one fresh worker against ``store`` and check the outputs."""
    store.mkdir(parents=True, exist_ok=True)
    before = _snapshot(store)
    result = _run_worker(ops, store, trace, spans_out, deadline)
    if "error" in result:
        return Rep(0.0, 0.0, 0.0, 0.0, len(ops), [result["error"]], {}, {})
    problems = [
        f"exit {op['rc']}: {' '.join(op['argv'])}: {op['stderr'].strip()[-300:]}"
        for op in result["ops"]
        if op["rc"] != 0
    ]
    failed = len(problems)
    digests: dict[str, str] = {}
    counts: dict[str, float] = {}
    if not failed:
        try:
            digests, counts = inspect_run(store / RUN_ID)
        except CheckFailed as exc:
            problems.append(str(exc))
            failed = 1
        after = _snapshot(store)
        counts["runstore.bytes_written"] = sum(
            meta[0] for path, meta in after.items() if before.get(path) != meta
        )
        counts["runstore.bytes_read"] = counts.get("run_input_bytes", 0) * sum(
            argv[0] in READ_COMMANDS for argv in ops
        )
    traced = None
    if trace:
        traced = {k: result[k] for k in ("layers", "counters", "absent")}
    return Rep(
        wall_s=result["wall_s"],
        setup_s=result["setup_s"],
        cpu_s=result["cpu_s"],
        peak_rss_mb=result["peak_rss_mb"],
        failed=failed,
        problems=problems,
        digests=digests,
        counts=counts,
        traced=traced,
    )


class Reference:
    """Digests and counts of the first checked repetition; later ones must match."""

    def __init__(self) -> None:
        self.values: dict | None = None

    def mismatches(self, digests: dict, counts: dict) -> list[str]:
        values = {**digests, **counts}
        if self.values is None:
            self.values = values
            return []
        return sorted(k for k in self.values.keys() | values.keys() if self.values.get(k) != values.get(k))

    def check(self, rep: Rep) -> None:
        if rep.failed:
            return
        diff = self.mismatches(rep.digests, rep.counts)
        if diff:
            rep.failed = 1
            rep.problems.append(f"differs from the first repetition of this seed: {', '.join(diff)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    deadline = time.monotonic() + TIME_LIMIT_S
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    attempted = failed = 0
    problems: list[str] = []

    def account(rep: Rep, n_ops: int) -> None:
        nonlocal attempted, failed
        attempted += n_ops
        failed += min(rep.failed, n_ops)
        problems.extend(rep.problems)

    try:
        startups = []
        for _ in range(0 if workload.builds else STARTUPS):
            probe = _run_worker([], work, False, None, deadline)
            if "error" not in probe:
                startups.append(probe["setup_s"])
        builds: list[Rep] = []
        build_ref = Reference()
        for i in range(workload.builds):
            ops = workload.build_ops(seed)
            rep = run_rep(ops, work / f"build{i}", False, deadline)
            build_ref.check(rep)
            account(rep, len(ops))
            builds.append(rep)

        rep_ops = workload.rep_ops(seed)
        ref = Reference()
        reps: list[Rep] = []

        def store_for(i: int) -> Path:
            return work / "build0" if workload.builds else work / f"rep{i}"

        def next_rep(traced: bool) -> Rep:
            store = store_for(len(reps))
            spans_out = OUT / f"spans-{name}-seed{seed}.json" if traced else None
            rep = run_rep(rep_ops, store, traced, deadline, spans_out)
            ref.check(rep)
            account(rep, len(rep_ops))
            if not workload.builds:
                shutil.rmtree(store, ignore_errors=True)
            return rep

        timed_from = time.monotonic()
        longest = 0.0
        while len(reps) < MIN_REPS or time.monotonic() - timed_from < seconds:
            if time.monotonic() + longest > deadline:
                break
            t = time.monotonic()
            reps.append(next_rep(False))
            longest = max(longest, time.monotonic() - t)
        traced_rep = None
        if trace and time.monotonic() + 2 * longest < deadline:
            traced_rep = next_rep(True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in reps if not r.failed]
    if workload.builds:
        setup_samples = [b.setup_s + b.wall_s for b in builds if not b.failed]
    else:
        setup_samples = startups + [r.setup_s for r in good]
    if not good or not setup_samples or (trace and (traced_rep is None or traced_rep.failed)):
        failed = max(failed, 1)
        problems.append("no successful repetition to report")
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reps": [
            {"wall_s": r.wall_s, "setup_s": r.setup_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.peak_rss_mb, "failed": r.failed}
            for r in reps
        ],
        "setup_samples_s": setup_samples,
        "digests": good[0].digests if good else {},
        "counts": good[0].counts if good else {},
        "env": environment(seed),
    }
    if failed:
        return result
    end_to_end = {
        "wall_s": statistics.median(r.wall_s for r in good),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
    }
    result["end_to_end"] = end_to_end
    if trace:
        result["per_layer"] = per_layer(traced_rep, good, end_to_end["wall_s"])
        result["absent"] = traced_rep.traced["absent"]
    return result


def per_layer(traced: Rep, untraced: list[Rep], untraced_wall: float) -> dict[str, tuple[float, str]]:
    layers = traced.traced["layers"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    metrics = {}
    for name, key in (
        ("trainer.accuracy", "calls"),
        ("trainer.accuracy", "s"),
        ("trainer.loss_and_grad", "calls"),
        ("trainer.loss_and_grad", "s"),
        ("trainer.step_epoch", "calls"),
        ("trainer.step_epoch", "self_s"),
        ("search.execute_search", "s"),
        ("search.execute_search", "self_s"),
        ("scheduler.decide", "calls"),
        ("scheduler.decide", "s"),
        ("runstore.append_trial_line", "calls"),
        ("runstore.append_trial_line", "s"),
        ("runstore.append_decisions", "s"),
        ("runstore.load_run", "calls"),
        ("runstore.load_run", "s"),
        ("matrices.assemble", "s"),
        ("matrices.build_metric_surfaces", "s"),
        ("quickshift.compute_density", "s"),
        ("quickshift.link_parents", "s"),
        ("quickshift.label_segments", "s"),
        ("selector.twin_pipeline", "self_s"),
        ("selector.baseline_select", "s"),
    ):
        metrics[f"{name}.{key}"] = (get(name, key), "count" if key == "calls" else "s")
    metrics["runstore.write_artifacts.s"] = (sum(get(n, "s") for n in RUNSTORE_WRITES), "s")
    for name in ("trainer.diverged_trials", "scheduler.stopped_early_trials"):
        metrics[name] = (traced.counts[name], "count")
    metrics["scheduler.epoch_share"] = (traced.counts["scheduler.epoch_share"], "fraction")
    for name in ("runstore.bytes_written", "runstore.bytes_read"):
        metrics[name] = (traced.counts[name], "B")
    for name in ("quickshift.cells", "quickshift.n_regions"):
        metrics[name] = (traced.traced["counters"].get(name, 0), "count")
    metrics["process.cpu_s"] = (statistics.median(r.cpu_s for r in untraced), "s")
    metrics["trace.wall_s"] = (traced.wall_s, "s")
    metrics["trace.self_sum_s"] = (sum(v["self_s"] for v in layers.values()), "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced_wall, "s")
    return metrics


def _blas_threads() -> int | None:
    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
    }


def report(result: dict) -> dict:
    """Print the human-readable lines and write BENCH_<workload>.json; returns the JSON summary."""
    name = result["workload"]
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"[{name}] seed={result['seed']} env={json.dumps(result['env'])}")
    print(f"[{name}] failed_frac = {failed_frac} ({result['failed']}/{result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"[{name}] problem: {problem}")
    for file, digest in sorted(result["digests"].items()):
        print(f"[{name}] sha256 {file} {digest}")
    if result.get("absent"):
        print(f"[{name}] absent layers: {', '.join(result['absent'])}")
    metrics = {}
    if "end_to_end" in result:
        for key, value in result["end_to_end"].items():
            print(f"[{name}] {key} = {value} {END_TO_END_UNITS[key]}")
        if result["trace"]:
            for key, (value, unit) in result["per_layer"].items():
                print(f"[{name}] {key} = {value} {unit}")
                metrics[key] = {"value": value, "unit": unit}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}
    OUT.mkdir(exist_ok=True)
    suffix = "_trace" if result["trace"] else ""
    (OUT / f"BENCH_{name}{suffix}.json").write_text(json.dumps(result, indent=2) + "\n")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twinsearch" / "cli.py").is_file():
        print(f"error: no twinsearch sources at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    summaries = [report(r) for r in results]
    if args.workload == "all":
        print(f"{'workload':<12} {'wall_s [s]':>12} {'setup_s [s]':>12} {'peak_rss_mb [MB]':>17} {'failed_frac':>12}")
        for r in results:
            e2e = r.get("end_to_end", {})
            cells = [f"{e2e[k]:>{w}.4f}" if k in e2e else f"{'-':>{w}}" for k, w in (("wall_s", 12), ("setup_s", 12), ("peak_rss_mb", 17))]
            print(f"{r['workload']:<12} {' '.join(cells)} {r['failed'] / max(1, r['attempted']):>12.4f}")
        return 0 if all(s["correct"] for s in summaries) else 1
    print(json.dumps(summaries[0]))
    return 0

if __name__ == "__main__":
    sys.exit(main())
