"""Command-line entry points.

Subcommands: ``run`` (execute a search end to end and select with the
default segmentation parameters), ``select`` (recompute the pick offline
from logged trials; the only command that takes segmentation parameters,
and with grid slicing it prints a sub-grid's pick without storing it),
``baseline`` (SelTS/SelVS/Oracle picks), ``eval`` (method-vs-oracle report
of the twin pick stored by the last ``run`` or whole-grid ``select``),
``plot`` (SVG figures of that pick). Every command but ``run`` loads the
run once (``_load_complete_run``): its grid, scheduler policy and records,
as ``records.Records`` columns, which must hold a complete record of every
cell, one whose status is terminal or that ran the whole epoch budget; the
check runs on the columns. It builds the grid surfaces from those columns
(a strided ``select`` from the sub-grid's, cut by index); none reads
``matrices.json``.
Exit codes:
0 success, 1 usage error, 2 pipeline failure (all trials diverged,
incomplete or missing artifacts), 3 storage failure.

Reading test metrics is an explicit opt-in (--allow-test-metrics): the twin
pipeline itself never touches them.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .grid import build_log_grid, cell_params
from .matrices import assemble, build_metric_surfaces
from .quickshift import QuickshiftParams, default_params
from .runstore import RunNotFoundError, RunStore, RunStoreError
from .scheduler import SchedulerPolicy
from .search import run_and_store, slice_records, usable_cpus
from .selector import (
    METHOD_ORACLE,
    METHOD_SELTS,
    METHOD_SELVS,
    METHOD_TWIN,
    Selection,
    baseline_select,
    evaluate,
    twin_pipeline,
)
from .svgplot import heatmap_svg, labels_svg, scatter_svg
from .tasks import TaskSpec
from .trainer import LR_SCHEDULES, ArchSpec, TrainerConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PIPELINE = 2
EXIT_STORAGE = 3

STORE_ENV = "TWINSEARCH_STORE"


class UsageError(Exception):
    pass


class PipelineError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="twinsearch", description=__doc__)
    parser.add_argument(
        "--store-root",
        default=None,
        help=f"run store root (default ./runs, or ${STORE_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="grid-search a task and select a configuration")
    p_run.add_argument("--run-id", required=True)
    p_run.add_argument("--lr-low", type=float, default=5e-5)
    p_run.add_argument("--lr-high", type=float, default=5e-1)
    p_run.add_argument("--n-lr", type=int, default=10)
    p_run.add_argument("--wd-low", type=float, default=5e-5)
    p_run.add_argument("--wd-high", type=float, default=5e-1)
    p_run.add_argument("--n-wd", type=int, default=10)
    p_run.add_argument("--scheduler", choices=("fifo", "hb"), default="fifo")
    p_run.add_argument("--stop-fraction", type=float, default=0.25, help="X for hb")
    p_run.add_argument("--eta", type=int, default=2, help="halving rate")
    p_run.add_argument("--grace", type=float, default=0.05, help="grace fraction of the budget")
    p_run.add_argument("--epochs", type=int, default=50)
    p_run.add_argument("--batch-size", type=int, default=32)
    p_run.add_argument("--momentum", type=float, default=0.9)
    p_run.add_argument("--lr-schedule", choices=LR_SCHEDULES, default="cosine")
    p_run.add_argument("--init-seed", type=int, default=0)
    p_run.add_argument("--hidden", default="32", help="comma-separated hidden widths")
    p_run.add_argument("--task-seed", type=int, default=0)
    p_run.add_argument("--n-train", type=int, default=150)
    p_run.add_argument("--n-val", type=int, default=30)
    p_run.add_argument("--n-test", type=int, default=2000)
    p_run.add_argument("--n-classes", type=int, default=3)
    p_run.add_argument("--input-dim", type=int, default=16)
    p_run.add_argument("--class-sep", type=float, default=2.5)
    p_run.add_argument("--label-noise", type=float, default=0.15)
    p_run.add_argument(
        "--jobs",
        type=_positive_int,
        default=usable_cpus(),
        help="processes that train the grid's trials, at most one per CPU and one per 64"
        " trials (default: the CPUs this process may use); no file of the run depends on it",
    )

    p_sel = sub.add_parser("select", help="recompute the selection offline from run logs")
    p_sel.add_argument("run_id")
    p_sel.add_argument("--kernel-size", type=float, default=None)
    p_sel.add_argument("--max-dist", type=float, default=None)
    p_sel.add_argument("--ratio", type=float, default=None)
    p_sel.add_argument("--lr-stride", type=int, default=1)
    p_sel.add_argument("--wd-stride", type=int, default=1)

    p_base = sub.add_parser("baseline", help="compute SelTS/SelVS/Oracle picks")
    p_base.add_argument("run_id")
    p_base.add_argument(
        "--methods", default="selts", help="comma list from selts,selvs,oracle"
    )
    p_base.add_argument("--allow-test-metrics", action="store_true")

    p_eval = sub.add_parser("eval", help="score selections against the oracle")
    p_eval.add_argument("run_ids", nargs="+")
    p_eval.add_argument("--allow-test-metrics", action="store_true")

    p_plot = sub.add_parser("plot", help="render an SVG figure from run artifacts")
    p_plot.add_argument("run_id")
    p_plot.add_argument("--target", choices=("psi", "theta", "labels", "norm-vs-test"), required=True)
    p_plot.add_argument("--out", required=True)

    return parser


def _store(args) -> RunStore:
    root = args.store_root or os.environ.get(STORE_ENV) or "runs"
    return RunStore(root)


def _load_complete_run(store: RunStore, run_id: str):
    """The run's grid, policy and records (``records.Records``); each cell needs a
    record whose status is terminal or that ran the whole epoch budget."""
    grid, policy, records = store.load_run(run_id)
    complete = np.zeros(grid.n_trials, dtype=bool)
    done = records.terminal | (records.epochs_run >= policy.epoch_budget)
    complete[(records.row * grid.n_lr + records.col)[done]] = True
    pending = np.flatnonzero(~complete).tolist()
    if pending:
        cells = ", ".join(f"({i // grid.n_lr}, {i % grid.n_lr})" for i in pending[:10])
        more = "" if len(pending) <= 10 else f" and {len(pending) - 10} more"
        raise PipelineError(f"run {run_id!r} has incomplete cells: {cells}{more}")
    return grid, policy, records


def _cmd_run(args) -> int:
    # flag validation failures are usage errors, not pipeline failures
    try:
        grid = build_log_grid(
            args.lr_low, args.lr_high, args.n_lr, args.wd_low, args.wd_high, args.n_wd
        )
        policy = SchedulerPolicy(
            kind=args.scheduler,
            epoch_budget=args.epochs,
            stop_fraction=args.stop_fraction if args.scheduler == "hb" else 1.0,
            halving_rate=args.eta,
            grace_fraction=args.grace,
        )
        hidden = tuple(int(h) for h in args.hidden.split(",") if h.strip())
        arch = ArchSpec(hidden=hidden)
        config = TrainerConfig(
            momentum=args.momentum,
            batch_size=args.batch_size,
            lr_schedule=args.lr_schedule,
            init_seed=args.init_seed,
        )
        task_spec = TaskSpec(
            seed=args.task_seed,
            n_train=args.n_train,
            n_val=args.n_val,
            n_test=args.n_test,
            n_classes=args.n_classes,
            input_dim=args.input_dim,
            class_separation=args.class_sep,
            label_noise=args.label_noise,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    artifacts = run_and_store(
        _store(args), args.run_id, grid, policy, task_spec, arch, config, args.jobs
    )
    sel = artifacts.selection
    print(
        f"run {args.run_id}: selected cell ({sel.cell.row}, {sel.cell.col}) "
        f"lr={sel.lr:g} wd={sel.wd:g} region={sel.region_id}"
    )
    return EXIT_OK


def _cmd_select(args) -> int:
    store = _store(args)
    grid, _policy, records = _load_complete_run(store, args.run_id)
    whole = args.lr_stride == 1 and args.wd_stride == 1
    try:
        if not whole:
            records, grid = slice_records(records, grid, args.lr_stride, args.wd_stride)
        base = default_params(grid)
        params = QuickshiftParams(
            kernel_size=base.kernel_size if args.kernel_size is None else args.kernel_size,
            max_dist=base.max_dist if args.max_dist is None else args.max_dist,
            ratio=base.ratio if args.ratio is None else args.ratio,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    artifacts = twin_pipeline(assemble(records, grid), grid, params)
    if whole:  # a sub-grid's pick is printed, never stored over the run's own
        store.write_selection(args.run_id, artifacts)
    sel = artifacts.selection
    print(
        f"run {args.run_id}: selected cell ({sel.cell.row}, {sel.cell.col}) "
        f"lr={sel.lr:g} wd={sel.wd:g} region={sel.region_id} "
        f"regions={artifacts.segments.n_regions}"
    )
    return EXIT_OK


def _cmd_baseline(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods or len(set(methods)) < len(methods):
        raise UsageError(f"--methods names no baseline method, or one twice: {args.methods!r}")
    known = {METHOD_SELTS, METHOD_SELVS, METHOD_ORACLE}
    unknown = [m for m in methods if m not in known]
    if unknown:
        raise UsageError(f"unknown baseline methods: {unknown}")
    if METHOD_ORACLE in methods and not args.allow_test_metrics:
        raise UsageError("reading test metrics requires --allow-test-metrics")
    store = _store(args)
    grid, policy, records = _load_complete_run(store, args.run_id)
    mats = assemble(records, grid)
    surfaces = build_metric_surfaces(records, grid, policy.kind)
    selections = [baseline_select(mats, surfaces, m, grid) for m in methods]
    store.write_baselines(args.run_id, selections)
    for sel in selections:
        print(
            f"run {args.run_id}: {sel.method} picked cell ({sel.cell.row}, {sel.cell.col}) "
            f"lr={sel.lr:g} wd={sel.wd:g}"
        )
    return EXIT_OK


def _cmd_eval(args) -> int:
    if not args.allow_test_metrics:
        raise UsageError("reading test metrics requires --allow-test-metrics")
    if len(set(args.run_ids)) < len(args.run_ids):
        raise UsageError(f"eval names a run twice: {args.run_ids}")
    store = _store(args)
    per_config = []
    surfaces_list = []
    for run_id in args.run_ids:
        grid, policy, records = _load_complete_run(store, run_id)
        mats = assemble(records, grid)
        surfaces = build_metric_surfaces(records, grid, policy.kind)
        cell = store.load_selection(run_id, grid)[0]
        sels = {METHOD_TWIN: Selection(METHOD_TWIN, cell, *cell_params(grid, cell))}
        for m in (METHOD_SELTS, METHOD_SELVS, METHOD_ORACLE):
            try:
                sels[m] = baseline_select(mats, surfaces, m, grid)
            except ValueError:
                continue  # surface not logged for this run
        if METHOD_ORACLE not in sels:
            raise PipelineError(f"run {run_id!r} has no test metrics; cannot evaluate")
        per_config.append(sels)
        surfaces_list.append(surfaces.test_acc)
    report = evaluate(per_config, surfaces_list)
    for run_id, errors in zip(args.run_ids, report.per_config_error):
        parts = ", ".join(f"{m}={e:.4f}" for m, e in sorted(errors.items()))
        print(f"{run_id}: {parts}")
    for m, mae in sorted(report.mae.items()):
        print(f"MAE vs oracle [{m}]: {mae:.4f}")
    store.write_eval_report(args.run_ids[0], report)
    return EXIT_OK


def _cmd_plot(args) -> int:
    store = _store(args)
    grid, policy, records = _load_complete_run(store, args.run_id)
    mats = assemble(records, grid)
    cell, region, labels = store.load_selection(args.run_id, grid)

    if args.target in ("psi", "theta"):
        name = "train loss" if args.target == "psi" else "parameter norm"
        values = np.where(mats.valid_mask, getattr(mats, args.target), np.nan)
        svg = heatmap_svg(values, grid, f"{name}: {args.run_id}", selected=cell)
    elif args.target == "labels":
        svg = labels_svg(labels, grid, f"regions: {args.run_id}", selected=cell)
    else:  # norm-vs-test
        surfaces = build_metric_surfaces(records, grid, policy.kind)
        if not np.any(np.isfinite(surfaces.test_acc)):
            raise PipelineError(f"run {args.run_id!r} has no test metrics to scatter")
        member = labels == region
        norms, accs, highlight = [], [], None
        for i, (r, c) in enumerate(zip(*np.nonzero(member))):
            norms.append(float(mats.theta[r, c]))
            accs.append(float(surfaces.test_acc[r, c]))
            if (r, c) == (cell.row, cell.col):
                highlight = i
        svg = scatter_svg(
            norms, accs, f"selected region: {args.run_id}", highlight=highlight
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(svg, encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "run": _cmd_run,
        "select": _cmd_select,
        "baseline": _cmd_baseline,
        "eval": _cmd_eval,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PipelineError, RunNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except (RunStoreError, OSError) as exc:
        print(f"storage error: {exc}", file=sys.stderr)
        return EXIT_STORAGE


if __name__ == "__main__":
    sys.exit(main())
