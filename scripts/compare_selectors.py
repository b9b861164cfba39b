#!/usr/bin/env python3
"""Desk-scale selector comparison: twin vs SelTS/SelVS vs the test-set oracle.

Trains the full grid on several seeded small-sample tasks with a FIFO budget,
then reports each method's picked cell and its test accuracy alongside the
oracle's; handy for eyeballing how the heuristic behaves as the task recipe
changes.

Seeds 0-9, 15-19 and 40-44 have been looked at with this script, so no
acceptance gate may use them. Seeds 10-14 stay unseen: they are kept for the
first acceptance test of the twin selector's segmentation.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from twinsearch.grid import build_log_grid
from twinsearch.matrices import assemble, build_metric_surfaces
from twinsearch.quickshift import default_params
from twinsearch.scheduler import SchedulerPolicy
from twinsearch.search import execute_search
from twinsearch.selector import (
    METHOD_ORACLE,
    METHOD_SELTS,
    METHOD_SELVS,
    baseline_select,
    evaluate,
    twin_pipeline,
)
from twinsearch.tasks import TaskSpec
from twinsearch.trainer import ArchSpec, TrainerConfig


def run_one(seed: int, args) -> tuple[dict, np.ndarray, int]:
    grid = build_log_grid(5e-5, 5e-1, args.n_grid, 5e-5, 5e-1, args.n_grid)
    task_spec = TaskSpec(
        seed=seed,
        n_train=args.n_train,
        n_val=args.n_val,
        n_test=args.n_test,
        n_classes=args.n_classes,
        input_dim=args.input_dim,
        class_separation=args.class_sep,
        label_noise=args.label_noise,
    )
    config = TrainerConfig(momentum=args.momentum, batch_size=args.batch_size, init_seed=seed)
    policy = SchedulerPolicy("fifo", args.epochs)
    records = execute_search(grid, policy, task_spec.make(), ArchSpec(tuple(args.hidden)), config)
    mats = assemble(records, grid)
    surfaces = build_metric_surfaces(records, grid, "fifo")
    artifacts = twin_pipeline(mats, grid, default_params(grid))
    selections = {"twin": artifacts.selection}
    for method in (METHOD_SELTS, METHOD_SELVS, METHOD_ORACLE):
        try:
            selections[method] = baseline_select(mats, surfaces, method, grid)
        except ValueError:
            pass
    return selections, surfaces.test_acc, artifacts.segments.n_regions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--n-grid", type=int, default=7)
    parser.add_argument("--n-train", type=int, default=100)
    parser.add_argument("--n-val", type=int, default=20)
    parser.add_argument("--n-test", type=int, default=2000)
    parser.add_argument("--n-classes", type=int, default=3)
    parser.add_argument("--input-dim", type=int, default=16)
    parser.add_argument("--class-sep", type=float, default=2.5)
    parser.add_argument("--label-noise", type=float, default=0.15)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--momentum", type=float, default=0.9)
    parser.add_argument("--hidden", type=int, nargs="+", default=[32])
    args = parser.parse_args(argv)

    t0 = time.time()
    per_config = []
    test_surfaces = []
    for seed in args.seeds:
        selections, test_acc, n_regions = run_one(seed, args)
        per_config.append(selections)
        test_surfaces.append(test_acc)
        oracle_acc = test_acc[selections["oracle"].cell.row, selections["oracle"].cell.col]
        row = [f"seed {seed}: regions={n_regions} oracle={100 * oracle_acc:.1f}"]
        for method in ("twin", "selts", "selvs"):
            if method not in selections:
                continue
            cell = selections[method].cell
            acc = test_acc[cell.row, cell.col]
            row.append(f"{method}={100 * acc:.1f} (err {100 * (oracle_acc - acc):.1f})")
        print("  ".join(row))

    report = evaluate(per_config, test_surfaces)
    print()
    for method in ("twin", "selts", "selvs"):
        if method in report.mae:
            print(f"MAE vs oracle [{method}]: {100 * report.mae[method]:.2f} points")
    print(f"elapsed: {time.time() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
