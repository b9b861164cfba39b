"""End-to-end search orchestration.

Drives every grid cell's trial in lockstep epoch rounds on one thread: each
round advances all alive trials by one epoch in cell order, then hands the
whole round to the scheduler in one ``Schedule.decide`` call, so rung
outcomes resolve within the round and each trial line carries the status
its epoch ended with. All trials share one ``Cohort``, built with every
cell's trial, which holds the task, the model, the ``TrainerConfig``, the
epoch horizon (the scheduler's budget, the one epoch budget of the search)
and every alive trial's parameters, velocity, lr0 and wd as rows of its
stacks. A round's epoch is computed as stacked passes over row slices of
those stacks, bit for bit what each trial would compute alone. A trial
leaves the cohort when it ends, keeping no parameters, and the search drops
its runner then; the next step shrinks the stacks to the alive trials'
rows. So only alive trials' state is held; the records of all trials are
kept.

Val/test accuracy is computed only when a trial ends, on the last
``metric_window(policy.kind)`` finite epochs its baseline summary reads. So
a trial's file is written once, whole and with its metrics, in the round
the trial ends. The trial files and the decision log are exports that no
command reads. Creating 900-1,600 files costs more than writing them, so a
search with a store creates every cell's file empty on a helper thread from
its start, while the cohort trains, and joins that thread just before its
first write (the first rung under HB; the last round or the first
divergence under FIFO) and again at its end, so no thread outlives it. A
process killed mid-search can leave empty files for the trials that had
not ended; no command reads them. The helper thread goes when ROADMAP item
15 deletes the trial files. Every file of a run is written through ``RunStore``:
after the search ``run_and_store`` turns the records the search returns into
``records.Records`` columns once (``Records.of``), drops the per-epoch
records, and has the store write the columns to ``records.json``
(``RunStore.write_records``); commands read only that. It then writes the
run's matrices to ``matrices.json``, an export that no command reads, and
its twin pick at ``default_params(grid)`` to ``selection.json``, the one
record of the pick: ``select`` may replace it, and ``eval`` and ``plot``
read it. ``slice_records`` cuts a stored run's columns to a sub-grid by
index, for ``select`` with grid strides.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, replace

import numpy as np

from .grid import GridCell, HyperGrid, cell_params, slice_grid
from .matrices import assemble, metric_window
from .quickshift import default_params
from .runstore import RunStore
from .scheduler import Schedule, SchedulerPolicy
from .selector import TwinArtifacts, twin_pipeline
from .tasks import SyntheticTask, TaskSpec
from .trainer import (
    STATUS_DIVERGED,
    STATUS_STOPPED_EARLY,
    ArchSpec,
    Cohort,
    TrainerConfig,
    TrialRecord,
)

__all__ = ["execute_search", "run_and_store", "slice_records"]


def execute_search(
    grid: HyperGrid,
    policy: SchedulerPolicy,
    task: SyntheticTask,
    arch: ArchSpec,
    config: TrainerConfig,
    store: RunStore | None = None,
    run_id: str | None = None,
) -> dict[GridCell, TrialRecord]:
    """Train every grid cell for up to ``policy.epoch_budget`` epochs; optionally persist.

    With a store, a trial that ends in a round (completed, stopped early or
    diverged) gets its whole trial file then, one line per epoch, in cell
    order; the round's decisions are appended after the round's trial files.
    The files are created empty on a helper thread from the start, which the
    search joins before its first write, re-raising what the thread raised,
    and at its end, however it ends.
    """
    persist = store is not None and run_id is not None
    cells = grid.cells()  # one list, shared with the helper thread
    failure: list[BaseException] = []

    def create_files() -> None:
        try:
            store.create_trial_files(run_id, cells)
        except BaseException as exc:  # raised on the search's thread at the join
            failure.append(exc)

    creator = threading.Thread(target=create_files) if persist else None
    if creator is not None:
        creator.start()
    try:
        schedule = Schedule(policy, grid.n_trials)
        trials = [(cell, *cell_params(grid, cell)) for cell in cells]
        cohort = Cohort(task, arch, config, policy.epoch_budget, metric_window(policy.kind), trials)
        # in cell order; an ended runner is dropped, which frees its metric window
        alive = list(cohort.members)
        records: dict[GridCell, TrialRecord] = {r.cell: r.record for r in alive}
        decisions_written = 0
        epoch = 0
        while alive:
            epoch += 1
            losses: dict[GridCell, float | None] = {}
            for runner in alive:
                last = runner.step_epoch()
                losses[runner.cell] = None if runner.record.status == STATUS_DIVERGED else last.train_loss
            schedule.decide(epoch, losses)

            for runner in alive:
                if not runner.done and not schedule.is_alive(runner.cell):
                    runner.finish(STATUS_STOPPED_EARLY)
                if persist and runner.done:
                    if creator is not None:  # the first write waits for the files
                        creator.join()
                        creator = None
                        if failure:
                            raise failure[0]
                    store.append_trial_line(run_id, runner.record)
            if persist:
                new = schedule.decision_log[decisions_written:]
                if new:
                    store.append_decisions(run_id, new)
                    decisions_written += len(new)
            alive = [r for r in alive if not r.done]
    finally:
        if creator is not None:
            creator.join()

    return records


def slice_records(records, grid: HyperGrid, lr_stride: int, wd_stride: int):
    """Subset a finished run's ``records.Records``, which hold every cell of ``grid``, to
    every stride-th grid line: the sub-grid's records, cells reindexed and in row-major
    order, and the sub-grid."""
    sub_grid = slice_grid(grid, lr_stride, wd_stride)
    trial = np.empty(grid.n_trials, dtype=np.int64)  # the trial of each cell, by flat index
    trial[records.row * grid.n_lr + records.col] = np.arange(records.row.size)
    rows, cols = np.divmod(np.arange(sub_grid.n_trials), sub_grid.n_lr)
    trials = trial[rows * wd_stride * grid.n_lr + cols * lr_stride]
    return replace(records.take(trials), row=rows, col=cols), sub_grid


def run_and_store(
    store: RunStore,
    run_id: str,
    grid: HyperGrid,
    policy: SchedulerPolicy,
    task_spec: TaskSpec,
    arch: ArchSpec,
    config: TrainerConfig,
) -> TwinArtifacts:
    """Full pipeline with persistence, each file written by ``store``: the manifest
    (``asdict`` of each spec), trial files and decisions (exports), ``records.json``
    (what later commands load), matrices (an export), selection. The search's
    ``TrialRecord``s become ``Records`` columns once, before ``records.json``
    is written; the matrices are assembled from those columns. The trial files
    are created on ``execute_search``'s helper thread and written as trials end;
    ``records.json`` is written after the search, so a killed ``run`` leaves no
    loadable run, and maybe empty trial files.

    The pick uses ``default_params(grid)``; ``twinsearch select`` re-selects
    with other segmentation parameters and replaces ``selection.json`` only:
    the matrices do not depend on them.
    """
    manifest = {
        "grid": asdict(grid),
        "scheduler": asdict(policy),
        "task": asdict(task_spec),
        "arch": asdict(arch),
        "trainer": asdict(config),
    }
    store.create_run(run_id, manifest)
    records = execute_search(grid, policy, task_spec.make(), arch, config, store=store, run_id=run_id)
    # imported only now, so that the module is compiled after the search's memory peak, not before
    from .records import Records

    records = Records.of(records.values())  # the search's per-epoch records are dropped here
    store.write_records(run_id, records)
    mats = assemble(records, grid)
    artifacts = twin_pipeline(mats, grid, default_params(grid))
    store.write_matrices(run_id, mats)
    store.write_selection(run_id, artifacts)
    return artifacts
