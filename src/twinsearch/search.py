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
command reads: ``run_and_store`` writes every record the search returns to
``records.json`` after the search, and commands read only that. It then
writes the run's matrices to ``matrices.json``, an export that no command
reads, and its twin pick at ``default_params(grid)`` to ``selection.json``,
the one record of the pick: ``select`` may replace it, and ``eval`` and
``plot`` read it.
"""

from __future__ import annotations

from dataclasses import asdict

from .grid import GridCell, HyperGrid, cell_params, slice_grid
from .matrices import assemble, metric_window
from .quickshift import default_params
from .runstore import RunStore
from .scheduler import Schedule, SchedulerPolicy
from .selector import TwinArtifacts, twin_pipeline
from .records import write_records
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
    """
    schedule = Schedule(policy, grid.n_trials)
    trials = [(cell, *cell_params(grid, cell)) for cell in grid.cells()]
    cohort = Cohort(task, arch, config, policy.epoch_budget, metric_window(policy.kind), trials)
    # in cell order; an ended runner is dropped, which frees its metric window
    alive = list(cohort.members)
    records: dict[GridCell, TrialRecord] = {r.cell: r.record for r in alive}
    persist = store is not None and run_id is not None
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
                store.append_trial_line(run_id, runner.record)
        if persist:
            new = schedule.decision_log[decisions_written:]
            if new:
                store.append_decisions(run_id, new)
                decisions_written += len(new)
        alive = [r for r in alive if not r.done]

    return records


def slice_records(
    records: dict[GridCell, TrialRecord],
    grid: HyperGrid,
    lr_stride: int,
    wd_stride: int,
) -> tuple[dict[GridCell, TrialRecord], HyperGrid]:
    """Subset a finished run to every stride-th grid line, reindexing cells."""
    sub_grid = slice_grid(grid, lr_stride, wd_stride)
    sub_records: dict[GridCell, TrialRecord] = {}
    for row in range(sub_grid.n_wd):
        for col in range(sub_grid.n_lr):
            src = GridCell(row * wd_stride, col * lr_stride)
            rec = records[src]
            new_cell = GridCell(row, col)
            sub_records[new_cell] = TrialRecord(
                cell=new_cell, epochs=list(rec.epochs), status=rec.status
            )
    return sub_records, sub_grid


def run_and_store(
    store: RunStore,
    run_id: str,
    grid: HyperGrid,
    policy: SchedulerPolicy,
    task_spec: TaskSpec,
    arch: ArchSpec,
    config: TrainerConfig,
) -> TwinArtifacts:
    """Full pipeline with persistence: manifest, trial files and decisions (exports),
    ``records.json`` (what later commands load), matrices (an export), selection.

    The pick uses ``default_params(grid)``; ``twinsearch select`` re-selects
    with other segmentation parameters and replaces ``selection.json`` only:
    the matrices do not depend on them.
    """
    manifest = {
        "grid": grid.to_dict(),
        "scheduler": policy.to_dict(),
        "task": task_spec.to_dict(),
        "arch": arch.to_dict(),
        "trainer": asdict(config),
    }
    store.create_run(run_id, manifest)
    records = execute_search(grid, policy, task_spec.make(), arch, config, store=store, run_id=run_id)
    write_records(store, run_id, records.values())
    mats = assemble(records.values(), grid)
    artifacts = twin_pipeline(mats, grid, default_params(grid))
    store.write_matrices(run_id, mats)
    store.write_selection(run_id, artifacts)
    return artifacts
