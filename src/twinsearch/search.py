"""End-to-end search orchestration.

Drives every grid cell's trial in lockstep epoch rounds: each round
advances all alive trials by one epoch, then hands the whole round, in cell
order, to the scheduler in one ``Schedule.decide`` call, so rung outcomes
resolve within the round and each trial line carries the status its epoch
ended with. The trials are split into ``shard_count(jobs, ...)`` shards,
interleaved by cell index: at most one per CPU this process may use and one
per ``STACK_SLICE`` trials, and one where the process cannot fork or runs
other threads. Shard 0 is this process's ``Cohort``; every other shard is a
``Cohort`` in a forked child (``twinsearch.shards``, imported only when a
search forks). Each cohort holds the task, the model, the ``TrainerConfig``,
the epoch horizon (the scheduler's budget, the one epoch budget of the
search) and every alive trial of its shard's parameters, velocity, lr0 and
wd as rows of its stacks. A round's epoch is computed as stacked passes over
row slices of those stacks, bit for bit what each trial would compute alone,
so the records do not depend on the shard count. A trial leaves its cohort
when it ends, keeping no parameters, and the search drops its runner then;
the next step shrinks the stacks to the alive trials' rows. So only alive
trials' state is held; the records of all trials are kept, those of a child's
trials from the round they end in, when the child sends them.

Val/test accuracy is computed only when a trial ends, on the last
``metric_window(policy.kind)`` finite epochs its baseline summary reads. So
a trial's file is written once, whole and with its metrics, in the round
the trial ends, by this process. The trial files and the decision log are
exports that no command reads. Creating 900-1,600 files costs more than
writing them, so each process of a search with a store creates its shard's
files empty on a helper thread (``TrialFiles``) from its start, while its
cohort trains. This process joins its thread just before its first write
(the first rung under HB; the last round or the first divergence under
FIFO) and again at its end, so no thread outlives it; a child joins its
thread before it sends its first record. A process killed mid-search can
leave empty files for the trials that had not ended; no command reads them.
The helper threads go when ROADMAP item 15 deletes the trial files. Every
file of a run is written through ``RunStore``:
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

import contextlib
import os
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
    STACK_SLICE,
    STATUS_DIVERGED,
    STATUS_STOPPED_EARLY,
    ArchSpec,
    Cohort,
    TrainerConfig,
    TrialRecord,
)

__all__ = ["execute_search", "run_and_store", "shard_count", "slice_records", "usable_cpus"]


class TrialFiles:
    """Creates the empty trial files of a run's ``cells`` on a helper thread, from its
    construction on; ``wait`` joins it and raises what it raised, ``join`` only joins it."""

    def __init__(self, store: RunStore, run_id: str, cells: list[GridCell]):
        self._failure: list[BaseException] = []
        self._thread = threading.Thread(target=self._create, args=(store, run_id, cells))
        self._thread.start()

    def _create(self, store: RunStore, run_id: str, cells: list[GridCell]) -> None:
        try:
            store.create_trial_files(run_id, cells)
        except BaseException as exc:  # raised by wait, on the waiting thread
            self._failure.append(exc)

    def join(self) -> None:
        self._thread.join()

    def wait(self) -> None:
        self._thread.join()
        if self._failure:
            raise self._failure[0]


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def shard_count(jobs: int, n_trials: int, cpus: int) -> int:
    """The processes that train a search's ``n_trials`` trials: ``jobs``, but at most one per
    CPU of ``cpus`` and one per ``STACK_SLICE`` trials."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, cpus, -(-n_trials // STACK_SLICE))


def execute_search(
    grid: HyperGrid,
    policy: SchedulerPolicy,
    task: SyntheticTask,
    arch: ArchSpec,
    config: TrainerConfig,
    store: RunStore | None = None,
    run_id: str | None = None,
    jobs: int = 1,
) -> dict[GridCell, TrialRecord]:
    """Train every grid cell for up to ``policy.epoch_budget`` epochs; optionally persist.

    With ``jobs`` above 1 the trials are split into ``shard_count`` shards,
    all but the first trained in children forked before any helper thread
    starts (``twinsearch.shards``); the records, files and decisions are the
    same at any ``jobs``. A process that cannot fork, or that runs other
    threads, whose held locks a fork would copy without them, trains every
    trial itself. No child outlives the search, however it ends.

    With a store, a trial that ends in a round (completed, stopped early or
    diverged) gets its whole trial file then, one line per epoch, in cell
    order; the round's decisions are appended after the round's trial files.
    Each process creates its shard's files empty on a helper thread from the
    start; this process joins its own before its first write, re-raising what
    the thread raised, and at its end, however it ends.
    """
    persist = store is not None and run_id is not None
    cells = grid.cells()
    trials = [(cell, *cell_params(grid, cell)) for cell in cells]
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    k = shard_count(jobs, grid.n_trials, usable_cpus() if can_fork else 1)
    window = metric_window(policy.kind)

    if k > 1:  # forked before the helper thread starts
        from .shards import forked

        files = (lambda shard_cells: TrialFiles(store, run_id, shard_cells)) if persist else None
        sharding = forked(task, arch, config, policy.epoch_budget, window, trials, k, files)
    else:
        sharding = contextlib.nullcontext([])
    with sharding as remote:
        creator = TrialFiles(store, run_id, cells[::k]) if persist else None
        try:
            schedule = Schedule(policy, grid.n_trials)
            cohort = Cohort(task, arch, config, policy.epoch_budget, window, trials[::k])
            # in cell order; an ended runner is dropped, which frees its metric window
            alive = list(cohort.members)
            records: dict[GridCell, TrialRecord] = dict.fromkeys(cells)
            records.update((r.cell, r.record) for r in alive)
            decisions_written = 0
            epoch = 0
            while alive or any(shard.cells for shard in remote):
                epoch += 1
                for shard in remote:  # the children step while this process steps its trials
                    shard.step()
                losses: dict[GridCell, float | None] = {}
                for runner in alive:
                    last = runner.step_epoch()
                    losses[runner.cell] = None if runner.record.status == STATUS_DIVERGED else last.train_loss
                ended: list[TrialRecord] = []
                for shard in remote:
                    shard.stepped(losses, ended)
                if remote:
                    losses = dict(sorted(losses.items()))  # cell order
                schedule.decide(epoch, losses)

                for shard in remote:
                    shard.stop(schedule)
                for runner in alive:
                    if not runner.done and not schedule.is_alive(runner.cell):
                        runner.finish(STATUS_STOPPED_EARLY)
                for shard in remote:
                    shard.stopped(ended)
                ended += [r.record for r in alive if r.done]
                if remote:
                    ended.sort(key=lambda record: record.cell)
                    records.update((record.cell, record) for record in ended)
                if persist:
                    if ended:  # the first write waits for this process's files
                        creator.wait()
                    for record in ended:
                        store.append_trial_line(run_id, record)
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
    jobs: int = 1,
) -> TwinArtifacts:
    """Full pipeline with persistence, each file written by ``store``: the manifest
    (``asdict`` of each spec), trial files and decisions (exports), ``records.json``
    (what later commands load), matrices (an export), selection. The search's
    ``TrialRecord``s become ``Records`` columns once, before ``records.json``
    is written; the matrices are assembled from those columns. The trial files
    are created on ``execute_search``'s helper thread and written as trials end;
    ``records.json`` is written after the search, so a killed ``run`` leaves no
    loadable run, and maybe empty trial files. ``jobs`` is ``execute_search``'s.

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
    records = execute_search(grid, policy, task_spec.make(), arch, config, store, run_id, jobs)
    # imported only now, so that the module is compiled after the search's memory peak, not before
    from .records import Records

    records = Records.of(records.values())  # the search's per-epoch records are dropped here
    store.write_records(run_id, records)
    mats = assemble(records, grid)
    artifacts = twin_pipeline(mats, grid, default_params(grid))
    store.write_matrices(run_id, mats)
    store.write_selection(run_id, artifacts)
    return artifacts
