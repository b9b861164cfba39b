"""End-to-end search orchestration.

Drives every grid cell's trial in lockstep epoch rounds: each round
advances all alive trials by one epoch, then hands the whole round, in cell
order, to the scheduler in one ``Schedule.decide`` call, so rung outcomes
resolve within the round and each trial line carries the status its epoch
ended with. The trials are split into ``shard_count(jobs, ...)`` shards,
interleaved by cell index: at most one per CPU this process may use and one
per ``STACK_SLICE`` trials, and one where the process cannot fork or runs
other threads. Every shard is a ``ShardTrials``, the one code path that stops
and steps trials: shard 0 in this process, every other one in a forked
child (``twinsearch.shards``, imported only when a search forks). Each
round the search sends every shard one command, the same list: the cells
that the last round's rung stopped, usually none. A shard finishes those it
holds, steps its live trials and replies with their losses and the records
that ended. Only the schedule and each cohort know which trials are alive;
a shard's ``cells`` are fixed. Each shard's ``Cohort`` holds the task, the
model, the ``TrainerConfig``, the epoch horizon (the scheduler's budget,
the one epoch budget of the search) and every alive trial of its shard's
parameters, velocity, lr0 and wd as rows of its stacks. A round's epoch is
computed as stacked passes over row slices of those stacks, bit for bit
what each trial would compute alone, so the records do not depend on the
shard count. A trial leaves its cohort's ``members``, its shard's live
runners, when it ends, keeping no parameters; the next step shrinks the
stacks to the alive trials' rows. So only alive trials' state is held.

An epoch's train loss and norm live in float64 from the step to
``records.json``. The stacked step writes them into its cohort's epoch log
(``Cohort.log``, shape (epochs, trials, 2)); a trial that ends takes a
float64 copy of its column into its ``TrialRecord``, and its shard replies
with those records, pickled as float64 blocks by a forked one. From the
round a trial ends in, the search keeps its record, and after the last
round ``Records.of`` concatenates the blocks in cell order. The trial files
are encoded from each block's ``tolist()``, one trial at a time, so no
layer holds a Python float per trial-epoch.

Val/test accuracy is computed only when a trial ends, on the last
``metric_window(policy.kind)`` finite epochs its baseline summary reads.
The trial files and the decision log are exports that no command reads,
and only this process writes them, once, when the last round is done:
each trial's file whole, with its metrics, in cell order, then the whole
decision log. Creating 900-1,600 files costs more than writing them, so a
search with a store creates them empty on one helper thread of this
process, started after the fork and joined when the rounds end, however
they end; a forked shard only trains and never calls the store. A process
killed mid-search can leave empty trial files; no command reads them. The
helper thread goes when ROADMAP item 18 deletes the trial files.

``execute_search`` returns ``records.Records``, built once after the last
round from the trials' ``TrialRecord``s in cell order
(``Records.of``; ``records`` is imported only then, after the search's
memory peak). Every file of a run is written through ``RunStore``:
``run_and_store`` has it write those columns to ``records.json``
(``RunStore.write_records``), which is all commands read of the trials, and
then writes the run's matrices to ``matrices.json``, an export that no
command reads, and its twin pick at ``default_params(grid)`` to
``selection.json``, the one record of the pick: ``select`` may replace it,
and ``eval`` and ``plot`` read it. ``slice_records`` cuts a stored run's
columns to a sub-grid by index, for ``select`` with grid strides.
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

__all__ = [
    "ShardLostError", "ShardTrials", "execute_search", "run_and_store", "shard_count", "slice_records",
    "usable_cpus",
]


class ShardLostError(RuntimeError):
    """A forked shard of a search ended without a whole reply."""


class ShardTrials:
    """One shard's trials: the live runners, its cohort's ``members``, and its ``cells``, fixed.

    ``cells`` are the shard's cells in cell order, so ``cells[runner.index]``
    is each runner's cell. ``run`` answers a command, the cells the last
    rung stopped (usually none): it finishes those of them it holds as
    stopped early, then steps every live trial one epoch. The reply maps
    each stepped trial's ``runner.index`` to its train loss, ``None`` if it
    diverged, and lists the ``TrialRecord`` of each trial that ended, its
    epochs a float64 block. It only trains: it writes nothing and holds no
    store. ``send`` runs a command and ``receive`` returns its reply, so the
    search drives this shard as it drives a forked one's ``shards.Shard``.
    It holds the cohort's ``members``, not the cohort, so once its last
    trial ends it holds nothing of its cohort.
    """

    def __init__(self, cohort: Cohort):
        self._members = cohort.members
        self.cells = [runner.cell for runner in cohort.members]

    def run(self, stopping: list[GridCell]) -> tuple[dict[int, float | None], list[TrialRecord]]:
        runners = list(self._members)
        stop = set(stopping)
        for runner in runners:
            if runner.cell in stop:
                runner.finish(STATUS_STOPPED_EARLY)
        losses = {}
        for runner in list(self._members):
            loss = runner.step_epoch()
            losses[runner.index] = None if runner.record.status == STATUS_DIVERGED else loss
        return losses, [runner.record for runner in runners if runner.done]

    def send(self, command: list[GridCell]) -> None:
        self._reply = self.run(command)

    def receive(self) -> tuple[dict[int, float | None], list[TrialRecord]]:
        return self._reply


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
):
    """Train every grid cell for up to ``policy.epoch_budget`` epochs, optionally persist, and
    return every trial's record as ``records.Records`` columns, in cell order.

    The trials are split into ``shard_count`` shards, each a ``ShardTrials``:
    shard 0 in this process, every other one in a child forked before the
    helper thread starts (``twinsearch.shards``). A process that cannot
    fork, or that runs other threads, whose held locks a fork would copy
    without them, trains every trial itself. A round is one exchange with
    the shards, which sends every command, this process's own last, before
    it reads any reply. The command is the cells that the last
    ``Schedule.decide`` stopped at a rung, the same for every shard: each
    shard finishes those it holds, then steps its live trials one epoch.
    ``decide`` then takes the round's train losses in cell order and returns
    the next command. Rounds run while the schedule has a trial alive; no
    stop is left then, since a rung promotes at least one trial and every
    trial at the budget completes on its own. The records, files and
    decisions are the same at any ``jobs``. No child outlives the search,
    however it ends.

    With a store, this process is the one that writes: a helper thread
    creates every trial file empty while the shards train, and is joined
    when the rounds end, however they end. Then what it raised is raised;
    else every trial file is written whole, in cell order, one line per
    epoch, and the decision log is appended in one call.
    """
    persist = store is not None and run_id is not None
    cells = grid.cells()
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    k = shard_count(jobs, grid.n_trials, usable_cpus() if can_fork else 1)
    window = metric_window(policy.kind)
    failure: list[BaseException] = []

    def make_shard(shard_cells: list[GridCell]) -> ShardTrials:
        trials = [(cell, *cell_params(grid, cell)) for cell in shard_cells]
        return ShardTrials(Cohort(task, arch, config, policy.epoch_budget, window, trials))

    def create_files() -> None:
        try:
            store.create_trial_files(run_id, cells)
        except BaseException as exc:  # raised after the join, on the search's thread
            failure.append(exc)

    if k > 1:  # forked before the helper thread starts
        from .shards import forked

        sharding = forked(make_shard, [cells[s::k] for s in range(1, k)])
    else:
        sharding = contextlib.nullcontext([])
    with sharding as children:
        helper = threading.Thread(target=create_files) if persist else None
        if helper:
            helper.start()
        try:
            # the children work while this process works on its own
            shards = [*children, make_shard(cells[::k])]
            schedule = Schedule(policy, grid.n_trials)
            records: dict[GridCell, TrialRecord] = dict.fromkeys(cells)
            epoch, stopped = 0, []
            while schedule.alive_count:
                epoch += 1
                for shard in shards:
                    shard.send(stopped)
                losses = {}
                for shard in shards:
                    reply, ended = shard.receive()
                    losses.update((shard.cells[index], loss) for index, loss in reply.items())
                    records.update((record.cell, record) for record in ended)
                stopped = schedule.decide(epoch, dict(sorted(losses.items())))
        finally:
            if helper:
                helper.join()
    if failure:
        raise failure[0]
    if persist:
        for cell in cells:
            store.append_trial_line(run_id, records[cell])
        store.append_decisions(run_id, schedule.decision_log)
    # imported only now, so that the module is compiled after the search's memory peak, not before
    from .records import Records

    return Records.of(list(records.values()))


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
    (what later commands load), matrices (an export), selection, the last three
    from the ``Records`` columns the search returns.
    ``execute_search`` creates the trial files on its one helper thread and
    writes them, and the decision log, when its last round is done;
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
    store.write_records(run_id, records)
    mats = assemble(records, grid)
    artifacts = twin_pipeline(mats, grid, default_params(grid))
    store.write_matrices(run_id, mats)
    store.write_selection(run_id, artifacts)
    return artifacts
