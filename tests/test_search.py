"""execute_search scores val/test only at trial end and writes each trial file then.

The reference replays every trial eagerly in a runner of its own, scoring
each finite epoch with MLP.accuracy. The search steps all trials as one
cohort, in stacked slices; its epochs must equal the reference's bit for bit,
and the baseline surfaces built from its records (in memory and reloaded
from the store) must equal the reference's exactly.
"""

import dataclasses
import gc
import json
import math
import os
import sys
import threading
import time
import tracemalloc
import weakref
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from records_frozen import Epoch, trial_log, trial_record, trial_records

from twinsearch.grid import GridCell, build_log_grid, cell_params
from twinsearch.matrices import LAST_K, build_metric_surfaces, metric_window
from twinsearch.records import Records
from twinsearch.runstore import RunStore, RunStoreError
from twinsearch.scheduler import Schedule, SchedulerPolicy, rung_levels
from twinsearch import search, trainer
from twinsearch.search import execute_search
from twinsearch.tasks import TaskSpec
from twinsearch.trainer import (
    MLP,
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    STATUS_RUNNING,
    STATUS_STOPPED_EARLY,
    TERMINAL_STATUSES,
    ArchSpec,
    Cohort,
    TrainerConfig,
    schedule_lr,
    sgdm_step,
)

TASK_SPEC = TaskSpec(seed=0, n_train=40, n_val=8, n_test=30, input_dim=4, n_classes=3)
ARCH = ArchSpec((8,))
CONFIG = TrainerConfig(batch_size=2, lr_schedule="constant")

# A constant LR up to 1e8 (FIFO) or 1e7 (HB) with WD up to 100 makes cells
# diverge at epochs 0 to 5; HB at stop fraction 0.5 also stops cells at its
# first rung (epoch 1). test_grid_covers_the_edge_cases pins that down.
CASES = {
    "fifo": (SchedulerPolicy("fifo", 10), build_log_grid(1e-2, 1e8, 4, 1e-3, 100, 4)),
    "hb": (
        SchedulerPolicy("hb", 10, stop_fraction=0.5),
        build_log_grid(1e-2, 1e7, 4, 1e-3, 100, 4),
    ),
}


def _finite(entry: Epoch) -> bool:
    return math.isfinite(entry.train_loss) and math.isfinite(entry.param_norm)


def eager_records(records, grid, task, policy):
    """Replay each trial alone for the epochs the search ran, scoring every finite epoch.

    A replayed trial that is still running was stopped by the scheduler.
    """
    out = {}
    for cell, rec in records.items():
        trial = (cell, *cell_params(grid, cell))
        cohort = Cohort(task, ARCH, CONFIG, policy.epoch_budget, metric_window(policy.kind), [trial])
        (runner,) = cohort.members
        model = cohort.model
        epochs = []
        for epoch in range(rec.epochs_run):
            runner.step_epoch()
            entry = Epoch(epoch, *cohort.log[epoch, runner.index].tolist())
            val = test = None
            if _finite(entry):
                # the lone trial's row: an ended runner keeps no theta, but
                # nothing compacts a one-trial cohort's stack
                theta = cohort._theta[0]
                val = model.accuracy(theta, task.val_inputs, task.val_labels)
                test = model.accuracy(theta, task.test_inputs, task.test_labels)
            epochs.append((entry.train_loss, entry.param_norm, val, test))
        status = runner.record.status if runner.done else STATUS_STOPPED_EARLY
        out[cell] = trial_record(cell, epochs, status)
    return out


@pytest.fixture(scope="module", params=sorted(CASES))
def searched(request, tmp_path_factory):
    kind = request.param
    policy, grid = CASES[kind]
    task = TASK_SPEC.make()
    store = RunStore(tmp_path_factory.mktemp(kind) / "runs")
    store.create_run("run", {"grid": dataclasses.asdict(grid), "scheduler": dataclasses.asdict(policy)})

    calls = []
    original = MLP.accuracy

    def counting(self, theta, x, y):
        calls.append(1)
        return original(self, theta, x, y)

    rounds = []
    decide = Schedule.decide

    def counting_rounds(self, epoch, losses):
        rounds.append(epoch)
        return decide(self, epoch, losses)

    # (round, cell, epochs and status of the record) at each write
    writes = []
    write = store.append_trial_line

    def recording(run_id, record):
        writes.append((rounds[-1], record.cell, record.epochs_run, record.status))
        return write(run_id, record)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MLP, "accuracy", counting)
        mp.setattr(Schedule, "decide", counting_rounds)
        mp.setattr(store, "append_trial_line", recording)
        mp.setattr(trainer, "STACK_SLICE", 5)  # uneven slices of the 16 cells
        columns = execute_search(grid, policy, task, ARCH, CONFIG, store=store, run_id="run")
    store.write_records("run", columns)
    records = trial_records(columns)
    return SimpleNamespace(
        kind=kind,
        grid=grid,
        store=store,
        columns=columns,
        records=records,
        eager=eager_records(records, grid, task, policy),
        accuracy_calls=len(calls),
        writes=writes,
    )


def assert_same_surfaces(a, b):
    for name in ("train_loss", "val_acc", "test_acc"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name


def test_grid_covers_the_edge_cases(searched):
    w = metric_window(searched.kind)
    finite_by_status: dict[str, list[int]] = {}
    for rec in searched.records.values():
        finite_by_status.setdefault(rec.status, []).append(sum(_finite(e) for e in rec.epochs))
    diverged = finite_by_status[STATUS_DIVERGED]
    assert min(diverged) < w  # diverged before w finite epochs existed
    assert max(diverged) >= w  # needs metrics on w epochs before its last
    assert STATUS_COMPLETED in finite_by_status
    if searched.kind == "hb":
        assert any(0 < d < w for d in diverged)
        assert min(finite_by_status[STATUS_STOPPED_EARLY]) < LAST_K  # stopped at the first rung


def loop_reference(task, config, cell, lr, wd, epochs, horizon):
    """(train_loss, param_norm) per epoch of one trial, updated one vector at a time.

    The LR schedule runs over ``horizon`` epochs, of which the first ``epochs`` are run.
    """
    model = MLP(task.input_dim, ARCH.hidden, task.n_classes)
    rng = np.random.default_rng(np.random.SeedSequence([config.init_seed, cell.row, cell.col]))
    theta = model.init_params(rng)
    velocity = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    x, y = task.train_inputs, task.train_labels
    out = []
    with np.errstate(all="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(len(y))
            losses = []
            for start in range(0, len(y), config.batch_size):
                idx = order[start : start + config.batch_size]
                loss, grad = model.loss_and_grad(theta[None], x[idx][None], y[idx][None])
                lr_t = schedule_lr(config.lr_schedule, lr, epoch, horizon)
                sgdm_step(theta, velocity, grad[0], lr_t, wd, config.momentum, scratch)
                losses.append(float(loss[0]))
            out.append((float(np.mean(losses)), float(np.linalg.norm(theta))))
    return out


def test_epochs_equal_the_one_runner_per_cell_replay_bit_for_bit(searched):
    task = TASK_SPEC.make()
    for cell, rec in searched.records.items():
        reference = searched.eager[cell]
        assert rec.status == reference.status, cell
        logged = np.array([(e.train_loss, e.param_norm) for e in rec.epochs])
        replayed = np.array([(e.train_loss, e.param_norm) for e in trial_log(reference).epochs])
        lr, wd = cell_params(searched.grid, cell)
        budget = CASES[searched.kind][0].epoch_budget
        looped = np.array(loop_reference(task, CONFIG, cell, lr, wd, rec.epochs_run, budget))
        assert logged.tobytes() == replayed.tobytes() == looped.tobytes(), cell


@pytest.mark.parametrize("kind", sorted(CASES))
def test_cosine_epochs_follow_the_policy_budget_bit_for_bit(kind):
    # every trial's cosine schedule runs over the scheduler's budget, also
    # for trials that stop early, and completed trials run all of it
    policy = CASES[kind][0]
    grid = build_log_grid(1e-3, 1.0, 3, 1e-4, 1e-1, 3)
    config = dataclasses.replace(CONFIG, lr_schedule="cosine")
    task = TASK_SPEC.make()
    records = trial_records(execute_search(grid, policy, task, ARCH, config))
    statuses = {rec.status for rec in records.values()}
    assert STATUS_COMPLETED in statuses and (kind == "fifo" or STATUS_STOPPED_EARLY in statuses)
    for cell, rec in records.items():
        assert rec.epochs_run == policy.epoch_budget or rec.status != STATUS_COMPLETED
        logged = np.array([(e.train_loss, e.param_norm) for e in rec.epochs])
        lr, wd = cell_params(grid, cell)
        looped = np.array(loop_reference(task, config, cell, lr, wd, rec.epochs_run, policy.epoch_budget))
        assert logged.tobytes() == looped.tobytes(), cell


def test_epochs_equal_the_loop_at_the_real_stack_slice_with_diverging_rows():
    # 81 cells at the unpatched slice: a full slice and a ragged one, whose
    # stacked norms include the inf and NaN of the rows that diverge
    policy = SchedulerPolicy("fifo", 5)
    grid = build_log_grid(1e-2, 1e8, 9, 1e-3, 100, 9)
    assert grid.n_trials > trainer.STACK_SLICE and grid.n_trials % trainer.STACK_SLICE
    task = TASK_SPEC.make()
    records = trial_records(execute_search(grid, policy, task, ARCH, CONFIG))
    norms = [e.param_norm for rec in records.values() for e in rec.epochs]
    assert any(math.isinf(v) for v in norms) and any(math.isnan(v) for v in norms)
    statuses = {rec.status for rec in records.values()}
    assert statuses == {STATUS_COMPLETED, STATUS_DIVERGED}
    for cell, rec in records.items():
        logged = np.array([(e.train_loss, e.param_norm) for e in rec.epochs])
        lr, wd = cell_params(grid, cell)
        looped = np.array(loop_reference(task, CONFIG, cell, lr, wd, rec.epochs_run, policy.epoch_budget))
        assert logged.tobytes() == looped.tobytes(), cell


def test_surfaces_equal_the_eager_reference(searched):
    kind, grid, eager = searched.kind, searched.grid, searched.eager
    expected = build_metric_surfaces(Records.of(list(eager.values())), grid, kind)
    _, _, loaded = searched.store.load_run("run")
    for records in (searched.columns, loaded):
        assert {c: r.status for c, r in trial_records(records).items()} == {c: r.status for c, r in eager.items()}
        assert_same_surfaces(build_metric_surfaces(records, grid, kind), expected)
    assert np.any(np.isfinite(expected.val_acc)) and np.any(np.isfinite(expected.test_acc))


def test_accuracy_runs_only_on_the_scored_epochs(searched):
    w = metric_window(searched.kind)
    records = searched.records.values()
    scored = sum(min(w, sum(_finite(e) for e in rec.epochs)) for rec in records)
    assert searched.accuracy_calls == 2 * scored  # one val and one test call per scored epoch


def test_trial_files_hold_metrics_only_on_the_last_finite_epochs(searched):
    w = metric_window(searched.kind)
    trials = searched.store.run_dir("run") / "trials"
    for cell, rec in searched.records.items():
        path = trials / f"{cell.row}_{cell.col}.jsonl"
        lines = [json.loads(raw) for raw in path.read_text().splitlines()]
        assert [d["epoch"] for d in lines] == list(range(rec.epochs_run))
        assert [d["status"] for d in lines] == [STATUS_RUNNING] * (rec.epochs_run - 1) + [rec.status]
        finite = [e.epoch for e in rec.epochs if _finite(e)]
        scored = set(finite[-w:])
        for key in ("val_acc", "test_acc"):
            assert {d["epoch"] for d in lines if d[key] is not None} == scored, (cell, key)
        in_memory = {e.epoch for e in rec.epochs if e.val_metric is not None}
        assert in_memory == scored


def test_each_trial_file_is_written_once_whole_after_the_last_round(searched):
    # HB stops trials at its rung and some diverge; each cell's file is
    # written in one call, with the record as it ended, after the last
    # round, in cell order
    assert [cell for _, cell, _, _ in searched.writes] == searched.grid.cells()
    last_round = max(rec.epochs_run for rec in searched.records.values())
    for round_, cell, epochs_run, status in searched.writes:
        rec = searched.records[cell]
        assert (round_, epochs_run, status) == (last_round, rec.epochs_run, rec.status), cell
        assert status in TERMINAL_STATUSES
    statuses = {status for _, _, _, status in searched.writes}
    assert STATUS_DIVERGED in statuses and (searched.kind == "fifo" or STATUS_STOPPED_EARLY in statuses)


def test_records_with_metrics_on_every_epoch_load_to_the_same_surfaces(searched):
    kind, grid, store = searched.kind, searched.grid, searched.store
    policy, _ = CASES[kind]
    store.create_run("old", {"grid": dataclasses.asdict(grid), "scheduler": dataclasses.asdict(policy)})
    store.write_records("old", Records.of(list(searched.eager.values())))
    _, _, old = store.load_run("old")
    _, _, new = store.load_run("run")
    assert_same_surfaces(build_metric_surfaces(old, grid, kind), build_metric_surfaces(new, grid, kind))


def test_valfree_task_never_scores(monkeypatch):
    def refuse(*_args):
        raise AssertionError("accuracy called on a task with no val or test set")

    monkeypatch.setattr(MLP, "accuracy", refuse)
    policy, grid = CASES["hb"]
    task = dataclasses.replace(TASK_SPEC, n_val=0, n_test=0).make()
    records = trial_records(execute_search(grid, policy, task, ARCH, CONFIG))
    assert all(
        e.val_metric is None and e.test_metric is None
        for rec in records.values()
        for e in rec.epochs
    )


def _runners(epochs, cells, task=None, arch=ARCH):
    """The runners, in slot order, of a new cohort with a trial at lr 0.1, wd 0 on each cell."""
    trials = [(GridCell(*cell), 0.1, 0.0) for cell in cells]
    return list(Cohort(task or TASK_SPEC.make(), arch, CONFIG, epochs, 1, trials).members)


def test_cohort_raises_when_a_member_steps_out_of_lockstep():
    a, b = _runners(3, [(0, 0), (0, 1)])
    a.step_epoch()
    with pytest.raises(RuntimeError, match=r"trial GridCell\(row=0, col=1\) stepped out of lockstep"):
        a.step_epoch()  # b has not taken its step of this round
    b.step_epoch()
    a.step_epoch()  # next round


def test_ended_runners_are_freed_without_the_cycle_collector():
    completes, stopped, survivor = _runners(2, [(0, 0), (0, 1), (0, 2)])
    for runner in (completes, stopped, survivor):
        runner.step_epoch()
    stopped.finish(STATUS_STOPPED_EARLY)
    completes.step_epoch()  # steps the last round; the survivor's row waits
    assert completes.record.status == STATUS_COMPLETED
    refs = [weakref.ref(completes), weakref.ref(stopped)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        del completes, stopped
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
    survivor.step_epoch()  # the cohort goes on without them


@pytest.mark.parametrize("schedule", ["cosine", "piecewise", "constant"])
def test_survivors_match_the_loop_after_a_rung_compacts_the_stack(monkeypatch, schedule):
    monkeypatch.setattr(trainer, "STACK_SLICE", 5)  # uneven slices before and after
    config = dataclasses.replace(CONFIG, lr_schedule=schedule)
    grid = build_log_grid(1e-3, 1.0, 4, 1e-4, 1e-1, 3)
    task = TASK_SPEC.make()
    horizon = 4
    trials = [(cell, *cell_params(grid, cell)) for cell in grid.cells()]
    runners = list(Cohort(task, ARCH, config, horizon, 1, trials).members)
    for runner in runners:
        runner.step_epoch()
    # a rung stops every other trial; the survivors' rows move up at the next step
    survivors = runners[1::2]
    for runner in runners[0::2]:
        runner.finish(STATUS_STOPPED_EARLY)
    for _ in range(horizon - 1):
        for runner in survivors:
            runner.step_epoch()
    assert [r._slot for r in survivors] == list(range(len(survivors)))
    for runner in survivors:
        assert runner.record.status == STATUS_COMPLETED
        logged = np.array([(e.train_loss, e.param_norm) for e in trial_log(runner.record).epochs])
        looped = loop_reference(task, config, runner.cell, *cell_params(grid, runner.cell), horizon, horizon)
        assert logged.tobytes() == np.array(looped).tobytes(), runner.cell


def test_an_ended_trial_keeps_no_parameters():
    runners = _runners(4, [(0, col) for col in range(4)])
    for runner in runners:
        runner.step_epoch()
    ended = runners[1]
    norm = float(np.linalg.norm(ended.theta))
    ended.finish(STATUS_STOPPED_EARLY)
    message = r"GridCell\(row=0, col=1\) ended \(stopped_early\) and keeps no parameters"
    for _ in range(3):  # the first step moves a survivor's row into the ended one's
        with pytest.raises(RuntimeError, match=message):
            ended.theta
        assert not [v for v in vars(ended).values() if isinstance(v, (np.ndarray, deque))]
        for runner in runners[:1] + runners[2:]:
            runner.step_epoch()
    assert trial_log(ended.record).epochs[-1].param_norm == norm


def test_the_row_arrays_hold_only_the_members_rows_after_each_rung(monkeypatch):
    monkeypatch.setattr(trainer, "STACK_SLICE", 5)  # several chunks and slices per compaction
    runners = _runners(4, [divmod(i, 4) for i in range(16)])
    cohort = runners[0].cohort
    seen = []
    step_rows = Cohort._step_rows

    def spying(self, rows, members, lr_t):
        seen.append([len(a) for a in (self._theta, self._velocity, self._lr0, self._wd)])
        return step_rows(self, rows, members, lr_t)

    monkeypatch.setattr(Cohort, "_step_rows", spying)
    alive = runners
    # every other trial, then the last survivors only (rows that end at the tail need no move)
    for stop in (lambda a: a[0::2], lambda a: a[-3:], lambda a: []):
        seen.clear()
        for runner in alive:
            runner.step_epoch()
        assert seen and all(lens == [len(alive)] * 4 for lens in seen)
        for runner in stop(alive):
            runner.finish(STATUS_STOPPED_EARLY)
        alive = [r for r in alive if not r.done]
    assert len(alive) == len(cohort.members) == 5


def test_a_held_theta_does_not_stop_the_shrink():
    runners = _runners(3, [(0, col) for col in range(4)])
    for runner in runners:
        runner.step_epoch()
    held = runners[3].theta
    before = held.tobytes()
    runners[0].finish(STATUS_STOPPED_EARLY)
    for runner in runners[1:]:
        runner.step_epoch()  # compacts and shrinks while `held` is alive
    cohort = runners[1].cohort
    assert cohort._theta.shape[0] == 3 and not np.shares_memory(held, cohort._theta)
    assert held.tobytes() == before


@pytest.mark.parametrize("hook", [sys.setprofile, sys.settrace])
def test_a_profile_or_trace_hook_does_not_change_an_hb_search(hook):
    # the hook holds one more reference to each row array, so its in-place resize is refused
    policy, grid = CASES["hb"]
    task = TASK_SPEC.make()
    records = trial_records(execute_search(grid, policy, task, ARCH, CONFIG))
    assert any(r.status == STATUS_STOPPED_EARLY for r in records.values())
    previous = sys.getprofile() if hook is sys.setprofile else sys.gettrace()
    hook(lambda *args: None)
    try:
        hooked = trial_records(execute_search(grid, policy, task, ARCH, CONFIG))
    finally:
        hook(previous)
    assert list(hooked) == list(records)
    for cell, record in records.items():
        assert (hooked[cell].status, hooked[cell].epochs_run) == (record.status, record.epochs_run)
        assert np.array(hooked[cell].epochs, dtype=float).tobytes() == np.array(record.epochs, dtype=float).tobytes()


def test_a_runner_with_nothing_to_score_holds_no_deque():
    task = dataclasses.replace(TASK_SPEC, n_val=0, n_test=0).make()
    (runner,) = _runners(2, [(0, 0)], task)
    assert runner.cohort.metric_window == 0
    for _ in range(2):
        assert not [v for v in vars(runner).values() if isinstance(v, deque)]
        runner.step_epoch()


def test_a_val_free_hb_search_peaks_no_later_than_its_first_rung(monkeypatch):
    # the first rung stops 200 of 400 trials: the step after it shrinks the
    # stacks to the survivors, and no ended trial keeps a theta, so no later
    # round holds more than the rounds before the rung did
    policy = SchedulerPolicy("hb", 12, stop_fraction=0.25, grace_fraction=0.25)
    grid = build_log_grid(5e-5, 5e-1, 20, 5e-5, 5e-1, 20)
    task = TaskSpec(seed=0, n_val=0, n_test=0).make()
    peaks = []  # (epoch, traced peak since the previous round's decision)
    decide = Schedule.decide

    def tracing(self, epoch, losses):
        peaks.append((epoch, tracemalloc.get_traced_memory()[1]))
        tracemalloc.reset_peak()
        return decide(self, epoch, losses)

    monkeypatch.setattr(Schedule, "decide", tracing)
    tracemalloc.start()
    try:
        records = trial_records(execute_search(grid, policy, task, ArchSpec((32,)), TrainerConfig()))
        peaks.append((policy.epoch_budget + 1, tracemalloc.get_traced_memory()[1]))
    finally:
        tracemalloc.stop()
    rung = rung_levels(policy)[0]
    assert rung == 3
    assert sum(r.epochs_run == rung for r in records.values()) == 200
    assert max(peaks, key=lambda p: p[1])[0] <= rung, peaks


def test_a_round_holds_no_second_copy_of_trial_state():
    # a validation-free task keeps no per-epoch theta, so the round allocates
    # only slice temporaries and results on top of the cohort's stacks
    task = dataclasses.replace(TASK_SPEC, n_val=0, n_test=0).make()
    arch = ArchSpec((32,))
    trials = 400
    tracemalloc.start()
    try:
        runners = _runners(3, [divmod(i, 20) for i in range(trials)], task, arch)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        for runner in runners:
            runner.step_epoch()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = trials * runners[0].cohort.model.n_params * 8  # bytes of one (T, P) float64 stack
    assert peak - before < stack


def test_building_a_cohort_allocates_its_stacks_once():
    # theta and velocity take two (T, P) stacks and the runners' own state well
    # under a third; stacks grown by doubling as trials joined peaked above four
    task = dataclasses.replace(TASK_SPEC, n_val=0, n_test=0).make()
    arch = ArchSpec((64,))
    trials = 400
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        runners = _runners(3, [divmod(i, 20) for i in range(trials)], task, arch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stack = trials * runners[0].cohort.model.n_params * 8  # bytes of one (T, P) float64 stack
    assert peak - before < 3 * stack


# The traced memory a search still holds once it returns, per trial-epoch: a 4x4 FIFO grid of
# 60 epochs a trial (960 trial-epochs). Its records, columns from a trial's first epoch and
# returned as ``records.Records``, held 52 B (CPython 3.11, numpy 2.4): 32 B of float64
# columns, the rest mostly the interpreter's free lists of the last rounds' tuples and floats.
# A record per cell of one per-epoch tuple of two floats each held 168 B.
RECORD_BYTES_PER_TRIAL_EPOCH = 80


def test_the_records_of_a_search_cost_at_most_80_bytes_per_trial_epoch():
    policy = SchedulerPolicy("fifo", 60)
    grid = build_log_grid(1e-3, 1e-2, 4, 1e-4, 1e-3, 4)
    task = TASK_SPEC.make()
    execute_search(grid, SchedulerPolicy("fifo", 2), task, ARCH, CONFIG, jobs=1)  # imports and warms what it runs
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        records = execute_search(grid, policy, task, ARCH, CONFIG, jobs=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    trial_epochs = int(records.epochs_run.sum())
    assert trial_epochs == grid.n_trials * policy.epoch_budget  # no trial diverged
    assert held / trial_epochs <= RECORD_BYTES_PER_TRIAL_EPOCH, held / trial_epochs


# How much the traced peak of a search's own process grows per trial-epoch: an 8x8 FIFO grid at
# 80 epochs against 20 (3,840 trial-epochs more). With one float64 epoch log per cohort and an
# ended trial's record a float64 copy of its column, it grew 28.6 B in one process and 24.7 B
# with a forked child (CPython 3.11, numpy 2.4); with two Python floats a trial-epoch in the
# records and their copy into ``Records``, 78.2 and 75.8 B.
PEAK_BYTES_PER_TRIAL_EPOCH = 40


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_peak_of_a_search_grows_at_most_40_bytes_per_trial_epoch(monkeypatch, jobs):
    grid = build_log_grid(1e-3, 1e-2, 8, 1e-4, 1e-3, 8)
    task = TASK_SPEC.make()
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    # two shards of 32 cells each at jobs=2, so the search's process holds what a child replies
    monkeypatch.setattr(search, "STACK_SLICE", 32)
    monkeypatch.setattr(search, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    execute_search(grid, SchedulerPolicy("fifo", 2), task, ARCH, CONFIG, jobs=jobs)  # imports and warms

    def peak(epochs):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            records = execute_search(grid, SchedulerPolicy("fifo", epochs), task, ARCH, CONFIG, jobs=jobs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert int(records.epochs_run.sum()) == grid.n_trials * epochs  # no trial diverged
        return peak

    growth = (peak(80) - peak(20)) / (grid.n_trials * 60)
    assert len(forks) == 3 * (jobs - 1)
    assert growth <= PEAK_BYTES_PER_TRIAL_EPOCH, growth


def _stored_search(tmp_path, policy, grid):
    """A store with a run created for ``grid`` and ``policy``, and a call that searches into it."""
    store = RunStore(tmp_path / "runs")
    store.create_run("run", {"grid": dataclasses.asdict(grid), "scheduler": dataclasses.asdict(policy)})
    return store, lambda: execute_search(grid, policy, TASK_SPEC.make(), ARCH, CONFIG, store=store, run_id="run")


@pytest.mark.parametrize("kind", sorted(CASES))
def test_a_stored_search_leaves_no_thread_and_every_file_written(tmp_path, kind):
    store, search = _stored_search(tmp_path, *CASES[kind])
    before = threading.enumerate()
    records = trial_records(search())
    assert threading.enumerate() == before
    trials = store.run_dir("run") / "trials"
    assert sorted(os.listdir(trials)) == sorted(f"{c.row}_{c.col}.jsonl" for c in records)
    assert all((trials / name).stat().st_size for name in os.listdir(trials))


def test_the_first_write_waits_for_the_files_to_be_created(tmp_path, monkeypatch):
    store, search = _stored_search(tmp_path, *CASES["hb"])
    created = threading.Event()
    create = RunStore.create_trial_files
    writes = []

    def slow_create(self, run_id, cells):
        time.sleep(0.2)  # longer than the search takes to reach its first rung
        create(self, run_id, cells)
        created.set()

    def write(self, run_id, record):
        writes.append(created.is_set())

    monkeypatch.setattr(RunStore, "create_trial_files", slow_create)
    monkeypatch.setattr(RunStore, "append_trial_line", write)
    search()
    assert writes and all(writes)


def test_a_failing_round_leaves_no_thread(tmp_path, monkeypatch):
    # the helper thread is slowed to be still creating when round 2 fails:
    # the search joins it on the way out, however the rounds end
    policy, grid = SchedulerPolicy("fifo", 4), build_log_grid(1e-3, 1e-1, 4, 1e-4, 1e-2, 4)
    store, search = _stored_search(tmp_path, policy, grid)
    step, create = Cohort.step, RunStore.create_trial_files

    def failing(self):
        if self.epoch == 1:
            raise RuntimeError("round 2 failed")
        step(self)

    def slow_create(self, run_id, cells):
        time.sleep(0.1)
        create(self, run_id, cells)

    monkeypatch.setattr(Cohort, "step", failing)
    monkeypatch.setattr(RunStore, "create_trial_files", slow_create)
    before = threading.enumerate()
    with pytest.raises(RuntimeError, match="round 2 failed"):
        search()
    assert threading.enumerate() == before
    # the helper thread ran to its end: every file is there, empty, as a killed process leaves them
    trials = store.run_dir("run") / "trials"
    assert len(os.listdir(trials)) == grid.n_trials
    assert not any((trials / name).stat().st_size for name in os.listdir(trials))


def test_a_helper_thread_failure_surfaces_from_the_search(tmp_path, monkeypatch):
    store, search = _stored_search(tmp_path, *CASES["hb"])

    def failing(self, run_id, cells):
        raise OSError("no space left")

    monkeypatch.setattr(RunStore, "create_trial_files", failing)
    before = threading.enumerate()
    with pytest.raises(OSError, match="no space left"):
        search()
    assert threading.enumerate() == before
    assert os.listdir(store.run_dir("run") / "trials") == []
    assert not (store.run_dir("run") / "decisions.jsonl").exists()


def test_a_trial_file_already_there_surfaces_as_a_store_error(tmp_path):
    store, search = _stored_search(tmp_path, *CASES["hb"])
    path = store.run_dir("run") / "trials" / "1_2.jsonl"
    path.write_bytes(b"there before\n")
    before = threading.enumerate()
    with pytest.raises(RunStoreError) as info:
        search()
    assert str(info.value) == f"{path}: trial file already exists"
    assert threading.enumerate() == before
    assert path.read_bytes() == b"there before\n"
