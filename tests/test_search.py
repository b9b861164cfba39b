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
import tracemalloc
import weakref
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from twinsearch.grid import GridCell, build_log_grid, cell_params
from twinsearch.matrices import LAST_K, build_metric_surfaces, metric_window
from twinsearch.records import write_records
from twinsearch.runstore import RunStore
from twinsearch.scheduler import Schedule, SchedulerPolicy, rung_levels
from twinsearch import trainer
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
    EpochLog,
    TrainerConfig,
    TrialRecord,
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


def _finite(entry: EpochLog) -> bool:
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
        for _ in range(rec.epochs_run):
            entry = runner.step_epoch()
            val = test = None
            if _finite(entry):
                # the lone trial's row: an ended runner keeps no theta, but
                # nothing compacts a one-trial cohort's stack
                theta = cohort._theta[0]
                val = model.accuracy(theta, task.val_inputs, task.val_labels)
                test = model.accuracy(theta, task.test_inputs, task.test_labels)
            epochs.append(EpochLog(entry.epoch, entry.train_loss, entry.param_norm, val, test))
        status = runner.record.status if runner.done else STATUS_STOPPED_EARLY
        out[cell] = TrialRecord(cell=cell, epochs=epochs, status=status)
    return out


@pytest.fixture(scope="module", params=sorted(CASES))
def searched(request, tmp_path_factory):
    kind = request.param
    policy, grid = CASES[kind]
    task = TASK_SPEC.make()
    store = RunStore(tmp_path_factory.mktemp(kind) / "runs")
    store.create_run("run", {"grid": grid.to_dict(), "scheduler": policy.to_dict()})

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
        records = execute_search(grid, policy, task, ARCH, CONFIG, store=store, run_id="run")
    write_records(store, "run", records.values())
    return SimpleNamespace(
        kind=kind,
        grid=grid,
        store=store,
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
        replayed = np.array([(e.train_loss, e.param_norm) for e in reference.epochs])
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
    records = execute_search(grid, policy, task, ARCH, config)
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
    records = execute_search(grid, policy, task, ARCH, CONFIG)
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
    expected = build_metric_surfaces(eager.values(), grid, kind)
    _, loaded = searched.store.load_run("run")
    for records in (searched.records, loaded):
        assert {c: r.status for c, r in records.items()} == {c: r.status for c, r in eager.items()}
        assert_same_surfaces(build_metric_surfaces(records.values(), grid, kind), expected)
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


def test_each_trial_file_is_written_once_whole_in_the_round_the_trial_ends(searched):
    # HB stops trials at its rung and some diverge; each cell's file is
    # written in one call, with the record as it ended, in that round
    assert sorted(cell for _, cell, _, _ in searched.writes) == searched.grid.cells()
    for round_, cell, epochs_run, status in searched.writes:
        rec = searched.records[cell]
        assert (round_, epochs_run, status) == (rec.epochs_run, rec.epochs_run, rec.status), cell
        assert status in TERMINAL_STATUSES
    assert [r for r, _, _, _ in searched.writes] == sorted(r for r, _, _, _ in searched.writes)
    statuses = {status for _, _, _, status in searched.writes}
    assert STATUS_DIVERGED in statuses and (searched.kind == "fifo" or STATUS_STOPPED_EARLY in statuses)


def test_records_with_metrics_on_every_epoch_load_to_the_same_surfaces(searched):
    kind, grid, store = searched.kind, searched.grid, searched.store
    policy, _ = CASES[kind]
    store.create_run("old", {"grid": grid.to_dict(), "scheduler": policy.to_dict()})
    write_records(store, "old", searched.eager.values())
    _, old = store.load_run("old")
    _, new = store.load_run("run")
    assert_same_surfaces(
        build_metric_surfaces(old.values(), grid, kind),
        build_metric_surfaces(new.values(), grid, kind),
    )


def test_valfree_task_never_scores(monkeypatch):
    def refuse(*_args):
        raise AssertionError("accuracy called on a task with no val or test set")

    monkeypatch.setattr(MLP, "accuracy", refuse)
    policy, grid = CASES["hb"]
    task = dataclasses.replace(TASK_SPEC, n_val=0, n_test=0).make()
    records = execute_search(grid, policy, task, ARCH, CONFIG)
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
        logged = np.array([(e.train_loss, e.param_norm) for e in runner.record.epochs])
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
    assert ended.record.epochs[-1].param_norm == norm


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
        records = execute_search(grid, policy, task, ArchSpec((32,)), TrainerConfig())
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
