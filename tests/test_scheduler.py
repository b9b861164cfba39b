import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsearch.grid import GridCell
from twinsearch.scheduler import (
    Decision,
    Schedule,
    SchedulerPolicy,
    ScheduleError,
    rung_levels,
)


def cells_grid(n_rows, n_cols):
    return [GridCell(r, c) for r in range(n_rows) for c in range(n_cols)]


def drive_lockstep(policy, cells, losses_at):
    """Advance all trials one epoch per round, feeding the scheduler in cell
    order; returns the schedule plus per-cell epochs consumed.

    ``losses_at(cell, epoch_completed)`` supplies the loss curve.
    """
    schedule = Schedule(policy, len(cells))
    alive = sorted(cells)
    epochs_run = {cell: 0 for cell in cells}
    alive_after_rung = []
    while alive:
        for cell in alive:
            epochs_run[cell] += 1
        for cell in alive:
            schedule.decide(cell, epochs_run[cell], losses_at(cell, epochs_run[cell]))
        survivors = [c for c in alive if schedule.is_alive(c)]
        if epochs_run[alive[0]] in schedule.levels:
            alive_after_rung.append(len(survivors))
        alive = survivors
    return schedule, epochs_run, alive_after_rung


class TestPolicyAndLadder:
    def test_hb_ladder_t100(self):
        policy = SchedulerPolicy("hb", 100, stop_fraction=0.25)
        assert rung_levels(policy) == [5, 10, 20, 40, 80, 100]

    def test_grace_floor_guard(self):
        policy = SchedulerPolicy("hb", 20, stop_fraction=0.25)
        assert rung_levels(policy)[0] == 1

    def test_fifo_has_no_rungs(self):
        assert rung_levels(SchedulerPolicy("fifo", 100)) == []

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="lifo", epoch_budget=10),
            dict(kind="hb", epoch_budget=10, stop_fraction=0.0),
            dict(kind="hb", epoch_budget=10, stop_fraction=1.5),
            dict(kind="hb", epoch_budget=10, halving_rate=1),
            dict(kind="hb", epoch_budget=10, grace_fraction=0.0),
            dict(kind="hb", epoch_budget=0),
        ],
    )
    def test_invalid_policies(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerPolicy(**kwargs)

    def test_init_requires_trials(self):
        with pytest.raises(ValueError):
            Schedule(SchedulerPolicy("fifo", 10), 0)


class TestFifo:
    def test_continue_until_budget(self):
        schedule = Schedule(SchedulerPolicy("fifo", 100), 4)
        cell = GridCell(0, 0)
        assert schedule.decide(cell, 50, 1.0) is Decision.CONTINUE
        assert schedule.decide(cell, 100, 0.5) is Decision.STOP

    def test_alive_fraction_stays_one_before_budget(self):
        cells = cells_grid(2, 2)
        schedule = Schedule(SchedulerPolicy("fifo", 3), 4)
        for epoch in (1, 2):
            for cell in cells:
                assert schedule.decide(cell, epoch, 1.0) is Decision.CONTINUE
            assert schedule.alive_fraction() == 1.0

    def test_consumes_exactly_budget_epochs(self):
        cells = cells_grid(3, 3)
        policy = SchedulerPolicy("fifo", 7)
        _, epochs_run, _ = drive_lockstep(policy, cells, lambda c, e: 1.0)
        assert sum(epochs_run.values()) == 9 * 7

    def test_stopped_trial_raises(self):
        schedule = Schedule(SchedulerPolicy("fifo", 2), 2)
        cell = GridCell(0, 0)
        schedule.decide(cell, 2, 1.0)
        with pytest.raises(ScheduleError, match="stopped"):
            schedule.decide(cell, 2, 1.0)


class TestHalving:
    def test_hb25_alive_sequence_100_trials(self):
        cells = cells_grid(10, 10)
        policy = SchedulerPolicy("hb", 100, stop_fraction=0.25)
        # deterministic loss: better cells at lower flat index
        loss = lambda cell, epoch: (cell.row * 10 + cell.col) / 100 + 1.0 / epoch
        schedule, epochs_run, alive_after = drive_lockstep(policy, cells, loss)
        assert schedule.levels == [5, 10, 20, 40, 80, 100]
        assert alive_after[:2] == [50, 25]
        histogram = {}
        for n in epochs_run.values():
            histogram[n] = histogram.get(n, 0) + 1
        assert histogram == {5: 50, 10: 25, 100: 25}
        assert sum(epochs_run.values()) == 100 * 5 + 50 * 5 + 25 * 90

    def test_hb12_36_trials_five_survivors(self):
        cells = cells_grid(6, 6)
        policy = SchedulerPolicy("hb", 100, stop_fraction=0.12)
        loss = lambda cell, epoch: (cell.row * 6 + cell.col) / 36
        schedule, epochs_run, _ = drive_lockstep(policy, cells, loss)
        # 36 -> 18 -> 9 -> 5, then the cap ceil(0.12*36)=5 halts halving
        survivors = [c for c, n in epochs_run.items() if n == 100]
        assert len(survivors) == 5
        assert schedule.survivor_cap == 5

    def test_promotion_keeps_lowest_losses(self):
        cells = cells_grid(2, 2)
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.5, grace_fraction=0.05)
        fixed = {
            GridCell(0, 0): 0.9,
            GridCell(0, 1): 0.1,
            GridCell(1, 0): 0.5,
            GridCell(1, 1): 0.7,
        }
        schedule, epochs_run, _ = drive_lockstep(policy, cells, lambda c, e: fixed[c])
        survivors = {c for c, n in epochs_run.items() if n == 40}
        assert survivors == {GridCell(0, 1), GridCell(1, 0)}

    def test_ties_promote_lexicographically_smaller_cell(self):
        cells = cells_grid(2, 2)
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.25, grace_fraction=0.05)
        schedule, epochs_run, _ = drive_lockstep(policy, cells, lambda c, e: 1.0)
        survivors = sorted(c for c, n in epochs_run.items() if n == 40)
        assert survivors == [GridCell(0, 0)]

    def test_diverged_trials_rank_worst(self):
        cells = cells_grid(2, 2)
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.5, grace_fraction=0.05)
        schedule = Schedule(policy, 4)
        nan_cell = GridCell(0, 0)
        for cell in cells:
            loss = math.nan if cell == nan_cell else 0.5
            schedule.decide(cell, 2, loss)
        assert not schedule.is_alive(nan_cell)

    def test_mark_diverged_resolves_pending_rung(self):
        cells = cells_grid(1, 3)
        # cap = ceil(0.3 * 3) = 1, so the two survivors still halve 2 -> 1
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.3, grace_fraction=0.05)
        schedule = Schedule(policy, 3)
        schedule.decide(GridCell(0, 0), 2, 0.3)
        schedule.decide(GridCell(0, 1), 2, 0.4)
        # the last trial dies before reporting; the rung must resolve without it
        schedule.mark_diverged(GridCell(0, 2), 1)
        assert schedule.is_alive(GridCell(0, 0))
        assert not schedule.is_alive(GridCell(0, 1))

    def test_alive_fraction_tracks_halving(self):
        cells = cells_grid(10, 10)
        policy = SchedulerPolicy("hb", 100, stop_fraction=0.25)
        schedule = Schedule(policy, 100)
        assert schedule.alive_fraction() == 1.0
        for epoch in range(1, 6):
            for cell in cells:
                if schedule.is_alive(cell):
                    schedule.decide(cell, epoch, cell.row + cell.col / 10)
        assert schedule.alive_fraction() == 0.5
        for epoch in range(6, 11):
            for cell in cells:
                if schedule.is_alive(cell):
                    schedule.decide(cell, epoch, cell.row + cell.col / 10)
        assert schedule.alive_fraction() == 0.25

    def test_stop_fraction_one_never_halves(self):
        cells = cells_grid(2, 2)
        policy = SchedulerPolicy("hb", 20, stop_fraction=1.0, grace_fraction=0.05)
        _, epochs_run, _ = drive_lockstep(policy, cells, lambda c, e: c.row + c.col)
        assert all(n == 20 for n in epochs_run.values())


class TestReplayDeterminism:
    def test_decision_log_replay(self):
        cells = cells_grid(4, 4)
        policy = SchedulerPolicy("hb", 50, stop_fraction=0.25, grace_fraction=0.05)
        loss = lambda cell, epoch: math.sin(cell.row * 3.1 + cell.col * 1.7) + 2.0 / epoch
        first, _, _ = drive_lockstep(policy, cells, loss)
        second, _, _ = drive_lockstep(policy, cells, loss)
        assert first.decision_log == second.decision_log

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_budget_accounting_randomized(self, seed):
        import random

        rng = random.Random(seed)
        n_rows, n_cols = rng.choice([(3, 3), (4, 5), (6, 6)])
        cells = cells_grid(n_rows, n_cols)
        policy = SchedulerPolicy(
            "hb",
            rng.choice([20, 50, 100]),
            stop_fraction=rng.choice([0.12, 0.25, 0.5]),
            grace_fraction=0.05,
        )
        table = {cell: rng.random() for cell in cells}
        schedule, epochs_run, _ = drive_lockstep(policy, cells, lambda c, e: table[c])
        # replay: per-segment cost from the decision log's stop epochs
        total = sum(epochs_run.values())
        from_log = 0
        stops = {}
        for d in schedule.decision_log:
            if d["decision"] == "stop":
                stops[(d["row"], d["col"])] = d["epoch"]
        assert len(stops) == len(cells)
        from_log = sum(stops.values())
        assert total == from_log
