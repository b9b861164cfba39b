import math
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scheduler_frozen import FrozenSchedule

from twinsearch.grid import GridCell
from twinsearch.scheduler import (
    Schedule,
    SchedulerPolicy,
    ScheduleError,
    rung_levels,
)


def cells_grid(n_rows, n_cols):
    return [GridCell(r, c) for r in range(n_rows) for c in range(n_cols)]


def logged_stops(schedule, since):
    """The cells that ``schedule`` logged as stopped from entry ``since`` of its log on."""
    return [GridCell(d["row"], d["col"]) for d in schedule.decision_log[since:] if d["decision"] == "stop"]


def drive_segments(policy, cells, losses_at):
    """Advance all trials through each segment, up to the schedule's next decision, and hand
    each segment to the scheduler; returns the schedule plus per-cell epochs consumed.

    ``losses_at(cell, epoch_completed)`` supplies the loss curve. Every
    segment ends at a rung level or at the budget.
    """
    schedule = Schedule(policy, len(cells))
    alive = sorted(cells)
    epochs_run = {cell: 0 for cell in cells}
    alive_after_rung = []
    epoch = 0
    while schedule.alive_count:
        start, epoch = epoch, schedule.next_decision(epoch)
        assert start < epoch and epoch in [*schedule.levels, policy.epoch_budget]
        for cell in alive:
            epochs_run[cell] += epoch - start
        logged = len(schedule.decision_log)
        rung_stops = schedule.decide(epoch, {cell: losses_at(cell, epoch) for cell in alive}, {})
        ended = set(logged_stops(schedule, logged))
        assert ended >= set(rung_stops)
        survivors = [c for c in alive if c not in ended]
        assert len(survivors) == schedule.alive_count
        if epoch in schedule.levels:
            alive_after_rung.append(len(survivors))
        alive = survivors
    assert alive == []
    return schedule, epochs_run, alive_after_rung


def log_entry(cell, epoch, decision, rung=None):
    return {"row": cell.row, "col": cell.col, "epoch": epoch, "decision": decision, "rung": rung}


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
            dict(kind="hb", epoch_budget=10, stop_fraction=True),
            dict(kind="hb", epoch_budget=10, halving_rate=1),
            dict(kind="hb", epoch_budget=10, grace_fraction=0.0),
            dict(kind="hb", epoch_budget=0),
            dict(kind="fifo", epoch_budget=True),
            dict(kind="fifo", epoch_budget=1.5),
            dict(kind="fifo", epoch_budget=4.0),
        ],
    )
    def test_invalid_policies(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerPolicy(**kwargs)

    @pytest.mark.parametrize(
        "policy",
        [
            SchedulerPolicy("fifo", 50),
            SchedulerPolicy("hb", 50, stop_fraction=0.25),
            SchedulerPolicy("hb", 8, stop_fraction=0.75, halving_rate=3, grace_fraction=0.3),
        ],
        ids=repr,
    )
    def test_a_stored_policy_loads_to_an_equal_one(self, policy):
        assert SchedulerPolicy.from_dict(asdict(policy)) == policy
        stored = {**asdict(policy), "note": "a key no loader reads"}
        assert SchedulerPolicy.from_dict(stored) == policy
        # a field the dict lacks takes the class default
        kept = {k: v for k, v in asdict(policy).items() if k in ("kind", "epoch_budget")}
        assert SchedulerPolicy.from_dict(kept) == SchedulerPolicy(policy.kind, policy.epoch_budget)

    def test_init_requires_trials(self):
        with pytest.raises(ValueError):
            Schedule(SchedulerPolicy("fifo", 10), 0)


class TestFifo:
    def test_continue_until_budget(self):
        schedule = Schedule(SchedulerPolicy("fifo", 100), 1)
        cell = GridCell(0, 0)
        assert schedule.next_decision(0) == 100  # one segment
        assert schedule.decide(50, {cell: 1.0}, {}) == []  # a segment may end before the decision
        assert schedule.alive_count == 1 and schedule.decision_log == []
        assert schedule.next_decision(50) == 100
        assert schedule.decide(100, {cell: 0.5}, {}) == []  # a budget stop ends the trial itself
        assert schedule.alive_count == 0
        assert schedule.decision_log == [log_entry(cell, 100, "stop")]

    def test_alive_fraction_stays_one_before_budget(self):
        cells = cells_grid(2, 2)
        schedule = Schedule(SchedulerPolicy("fifo", 3), 4)
        for epoch in (1, 2):
            schedule.decide(epoch, {cell: 1.0 for cell in cells}, {})
            assert schedule.alive_count / schedule.n_trials == 1.0
        assert schedule.decision_log == []

    def test_consumes_exactly_budget_epochs(self):
        cells = cells_grid(3, 3)
        policy = SchedulerPolicy("fifo", 7)
        schedule, epochs_run, _ = drive_segments(policy, cells, lambda c, e: 1.0)
        assert sum(epochs_run.values()) == 9 * 7
        assert schedule.epoch == 7 and schedule.decision_log == [log_entry(c, 7, "stop") for c in cells]

    def test_stopped_trial_raises(self):
        schedule = Schedule(SchedulerPolicy("fifo", 2), 2)
        a, b = GridCell(0, 0), GridCell(0, 1)
        schedule.decide(2, {a: 1.0, b: 1.0}, {})
        with pytest.raises(ScheduleError, match="stopped"):
            schedule.decide(2, {a: 1.0}, {})
        with pytest.raises(ScheduleError, match="stopped"):
            schedule.decide(2, {}, {b: 2})

    def test_epoch_beyond_budget_raises(self):
        schedule = Schedule(SchedulerPolicy("fifo", 2), 1)
        cell = GridCell(0, 0)
        with pytest.raises(ScheduleError, match="beyond budget"):
            schedule.decide(3, {cell: 1.0}, {})
        assert schedule.alive_count == 1 and schedule.decision_log == []

    def test_round_must_report_every_alive_trial(self):
        schedule = Schedule(SchedulerPolicy("hb", 40, stop_fraction=0.5), 3)
        with pytest.raises(ScheduleError, match="3 alive"):
            schedule.decide(2, {GridCell(0, 0): 1.0, GridCell(0, 1): 2.0}, {})
        with pytest.raises(ScheduleError, match=r"GridCell\(row=0, col=1\) both reports a loss and diverged"):
            schedule.decide(2, {GridCell(0, 0): 1.0, GridCell(0, 1): 2.0}, {GridCell(0, 1): 1})
        assert schedule.alive_count == 3 and schedule.decision_log == []


class TestHalving:
    def test_hb25_alive_sequence_100_trials(self):
        cells = cells_grid(10, 10)
        policy = SchedulerPolicy("hb", 100, stop_fraction=0.25)
        # deterministic loss: better cells at lower flat index
        loss = lambda cell, epoch: (cell.row * 10 + cell.col) / 100 + 1.0 / epoch
        schedule, epochs_run, alive_after = drive_segments(policy, cells, loss)
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
        schedule, epochs_run, _ = drive_segments(policy, cells, loss)
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
        schedule, epochs_run, _ = drive_segments(policy, cells, lambda c, e: fixed[c])
        survivors = {c for c, n in epochs_run.items() if n == 40}
        assert survivors == {GridCell(0, 1), GridCell(1, 0)}

    def test_ties_promote_lexicographically_smaller_cell(self):
        cells = cells_grid(2, 2)
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.25, grace_fraction=0.05)
        schedule, epochs_run, _ = drive_segments(policy, cells, lambda c, e: 1.0)
        survivors = sorted(c for c, n in epochs_run.items() if n == 40)
        assert survivors == [GridCell(0, 0)]

    def test_diverged_trials_rank_worst(self):
        cells = cells_grid(2, 2)
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.5, grace_fraction=0.05)
        schedule = Schedule(policy, 4)
        nan_cell = GridCell(0, 0)
        stopped = schedule.decide(2, {cell: math.nan if cell == nan_cell else 0.5 for cell in cells}, {})
        # rank order: the tied 0.5 losses by cell, then the NaN
        assert stopped == [GridCell(1, 1), nan_cell]
        assert schedule.alive_count == 2

    def test_divergence_in_a_rung_round_resolves_the_rung_without_it(self):
        # cap = ceil(0.3 * 3) = 1, so the two survivors still halve 2 -> 1
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.3, grace_fraction=0.05)
        schedule = Schedule(policy, 3)
        assert schedule.next_decision(0) == 2
        stopped = schedule.decide(2, {GridCell(0, 0): 0.3, GridCell(0, 1): 0.4}, {GridCell(0, 2): 2})
        # the diverged trial ended itself: only the rung's stop is returned
        assert stopped == [GridCell(0, 1)]
        assert schedule.alive_count == 1
        assert schedule.decision_log == [
            log_entry(GridCell(0, 2), 2, "stop"),
            log_entry(GridCell(0, 0), 2, "continue", 2),
            log_entry(GridCell(0, 1), 2, "stop", 2),
        ]

    def test_round_logs_stops_in_cell_order_then_rung_in_rank_order(self):
        # cap = ceil(0.25 * 6) = 2; the four reporters halve to 2, which ends halving
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.25, grace_fraction=0.05)
        schedule = Schedule(policy, 6)
        c = cells_grid(2, 3)
        losses = {c[0]: 0.9, c[2]: 0.1, c[3]: 0.5, c[4]: 0.3}
        assert schedule.decide(2, losses, {c[5]: 2, c[1]: 2}) == [c[3], c[0]]
        assert schedule.decision_log == [
            log_entry(c[1], 2, "stop"),
            log_entry(c[5], 2, "stop"),
            log_entry(c[2], 2, "continue", 2),
            log_entry(c[4], 2, "continue", 2),
            log_entry(c[3], 2, "stop", 2),
            log_entry(c[0], 2, "stop", 2),
        ]
        assert schedule.halving_ceased
        assert schedule.alive_count == 2
        assert schedule.next_decision(2) == 40  # no rung is left to stop a trial

    def test_a_segment_logs_each_epochs_divergences_in_cell_order_before_its_rung(self):
        # rungs at 2, 4, 8, ...; cap = ceil(0.25 * 6) = 2
        policy = SchedulerPolicy("hb", 40, stop_fraction=0.25, grace_fraction=0.05)
        schedule = Schedule(policy, 6)
        c = cells_grid(2, 3)
        assert schedule.decide(2, {cell: 1.0 + i for i, cell in enumerate(c)}, {}) == c[3:]
        assert schedule.next_decision(2) == 4
        assert schedule.decide(4, {c[2]: 0.5}, {c[1]: 4, c[0]: 3}) == []
        assert schedule.decision_log[6:] == [
            log_entry(c[0], 3, "stop"),
            log_entry(c[1], 4, "stop"),
            log_entry(c[2], 4, "continue", 4),  # one reporter is under the cap: halving ceases
        ]
        assert schedule.halving_ceased and schedule.next_decision(4) == 40

    def test_the_budget_logs_its_divergences_with_the_completed_trials_in_cell_order(self):
        schedule = Schedule(SchedulerPolicy("fifo", 5), 4)
        c = cells_grid(1, 4)
        assert schedule.decide(5, {c[0]: 0.5, c[2]: 0.5}, {c[3]: 5, c[1]: 5}) == []
        assert schedule.decision_log == [log_entry(cell, 5, "stop") for cell in c]
        assert schedule.alive_count == 0

    @pytest.mark.parametrize(
        "epoch, diverged, message",
        [
            (3, {}, "a segment from epoch 0 ends by epoch 2, not 3"),  # past the rung at 2
            (2, {GridCell(0, 1): 0}, "a divergence outside the segment from epoch 0 to 2"),
            (1, {GridCell(0, 1): 2}, "a divergence outside the segment from epoch 0 to 1"),
        ],
    )
    def test_a_segment_past_its_decision_or_a_divergence_outside_it_raises(self, epoch, diverged, message):
        schedule = Schedule(SchedulerPolicy("hb", 40, stop_fraction=0.5, grace_fraction=0.05), 2)
        losses = {cell: 1.0 for cell in cells_grid(1, 2) if cell not in diverged}
        with pytest.raises(ScheduleError, match=f"^{message}$"):
            schedule.decide(epoch, losses, diverged)
        assert schedule.epoch == 0 and schedule.alive_count == 2 and schedule.decision_log == []
        schedule.decide(2, {GridCell(0, 0): 1.0, GridCell(0, 1): 2.0}, {})
        with pytest.raises(ScheduleError, match="^a segment from epoch 2 ends by epoch 40, not 2$"):
            schedule.decide(2, {GridCell(0, 0): 1.0}, {})  # not after the last decision

    def test_alive_fraction_tracks_halving(self):
        cells = cells_grid(10, 10)
        policy = SchedulerPolicy("hb", 100, stop_fraction=0.25)
        schedule = Schedule(policy, 100)
        assert schedule.alive_count / schedule.n_trials == 1.0
        alive = cells
        for epoch in (5, 10):  # the segments before halving ceases
            assert schedule.next_decision(schedule.epoch) == epoch
            stopped = set(schedule.decide(epoch, {cell: cell.row + cell.col / 10 for cell in alive}, {}))
            alive = [cell for cell in alive if cell not in stopped]
            assert len(alive) == schedule.alive_count
            if epoch == 5:
                assert schedule.alive_count / schedule.n_trials == 0.5
        assert schedule.alive_count / schedule.n_trials == 0.25
        assert schedule.halving_ceased and schedule.next_decision(10) == 100

    def test_stop_fraction_one_never_halves(self):
        cells = cells_grid(2, 2)
        policy = SchedulerPolicy("hb", 20, stop_fraction=1.0, grace_fraction=0.05)
        _, epochs_run, _ = drive_segments(policy, cells, lambda c, e: c.row + c.col)
        assert all(n == 20 for n in epochs_run.values())


class TestReplayDeterminism:
    def test_decision_log_replay(self):
        cells = cells_grid(4, 4)
        policy = SchedulerPolicy("hb", 50, stop_fraction=0.25, grace_fraction=0.05)
        loss = lambda cell, epoch: math.sin(cell.row * 3.1 + cell.col * 1.7) + 2.0 / epoch
        first, _, _ = drive_segments(policy, cells, loss)
        second, _, _ = drive_segments(policy, cells, loss)
        assert first.decision_log == second.decision_log

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_budget_accounting_randomized(self, seed):
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
        schedule, epochs_run, _ = drive_segments(policy, cells, lambda c, e: table[c])
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


@st.composite
def lockstep_cases(draw):
    """A grid, a policy, a per-cell loss cycle and per-cell divergence epochs."""
    cells = cells_grid(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    budget = draw(st.integers(1, 60))
    if draw(st.booleans()):
        policy = SchedulerPolicy(
            "hb",
            budget,
            stop_fraction=draw(st.floats(0.12, 1.0)),
            halving_rate=draw(st.integers(2, 4)),
            grace_fraction=draw(st.floats(0.05, 0.4)),
        )
    else:
        policy = SchedulerPolicy("fifo", budget)
    # tables drawn from a seed: per-cell hypothesis draws made the test ten times slower
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shared = [0.0, 0.25, 1.0, math.nan]  # ties, and NaN that ranks worst
    losses = {
        cell: [rng.choice(shared) if rng.random() < 0.5 else rng.uniform(0.0, 10.0) for _ in range(3)]
        for cell in cells
    }
    # divergence anywhere, at a rung epoch or at the budget
    share = rng.choice([0.0, 0.1, 0.3, 0.6])
    marked = [*rung_levels(policy), budget]
    diverged = {
        cell: (rng.choice([rng.randint(1, budget), rng.choice(marked)]) if rng.random() < share else None)
        for cell in cells
    }
    return policy, cells, losses, diverged


class TestFrozenReference:
    @given(case=lockstep_cases())
    @settings(max_examples=300, deadline=None)
    def test_segments_match_the_per_cell_protocol(self, case):
        # the frozen schedule hears every trial every epoch; the schedule hears each segment once
        policy, cells, losses, diverged = case
        schedule = Schedule(policy, len(cells))
        frozen = FrozenSchedule(policy, len(cells))
        alive = list(cells)
        ends = [0]
        while schedule.alive_count:
            end = schedule.next_decision(ends[-1])
            logged = len(frozen.decision_log)
            for epoch in range(ends[-1] + 1, end + 1):
                for cell in alive:
                    if not frozen.is_alive(cell):
                        continue
                    if diverged[cell] == epoch:
                        frozen.mark_diverged(cell, epoch)
                    else:
                        frozen.decide(cell, epoch, losses[cell][epoch % 3])
            segment_diverged = {
                cell: diverged[cell] for cell in alive if diverged[cell] and ends[-1] < diverged[cell] <= end
            }
            segment_losses = {cell: losses[cell][end % 3] for cell in alive if cell not in segment_diverged}
            stopped = schedule.decide(end, segment_losses, segment_diverged)
            assert schedule.decision_log == frozen.decision_log
            # the cells the frozen schedule stopped at this segment's rung, in log order; [] without one
            assert stopped == [
                GridCell(d["row"], d["col"])
                for d in frozen.decision_log[logged:]
                if d["decision"] == "stop" and d["rung"] == end
            ]
            ended = set(logged_stops(schedule, logged))
            alive = [c for c in alive if c not in ended]
            assert alive == [c for c in cells if frozen.is_alive(c)]
            assert schedule.alive_count == len(alive)
            ends.append(end)
        assert alive == [] and ends[-1] <= policy.epoch_budget
        # every epoch at which the frozen schedule resolved a rung ends a segment
        assert {d["epoch"] for d in frozen.decision_log if d["rung"] is not None} <= set(ends)
        # and the segments, continued past the last trial, tile 1..budget
        while ends[-1] < policy.epoch_budget:
            ends.append(schedule.next_decision(ends[-1]))
            assert ends[-1] > ends[-2]
        tiled = [epoch for a, b in zip(ends, ends[1:]) for epoch in range(a + 1, b + 1)]
        assert tiled == list(range(1, policy.epoch_budget + 1))
