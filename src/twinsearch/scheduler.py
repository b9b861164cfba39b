"""Trial schedulers: FIFO and fraction-capped successive halving.

The halving scheduler runs a single rung ladder (grace period, halving rate
eta) and prunes at each rung until at most ceil(stop_fraction * n_trials)
trials remain alive; the survivors then run to the full epoch budget with no
further stopping.

The driver advances every alive trial by one epoch per lockstep round and
then calls ``Schedule.decide`` once with the round's outcome: each alive
trial's train loss, or ``None`` for a trial that diverged in the round.
Rungs are synchronous, so a rung resolves within its round, over every
trial that reported a loss there; ``decide`` returns the cells it stopped,
which the driver finishes before it steps the next round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

from .grid import GridCell

__all__ = [
    "SchedulerPolicy",
    "Schedule",
    "ScheduleError",
    "rung_levels",
]


class ScheduleError(RuntimeError):
    """Contract violation: a round that does not match the alive set or the budget."""


@dataclass(frozen=True)
class SchedulerPolicy:
    kind: str  # "fifo" | "hb"
    epoch_budget: int
    stop_fraction: float = 1.0
    halving_rate: int = 2
    grace_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in ("fifo", "hb"):
            raise ValueError(f"kind must be 'fifo' or 'hb', got {self.kind!r}")
        if type(self.epoch_budget) is not int or self.epoch_budget < 1:  # bool is no budget
            raise ValueError(f"epoch_budget must be an integer >= 1, got {self.epoch_budget!r}")
        if self.kind == "hb":
            if type(self.stop_fraction) is bool or not 0 < self.stop_fraction <= 1:
                raise ValueError(f"stop_fraction must be in (0, 1], got {self.stop_fraction}")
            if not (isinstance(self.halving_rate, int) and self.halving_rate >= 2):
                raise ValueError(f"halving_rate must be an integer >= 2, got {self.halving_rate}")
            if not 0 < self.grace_fraction < 1:
                raise ValueError(f"grace_fraction must be in (0, 1), got {self.grace_fraction}")

    @classmethod
    def from_dict(cls, d: dict) -> "SchedulerPolicy":
        """The policy of ``asdict(policy)``'s JSON; a field it lacks takes the class default."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def rung_levels(policy: SchedulerPolicy) -> list[int]:
    """Rung ladder in completed-epoch counts, ending at the budget."""
    if policy.kind == "fifo":
        return []
    t = policy.epoch_budget
    # half-up rounding of the grace period, floored at one epoch
    r = max(1, math.floor(policy.grace_fraction * t + 0.5))
    levels = [min(r, t)]
    while levels[-1] < t:
        levels.append(min(t, levels[-1] * policy.halving_rate))
    return levels


class Schedule:
    """Mutable scheduler state for one search: alive set, rungs, decision log."""

    def __init__(self, policy: SchedulerPolicy, n_trials: int):
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        self.policy = policy
        self.n_trials = n_trials
        self.levels = rung_levels(policy)
        self.survivor_cap = (
            math.ceil(policy.stop_fraction * n_trials) if policy.kind == "hb" else n_trials
        )
        self.halving_ceased = policy.kind == "fifo"
        self._stopped: set[GridCell] = set()
        self.decision_log: list[dict] = []

    @property
    def alive_count(self) -> int:
        return self.n_trials - len(self._stopped)

    def _stop(self, cell: GridCell, epoch: int, rung: int | None) -> None:
        self._stopped.add(cell)
        self._log(cell, epoch, "stop", rung)

    def _log(self, cell: GridCell, epoch: int, decision: str, rung: int | None) -> None:
        self.decision_log.append(
            {"row": cell.row, "col": cell.col, "epoch": epoch, "decision": decision, "rung": rung}
        )

    def decide(self, epoch: int, losses: Mapping[GridCell, float | None]) -> list[GridCell]:
        """Apply one lockstep round, in which every alive trial completed ``epoch`` epochs, and
        return the cells that the round's rung stopped, in rank order: ``[]`` with no rung.

        ``losses`` maps each alive cell, in cell order, to its train loss, or
        to ``None`` if it diverged this round. Divergences and budget stops
        are logged first, in cell order; then the rung at ``epoch``, if any,
        resolves over the cells that reported a loss, logged in rank order.
        A trial that diverged or reached the budget has ended already, so
        only the rung's stops are returned: the trials still to be finished.
        """
        stopped = [cell for cell in losses if cell in self._stopped]
        if stopped:
            raise ScheduleError(f"loss reported for stopped trial {stopped[0]}")
        if len(losses) != self.alive_count:
            raise ScheduleError(f"round reports {len(losses)} trials, {self.alive_count} alive")
        if epoch > self.policy.epoch_budget:
            raise ScheduleError(f"epoch {epoch} beyond budget {self.policy.epoch_budget}")
        reported = {}
        for cell, loss in losses.items():
            if loss is None or epoch == self.policy.epoch_budget:
                self._stop(cell, epoch, None)
            else:
                reported[cell] = loss
        if reported and not self.halving_ceased and epoch in self.levels:
            return self._resolve_rung(epoch, reported)
        return []

    def _resolve_rung(self, level: int, losses: dict[GridCell, float]) -> list[GridCell]:
        ranked = sorted(
            losses,
            # NaN losses rank worst; ties break on (row, col)
            key=lambda c: (math.isnan(losses[c]), 0.0 if math.isnan(losses[c]) else losses[c], c),
        )
        if len(ranked) <= self.survivor_cap:
            # cap already met (e.g. through divergences): no halving here or later
            n_promote = len(ranked)
        else:
            n_promote = math.ceil(len(ranked) / self.policy.halving_rate)
        if n_promote <= self.survivor_cap:
            self.halving_ceased = True
        for rank, cell in enumerate(ranked):
            if rank < n_promote:
                self._log(cell, level, "continue", level)
            else:
                self._stop(cell, level, level)
        return ranked[n_promote:]
