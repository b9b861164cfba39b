"""Trial schedulers: FIFO and fraction-capped successive halving.

The halving scheduler runs a single rung ladder (grace period, halving rate
eta) and prunes at each rung until at most ceil(stop_fraction * n_trials)
trials remain alive; the survivors then run to the full epoch budget with no
further stopping.

Rungs are synchronous: a rung's outcome is computed once every alive trial
has reported its loss there. Because ``decide`` answers one cell at a time,
the value returned to a non-final reporter at a rung is a provisional
``CONTINUE``; the authoritative per-cell outcomes are published to the
decision log (and to ``is_alive``) the moment the final report lands. A
lockstep driver therefore feeds one epoch for every alive cell, then checks
``is_alive`` before advancing anyone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .grid import GridCell

__all__ = [
    "Decision",
    "SchedulerPolicy",
    "Schedule",
    "ScheduleError",
    "rung_levels",
]


class ScheduleError(RuntimeError):
    """Contract violation: a decision was requested for a stopped trial."""


class Decision(Enum):
    CONTINUE = "continue"
    STOP = "stop"


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
        if self.epoch_budget < 1:
            raise ValueError(f"epoch_budget must be >= 1, got {self.epoch_budget}")
        if self.kind == "hb":
            if not 0 < self.stop_fraction <= 1:
                raise ValueError(f"stop_fraction must be in (0, 1], got {self.stop_fraction}")
            if not (isinstance(self.halving_rate, int) and self.halving_rate >= 2):
                raise ValueError(f"halving_rate must be an integer >= 2, got {self.halving_rate}")
            if not 0 < self.grace_fraction < 1:
                raise ValueError(f"grace_fraction must be in (0, 1), got {self.grace_fraction}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "epoch_budget": self.epoch_budget,
            "stop_fraction": self.stop_fraction,
            "halving_rate": self.halving_rate,
            "grace_fraction": self.grace_fraction,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SchedulerPolicy":
        return cls(
            kind=d["kind"],
            epoch_budget=d["epoch_budget"],
            stop_fraction=d.get("stop_fraction", 1.0),
            halving_rate=d.get("halving_rate", 2),
            grace_fraction=d.get("grace_fraction", 0.05),
        )


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


@dataclass
class _RungReports:
    losses: dict[GridCell, float] = field(default_factory=dict)


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
        self._stopped: dict[GridCell, int] = {}  # cell -> epoch stopped at
        self._seen: set[GridCell] = set()
        self._reports: dict[int, _RungReports] = {}
        self.decision_log: list[dict] = []

    # -- queries ---------------------------------------------------------

    @property
    def alive_count(self) -> int:
        return self.n_trials - len(self._stopped)

    def alive_fraction(self) -> float:
        return self.alive_count / self.n_trials

    def is_alive(self, cell: GridCell) -> bool:
        return cell not in self._stopped

    def stopped_epoch(self, cell: GridCell) -> int | None:
        return self._stopped.get(cell)

    # -- events ----------------------------------------------------------

    def _log(self, cell: GridCell, epoch: int, decision: Decision, rung: int | None) -> None:
        self.decision_log.append(
            {
                "row": cell.row,
                "col": cell.col,
                "epoch": epoch,
                "decision": decision.value,
                "rung": rung,
            }
        )

    def _stop(self, cell: GridCell, epoch: int) -> None:
        self._stopped[cell] = epoch

    def mark_diverged(self, cell: GridCell, epoch_completed: int) -> None:
        """Remove a diverged trial; it counts as stopped at its divergence epoch."""
        if cell in self._stopped:
            raise ScheduleError(f"trial {cell} already stopped")
        self._seen.add(cell)
        self._stop(cell, epoch_completed)
        self._log(cell, epoch_completed, Decision.STOP, None)
        # its departure may complete a rung the others are waiting on
        self._maybe_resolve_pending_rungs()

    def decide(self, cell: GridCell, epoch_completed: int, train_loss: float) -> Decision:
        """Continue-or-stop for one trial after ``epoch_completed`` epochs."""
        if cell in self._stopped:
            raise ScheduleError(f"decision requested for stopped trial {cell}")
        if epoch_completed > self.policy.epoch_budget:
            raise ScheduleError(f"epoch {epoch_completed} beyond budget {self.policy.epoch_budget}")
        self._seen.add(cell)

        if epoch_completed == self.policy.epoch_budget:
            self._stop(cell, epoch_completed)
            self._log(cell, epoch_completed, Decision.STOP, None)
            return Decision.STOP

        if self.policy.kind == "fifo" or self.halving_ceased:
            return Decision.CONTINUE
        if epoch_completed not in self.levels:
            return Decision.CONTINUE

        reports = self._reports.setdefault(epoch_completed, _RungReports())
        reports.losses[cell] = train_loss
        if len(reports.losses) >= self.alive_count:
            outcome = self._resolve_rung(epoch_completed)
            return outcome[cell]
        return Decision.CONTINUE  # provisional; rung resolves on the final report

    def _maybe_resolve_pending_rungs(self) -> None:
        for level in sorted(self._reports):
            reports = self._reports[level]
            pending = {c: l for c, l in reports.losses.items() if c not in self._stopped}
            reports.losses = pending
            if pending and len(pending) >= self.alive_count and not self.halving_ceased:
                self._resolve_rung(level)

    def _resolve_rung(self, level: int) -> dict[GridCell, Decision]:
        reports = self._reports.pop(level)
        entries = sorted(
            reports.losses.items(),
            # NaN losses rank worst; ties break on (row, col)
            key=lambda kv: (math.isnan(kv[1]), kv[1] if not math.isnan(kv[1]) else 0.0, kv[0]),
        )
        alive = len(entries)
        if alive <= self.survivor_cap:
            # cap already met (e.g. through divergences): no halving here or later
            self.halving_ceased = True
            outcome = {cell: Decision.CONTINUE for cell, _ in entries}
        else:
            n_promote = math.ceil(alive / self.policy.halving_rate)
            outcome = {}
            for rank, (cell, _loss) in enumerate(entries):
                outcome[cell] = Decision.CONTINUE if rank < n_promote else Decision.STOP
            if n_promote <= self.survivor_cap:
                self.halving_ceased = True
        for cell, _loss in entries:
            decision = outcome[cell]
            if decision is Decision.STOP:
                self._stop(cell, level)
            self._log(cell, level, decision, level)
        return outcome
