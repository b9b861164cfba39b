"""Frozen reference for the scheduler: the per-cell ``Schedule`` protocol,
written out once and not changed since.

Each trial reports on its own: ``decide(cell, epoch, loss)`` for a trial
that finished an epoch, ``mark_diverged(cell, epoch)`` for one that blew
up. A rung's reports are held until every alive trial has reported or left,
and the rung resolves on the report or departure that completes it. The
round-based ``twinsearch.scheduler.Schedule``, fed one lockstep round at a
time, must give the same decision log and the same alive set after every
round. Shares no code with the package: the rung ladder is copied too.
"""

from __future__ import annotations

import math

__all__ = ["FrozenSchedule", "frozen_rung_levels"]

CONTINUE = "continue"
STOP = "stop"


def frozen_rung_levels(policy) -> list[int]:
    """Rung ladder in completed-epoch counts, ending at the budget."""
    if policy.kind == "fifo":
        return []
    t = policy.epoch_budget
    r = max(1, math.floor(policy.grace_fraction * t + 0.5))
    levels = [min(r, t)]
    while levels[-1] < t:
        levels.append(min(t, levels[-1] * policy.halving_rate))
    return levels


class FrozenSchedule:
    """Alive set, pending rung reports and decision log, one cell at a time."""

    def __init__(self, policy, n_trials: int):
        self.policy = policy
        self.n_trials = n_trials
        self.levels = frozen_rung_levels(policy)
        self.survivor_cap = (
            math.ceil(policy.stop_fraction * n_trials) if policy.kind == "hb" else n_trials
        )
        self.halving_ceased = policy.kind == "fifo"
        self._stopped: dict = {}  # cell -> epoch stopped at
        self._reports: dict[int, dict] = {}  # rung epoch -> {cell: loss}
        self.decision_log: list[dict] = []

    @property
    def alive_count(self) -> int:
        return self.n_trials - len(self._stopped)

    def is_alive(self, cell) -> bool:
        return cell not in self._stopped

    def _log(self, cell, epoch: int, decision: str, rung: int | None) -> None:
        self.decision_log.append(
            {"row": cell.row, "col": cell.col, "epoch": epoch, "decision": decision, "rung": rung}
        )

    def mark_diverged(self, cell, epoch_completed: int) -> None:
        if cell in self._stopped:
            raise RuntimeError(f"trial {cell} already stopped")
        self._stopped[cell] = epoch_completed
        self._log(cell, epoch_completed, STOP, None)
        self._maybe_resolve_pending_rungs()

    def decide(self, cell, epoch_completed: int, train_loss: float) -> str:
        if cell in self._stopped:
            raise RuntimeError(f"decision requested for stopped trial {cell}")
        if epoch_completed > self.policy.epoch_budget:
            raise RuntimeError(f"epoch {epoch_completed} beyond budget {self.policy.epoch_budget}")
        if epoch_completed == self.policy.epoch_budget:
            self._stopped[cell] = epoch_completed
            self._log(cell, epoch_completed, STOP, None)
            return STOP
        if self.policy.kind == "fifo" or self.halving_ceased:
            return CONTINUE
        if epoch_completed not in self.levels:
            return CONTINUE
        reports = self._reports.setdefault(epoch_completed, {})
        reports[cell] = train_loss
        if len(reports) >= self.alive_count:
            return self._resolve_rung(epoch_completed)[cell]
        return CONTINUE  # provisional; the rung resolves on the final report

    def _maybe_resolve_pending_rungs(self) -> None:
        for level in sorted(self._reports):
            pending = {c: l for c, l in self._reports[level].items() if c not in self._stopped}
            self._reports[level] = pending
            if pending and len(pending) >= self.alive_count and not self.halving_ceased:
                self._resolve_rung(level)

    def _resolve_rung(self, level: int) -> dict:
        entries = sorted(
            self._reports.pop(level).items(),
            key=lambda kv: (math.isnan(kv[1]), kv[1] if not math.isnan(kv[1]) else 0.0, kv[0]),
        )
        alive = len(entries)
        if alive <= self.survivor_cap:
            self.halving_ceased = True
            outcome = {cell: CONTINUE for cell, _ in entries}
        else:
            n_promote = math.ceil(alive / self.policy.halving_rate)
            outcome = {
                cell: CONTINUE if rank < n_promote else STOP
                for rank, (cell, _loss) in enumerate(entries)
            }
            if n_promote <= self.survivor_cap:
                self.halving_ceased = True
        for cell, _loss in entries:
            if outcome[cell] == STOP:
                self._stopped[cell] = level
            self._log(cell, level, outcome[cell], level)
        return outcome
