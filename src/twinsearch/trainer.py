"""Mini-batch momentum-SGD trainer for small ReLU MLPs.

Gradients are hand-coded (softmax cross-entropy backprop) so they can be
checked against central finite differences. Parameters live in one flat
float64 vector; the L2 term enters the update as grad + wd * theta, and the
logged train loss is the plain cross-entropy (mean of the epoch's batch
means). The logged norm covers all trainable parameters, biases included.
Val/test accuracy is not computed per epoch: a trial scores its last few
finite epochs once, when it reaches a terminal status.

An epoch's train loss and norm go from the stacked step straight into its
cohort's epoch log, one float64 array of shape (epochs, trials, 2) indexed
by the trial's fixed index; ``step_epoch`` reads them back as the two floats
it checks. When a trial ends, its ``TrialRecord`` takes a (epochs_run, 2)
float64 copy of its column, which a forked shard pickles to the search and
``records.Records.of`` concatenates. No layer keeps a Python float per
trial-epoch.

The trials of one search form a ``Cohort``, built with all of them, which
owns their parameters and steps them together in stacked passes of up to
``STACK_SLICE`` trials. Every row of a pass is computed exactly as a lone
trial's would be, so results do not depend on who else is in the cohort or
on the slice size.

A search's memory follows its live trials. The cohort's row arrays (theta,
velocity, lr0, wd) are sized to the live rows again at each compaction,
the first step after trials end, so after a rung they hold only the
survivors. A trial copies its theta only into its metric window, the last
finite epochs it scores (none on a task with nothing to score), and keeps
no theta once it ends.

``MLP.loss_and_grad`` gives the bits of the frozen reference kernel in
``tests/kernel_oracle.py`` (NaN payloads aside). Element-wise steps (bias
adds, the softmax division, the one-hot subtraction, the ReLU mask) may run
in place, and the class-axis max may be taken in any order, since max is
exact. No sum may be reordered: the class-axis sum stays one
``.sum(axis=2)`` reduction, because numpy sums eight or more terms pairwise
and a running column sum rounds differently. A mean is ``.sum(axis=1) / n``,
the reduction and division ``np.mean`` runs, without its Python wrapper. The
label logits are gathered with one ``take`` by flat index, and a trial's
norm is the BLAS dot product ``np.linalg.norm`` takes, so a stacked
(1, P) @ (P, 1) product per row gives each norm its bits.

Training and scoring run in buffers that the search's one ``MLP`` keeps,
one flat array per role, grown to the largest size asked for: each layer's
output (shared by training and scoring), the ReLU mask, the gathered
minibatch and the update scratch. A pass takes ``flat[:size].reshape(shape)``
views; they are C-contiguous for every shape, so matmul runs as on a fresh
array (views into one block of the largest shape are strided and slower).
Each backprop delta overwrites the activation it replaces. Per call, only
the returned losses and gradients and small (T, B)-sized temporaries are
allocated: freeing activation-sized arrays on every call made glibc trim
and re-fault its heap or unmap them, about 80,000 minor page faults in a
default FIFO ``run`` (under 2,000 now).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import GridCell
from .tasks import SyntheticTask

__all__ = [
    "ArchSpec",
    "TrainerConfig",
    "TrialRecord",
    "MLP",
    "Cohort",
    "TrialRunner",
    "cosine_lr",
    "schedule_lr",
    "sgdm_step",
    "STATUS_COMPLETED",
    "STATUS_STOPPED_EARLY",
    "STATUS_DIVERGED",
    "STATUS_RUNNING",
]

STATUS_RUNNING = "running"
STATUS_COMPLETED = "completed"
STATUS_STOPPED_EARLY = "stopped_early"
STATUS_DIVERGED = "diverged"
TERMINAL_STATUSES = frozenset({STATUS_COMPLETED, STATUS_STOPPED_EARLY, STATUS_DIVERGED})

LR_SCHEDULES = ("cosine", "piecewise", "constant")

# Trials per stacked pass. The default `twinsearch run` (10x10 grid, FIFO,
# the `fifo-grid` perfbench workload) decided it: its 100 trials run each
# minibatch as 2 passes (64 + 36) instead of 7 at 16 rows, and its wall time
# fell 14% (CHANGES.md) for +0.8 MB peak RSS. Larger slices grow the
# (T, B, width) buffers and the (T, P) gradient and update scratch;
# tests/test_search.py::test_a_round_holds_no_second_copy_of_trial_state
# bounds them: a round of 400 trials allocates 0.66 of a (T, P) stack on top
# of the stacks at 64, and more than a whole stack at 128.
STACK_SLICE = 64


@dataclass(frozen=True)
class ArchSpec:
    """Hidden-layer widths of the MLP; input/output sizes come from the task."""

    hidden: tuple[int, ...] = (32,)

    def __post_init__(self) -> None:
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")


@dataclass(frozen=True)
class TrainerConfig:
    """Training settings every trial of a search shares.

    Each trial's lr0 and wd come from its grid cell, and the epoch horizon
    of the LR schedule is the scheduler's budget.
    """

    momentum: float = 0.9
    batch_size: int = 32
    lr_schedule: str = "cosine"
    init_seed: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ValueError(f"lr_schedule must be one of {LR_SCHEDULES}, got {self.lr_schedule!r}")
        if type(self.init_seed) is not int or self.init_seed < 0:  # bool is no seed
            raise ValueError(f"init_seed must be a non-negative integer, got {self.init_seed!r}")


@dataclass(slots=True)
class TrialRecord:
    """One trial's log; the source of the loss/norm matrices.

    ``values`` is a float64 array of shape (epochs_run, 2): row ``i`` holds
    epoch ``i``'s train loss and norm. A cohort's trial has none (None) while
    it runs, as its epochs are its column of the cohort's log, and takes a
    copy of that column when it ends. ``scored`` maps each scored epoch to
    its ``(val, test)`` accuracies (``None`` for a set the task lacks); it is
    made only when the trial is scored, so an unscored trial holds no dict.
    """

    cell: GridCell
    values: np.ndarray | None = None
    status: str = STATUS_RUNNING
    scored: dict[int, tuple[float | None, float | None]] | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.values)


def cosine_lr(lr0, t: int, epochs: int):
    """Per-epoch cosine decay: lr0 * 0.5 * (1 + cos(pi * t / epochs)).

    ``lr0`` may be a float or an array; each element gets a float's bits.
    """
    if not 0 <= t < epochs:
        raise ValueError(f"epoch index {t} outside [0, {epochs})")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / epochs))


def schedule_lr(schedule: str, lr0, t: int, epochs: int):
    """The LR of epoch ``t`` of an ``epochs``-epoch horizon, starting from lr0.

    ``lr0`` may be a float or an array, such as a cohort's (T, 1) column.
    """
    if schedule == "cosine":
        return cosine_lr(lr0, t, epochs)
    if schedule == "piecewise":
        # step decay: x0.1 at 50% of the budget, x0.01 at 75%
        if t >= 0.75 * epochs:
            return lr0 * 0.01
        if t >= 0.5 * epochs:
            return lr0 * 0.1
        return lr0
    return lr0


def sgdm_step(
    theta: np.ndarray,
    velocity: np.ndarray,
    grad: np.ndarray,
    lr_t: float,
    wd: float,
    momentum: float,
    g: np.ndarray,
) -> None:
    """One momentum-SGD update with L2-coupled decay, in place.

    g = grad + wd * theta; v' = momentum * v + g; theta' = theta - lr_t * v'.
    ``theta`` and ``velocity`` are updated in place and ``g`` is scratch of
    theta's shape. For a (T, P) stack, lr_t, wd and momentum may be (T, 1)
    columns.
    """
    np.multiply(wd, theta, out=g)
    np.add(grad, g, out=g)
    velocity *= momentum
    velocity += g
    np.multiply(lr_t, velocity, out=g)
    theta -= g


class MLP:
    """ReLU MLP over a flat parameter vector, with exact backprop gradients.

    Its passes run in buffers it keeps (see the module doc), so a pass
    overwrites what the one before it left there.
    """

    def __init__(self, input_dim: int, hidden: tuple[int, ...], n_classes: int):
        self.sizes = [input_dim, *hidden, n_classes]
        self._slices: list[tuple[slice, slice, int, int]] = []
        offset = 0
        for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]):
            w = slice(offset, offset + n_in * n_out)
            offset += n_in * n_out
            b = slice(offset, offset + n_out)
            offset += n_out
            self._slices.append((w, b, n_in, n_out))
        self.n_params = offset
        self._flat: dict[int | str, np.ndarray] = {}  # role -> flat buffer

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        theta = np.zeros(self.n_params)
        for w, _b, n_in, n_out in self._slices:
            theta[w] = rng.standard_normal(n_in * n_out) * math.sqrt(2.0 / n_in)
        return theta

    def _layers(self, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weights, bias) views per layer, for one theta (P,) or a stack (T, P)."""
        lead = theta.shape[:-1]
        return [
            (theta[..., w].reshape(*lead, n_in, n_out), theta[..., None, b])
            for w, b, n_in, n_out in self._slices
        ]

    def _buffer(self, role: int | str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous ``shape`` view of ``role``'s flat buffer, grown to the largest size yet."""
        size = math.prod(shape)
        flat = self._flat.get(role)
        if flat is None or flat.size < size:
            flat = self._flat[role] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def _label_offsets(self, rows: int) -> np.ndarray:
        """``arange(rows) * n_classes``: where each of ``rows`` logit rows starts in the flat logits."""
        offsets = self._flat.get("offsets")
        if offsets is None or offsets.size < rows:
            offsets = self._flat["offsets"] = np.arange(rows, dtype=np.intp) * self.sizes[-1]
        return offsets[:rows]

    def _forward(self, theta: np.ndarray, x: np.ndarray) -> list[np.ndarray]:
        """``x``, each hidden activation and the logits; layer i's output is buffer role i.

        ``theta`` is one (P,) vector with ``x`` (N, D), or a (T, P) stack
        with ``x`` (T, B, D).
        """
        acts = [x]
        layers = self._layers(theta)
        for i, (wm, bv) in enumerate(layers):
            z = np.matmul(acts[i], wm, out=self._buffer(i, (*x.shape[:-1], wm.shape[-1])))
            z += bv
            if i < len(layers) - 1:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def loss_and_grad(
        self, theta: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Minibatch losses (T,) and gradients (T, P) for a stack of T trials.

        ``theta`` is (T, P), ``x`` is (T, B, D) and ``y`` is (T, B): row t is
        trial t's minibatch. Each row gets the same bits as a stack of one.
        The two returned arrays are new; everything else runs in the buffers.
        """
        acts = self._forward(theta, x)
        z = acts.pop()

        # a running max is exact; the class-axis sum must stay one reduction
        n_classes = z.shape[2]
        zmax = z[..., 0]
        for c in range(1, n_classes):
            zmax = np.maximum(zmax, z[..., c])
        z -= zmax[..., None]
        t, n = y.shape
        # each row's label logit, by its flat index (row * n_classes + label)
        flat_idx = np.add(self._label_offsets(t * n).reshape(t, n), y,
                          out=self._buffer("pick", y.shape, np.intp))
        picked = np.take(z.reshape(-1), flat_idx)  # a copy, read before z is overwritten
        expz = np.exp(z, out=z)
        sums = expz.sum(axis=2)
        losses = (np.log(sums) - picked).sum(axis=1) / n

        grad = np.empty_like(theta)
        delta = expz
        delta /= sums[..., None]
        delta -= y[..., None] == np.arange(n_classes)
        delta /= n
        for i in range(len(self._slices) - 1, -1, -1):
            w_sl, b_sl, n_in, n_out = self._slices[i]
            np.matmul(acts[i].swapaxes(1, 2), delta, out=grad[:, w_sl].reshape(t, n_in, n_out))
            grad[:, b_sl] = delta.sum(axis=1)
            if i > 0:
                # a > 0 exactly where z > 0 (NaN included), so the mask is
                # taken from the activation, which the delta then overwrites
                mask = np.greater(acts[i], 0.0, out=self._buffer("mask", acts[i].shape, bool))
                wm = theta[:, w_sl].reshape(t, n_in, n_out)
                delta = np.matmul(delta, wm.swapaxes(1, 2), out=acts[i])
                delta *= mask
        return losses, grad

    def accuracy(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self._forward(theta, x)[-1].argmax(axis=1) == y))


class Cohort:
    """The trials of one search and their state, stepped one epoch per round.

    It is built with all its trials, ``(cell, lr0, wd)`` in slot order. It
    owns what they share (the task, the one ``MLP``, the ``TrainerConfig``,
    the epoch horizon ``epochs`` and ``metric_window``, the last finite
    epochs an ended trial scores, 0 on a task with nothing to score) and
    every live trial's state: theta and velocity as two (T, P) stacks and
    lr0 and wd as (T, 1) columns, allocated once, one row per trial. Its
    ``log`` holds every epoch's train loss and norm, ``log[epoch, index]``,
    one float64 array of shape (epochs, trials, 2) made once by ``np.empty``,
    so its pages fill only as rounds write them. It makes each trial's
    ``TrialRunner``, which keeps its fixed ``index`` into the log and its row
    index, its slot; the live runners are ``members``, in slot order. An
    ended runner leaves ``members`` at once, so it is not referenced from
    here, and keeps no copy of its row. The next step compacts the rows
    away and shrinks each array in place to the members' rows, so the
    stacks never hold more rows than the trials still alive at the last
    step; the log keeps every trial's column.

    The first ``TrialRunner.step_epoch`` call of a round (its trial is at
    ``epoch``) runs ``step``: one epoch for every member, on row slices of
    ``STACK_SLICE`` (64) members, so a 100-cell grid runs as a slice of 64
    and one of 36. A slice's theta and velocity are views of the stacks,
    updated in place. Each member's minibatch (from its own permutation) is
    gathered into the model's (T, B, D) buffer; each minibatch is one
    stacked forward/backward pass and one in-place momentum update with
    per-row lr and wd. After the last minibatch, the slice's norms are one
    stacked (T, 1, P) @ (T, P, 1) product, and the slice's losses and norms
    go into the log, one assignment per column. Every call then reads its
    own train loss and norm from the log. ``step`` refuses to run while a
    member is behind, so each is at ``epoch`` or one before it.
    """

    def __init__(self, task: SyntheticTask, arch: ArchSpec, config: TrainerConfig, epochs: int,
                 metric_window: int, trials: list[tuple[GridCell, float, float]]):
        self.task = task
        self.model = MLP(task.input_dim, arch.hidden, task.n_classes)
        self.config = config
        self.epochs = epochs
        self.metric_window = metric_window if task.n_val or task.n_test else 0
        self.epoch = 0  # epochs stepped so far
        # rows: the members', and ended ones' until compacted; each array owns
        # its data, so that _compact can resize it in place
        n = len(trials)
        self._theta = np.empty((n, self.model.n_params))
        self._velocity = np.zeros((n, self.model.n_params))
        self._lr0, self._wd = np.empty((n, 1)), np.empty((n, 1))
        self._lr0[:, 0] = [lr0 for _, lr0, _ in trials]
        self._wd[:, 0] = [wd for _, _, wd in trials]
        self.log = np.empty((epochs, n, 2))
        self.members: dict[TrialRunner, None] = {
            TrialRunner(self, slot, cell): None for slot, (cell, _, _) in enumerate(trials)
        }

    def step(self) -> None:
        """Run the next epoch for every live member; each then reads its results."""
        live = list(self.members)
        behind = next((r for r in live if r.epochs_run != self.epoch), None)
        if behind is not None:
            raise RuntimeError(f"trial {behind.cell} stepped out of lockstep with its cohort")
        self._compact(live)
        n = len(live)
        # schedule_lr's operations on the whole column, so each row gets a lone trial's bits
        lr_t = schedule_lr(self.config.lr_schedule, self._lr0, self.epoch, self.epochs)
        for start in range(0, n, STACK_SLICE):
            rows = slice(start, min(start + STACK_SLICE, n))
            self._step_rows(rows, live[rows], lr_t[rows])
        self.epoch += 1

    def _compact(self, live: list[TrialRunner]) -> None:
        """Close the rows that ended runners left, keeping the members' slot order,
        and shrink the row arrays to the members' rows.

        Rows move up in chunks of ``STACK_SLICE``, so no move holds more than
        a chunk's copy: a chunk's source rows lie at or after its target rows
        and after every earlier chunk's. Each array is then resized in place
        by ``ndarray.resize``, whose realloc keeps the leading rows and
        returns the tail to the allocator; its reference check refuses an
        array that a view still holds, which is why ``TrialRunner.theta``
        returns a copy. A Python profile or trace hook holds one more
        reference to the array during the call, so under one the check always
        refuses; the members' rows are then copied out instead.
        """
        n = len(live)
        if len(self._theta) == n:
            return
        first = next((i for i, r in enumerate(live) if r._slot != i), n)
        slots = np.array([r._slot for r in live[first:]], dtype=np.intp)
        for name in ("_theta", "_velocity", "_lr0", "_wd"):
            rows = getattr(self, name)
            for start in range(0, len(slots), STACK_SLICE):
                src = slots[start : start + STACK_SLICE]
                rows[first + start : first + start + len(src)] = rows[src]
            shape = (n, rows.shape[1])
            del rows  # the reference check counts this name too
            try:
                getattr(self, name).resize(shape)
            except ValueError:
                setattr(self, name, getattr(self, name)[:n].copy())
        for i in range(first, n):
            live[i]._slot = i

    def _step_rows(self, rows: slice, runners: list[TrialRunner], lr_t: np.ndarray) -> None:
        """One epoch for the members in ``rows``, updated in place in the stacks."""
        model, config = self.model, self.config
        x, y = self.task.train_inputs, self.task.train_labels
        order = np.stack([np.random.Generator(r.bit_generator).permutation(len(y)) for r in runners])
        # rows is a slice, so these are views of the stacks
        theta, velocity, wd = self._theta[rows], self._velocity[rows], self._wd[rows]
        g = model._buffer("g", theta.shape)
        batch_losses = []
        with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
            for start in range(0, len(y), config.batch_size):
                idx = order[:, start : start + config.batch_size]
                # the indices are in range; "clip" lets take write to out unbuffered
                xb = model._buffer("x", (*idx.shape, x.shape[1]))
                yb = model._buffer("y", idx.shape, y.dtype)
                np.take(x, idx, axis=0, out=xb, mode="clip")
                np.take(y, idx, out=yb, mode="clip")
                losses, grad = model.loss_and_grad(theta, xb, yb)
                sgdm_step(theta, velocity, grad, lr_t, wd, config.momentum, g)
                batch_losses.append(losses)
            train_loss = np.stack(batch_losses, axis=1).sum(axis=1) / len(batch_losses)
            # np.linalg.norm's dot, one row at a time (a norm along axis 1 rounds differently)
            norms = np.sqrt(np.matmul(theta[:, None, :], theta[:, :, None]).reshape(-1))
        log = self.log[self.epoch]
        index = [r.index for r in runners]
        log[index, 0] = train_loss
        log[index, 1] = norms


class TrialRunner:
    """One trial: its cell, its random stream, its record, its log index and its cohort slot.

    Its ``cohort`` makes it. Batch order and initialization derive from
    (init_seed, cell), so every trial is an independent, replayable stream.
    Its theta, velocity, lr0 and wd are rows of the cohort's stacks and its
    epochs its column of the cohort's log (see ``Cohort``); its record takes
    a copy of that column when it ends. ``theta`` is a copy of its row while
    it is alive, so no view can keep the cohort from shrinking the stacks;
    once the trial ends it raises, since the trial keeps no parameters.

    Val/test accuracy is computed when the trial reaches a terminal status
    (completed, diverged, or ``finish``), for its last
    ``cohort.metric_window`` finite epochs, whose theta copies it keeps
    until then; their (val, test) pairs become the record's ``scored``, and
    other epochs have none. A task with no val or test set has a window of
    0, and its runners hold no window and their records no ``scored``.
    """

    def __init__(self, cohort: Cohort, slot: int, cell: GridCell):
        self.cohort = cohort
        self.index = slot  # its column of the cohort's log; the slot moves as rows compact
        self.epochs_run = 0
        self.cell = cell
        seed = np.random.SeedSequence([cohort.config.init_seed, cell.row, cell.col])
        self.bit_generator = np.random.PCG64(seed)  # a Generator wraps it only where it draws
        self.record = TrialRecord(cell=cell)
        # (epoch, theta) of the last finite epochs, scored when the trial ends
        window = cohort.metric_window
        self._recent: deque[tuple[int, np.ndarray]] | None = deque(maxlen=window) if window else None
        self._slot = slot
        cohort._theta[slot] = cohort.model.init_params(np.random.Generator(self.bit_generator))

    @property
    def theta(self) -> np.ndarray:
        """A copy of this trial's row; an ended trial keeps no parameters."""
        if self.done:
            raise RuntimeError(f"trial {self.cell} ended ({self.record.status}) and keeps no parameters")
        return self.cohort._theta[self._slot].copy()

    @property
    def done(self) -> bool:
        return self.record.status in TERMINAL_STATUSES

    def finish(self, status: str) -> None:
        if status not in TERMINAL_STATUSES:
            raise ValueError(f"not a terminal status: {status!r}")
        if not self.done:
            self._end(status)

    def _end(self, status: str) -> None:
        """Set the terminal status, copy the log column to the record, leave the cohort and
        score the kept epochs."""
        self.record.status = status
        self.record.values = self.cohort.log[: self.epochs_run, self.index].copy()
        del self.cohort.members[self]
        if self._recent:
            task, model = self.cohort.task, self.cohort.model
            with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
                self.record.scored = {
                    epoch: (
                        model.accuracy(theta, task.val_inputs, task.val_labels) if task.n_val else None,
                        model.accuracy(theta, task.test_inputs, task.test_labels) if task.n_test else None,
                    )
                    for epoch, theta in self._recent
                }
        self._recent = None

    def step_epoch(self) -> float:
        """Run one epoch: read its train loss and norm from the cohort's log, flag divergence
        on a non-finite one, and return the train loss.

        The first call of a round steps the whole cohort; every call reads
        its own results. The trial is scored at the epoch that ends it; see
        the class doc.
        """
        if self.done:
            raise RuntimeError(f"trial {self.cell} already finished ({self.record.status})")
        epoch = self.epochs_run
        if epoch == self.cohort.epoch:
            self.cohort.step()
        train_loss, norm = self.cohort.log[epoch, self.index].tolist()
        self.epochs_run = epoch + 1
        if not (math.isfinite(train_loss) and math.isfinite(norm)):
            self._end(STATUS_DIVERGED)
        else:
            if self._recent is not None:
                self._recent.append((epoch, self.theta))
            if epoch + 1 == self.cohort.epochs:
                self._end(STATUS_COMPLETED)
        return train_loss
