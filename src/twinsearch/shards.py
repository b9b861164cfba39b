"""A search's trials in forked processes: the shards of ``execute_search`` after the first.

``execute_search`` splits a grid's trials into ``k`` shards interleaved by
cell index (shard ``s`` holds cells ``s, s + k, s + 2k, ...``). Shard 0 is
the search's own ``Cohort``; ``forked`` forks one child per other shard, each
with a ``Cohort`` of its own, built and stepped in the child. Every row of a
cohort is computed exactly as a lone trial's would be, so a trial's record
does not depend on its shard, and the search is the same search at any
``k``: its rounds stay synchronous, and the parent merges the children's
results into cell order before ``Schedule.decide`` and the file writes.

Each child talks to the parent over two pipes of pickles that only this
module writes. A round is two exchanges at most:

- ``Shard.step`` sends ``None``: the child steps its live trials one epoch
  and ``Shard.stepped`` reads back each live trial's train loss (``None`` if
  it diverged), in cell order, and the whole ``TrialRecord`` of every trial
  that ended in the step, its window metrics scored;
- ``Shard.stop`` sends the child's cells that ``decide`` stopped, if there
  are any: the child finishes and scores them, and ``Shard.stopped`` reads
  their records.

With a store, a child creates its cells' trial files empty on a helper
thread of its own, started after the fork, and waits for it before it sends
its first record; the parent writes every trial file, in the round its
trial ends.

The parent sends to every child before it does its own part of the work,
so the children run while it does. A child leaves only through
``os._exit``, and never unwinds into its caller's stack: when the parent
closes its command pipe it exits 0; when it fails it sends its exception
and traceback instead of a reply and exits 1, and the parent raises that
exception, its cause the child's traceback. ``forked`` reaps every child,
after killing it if the search failed, so no process outlives a search.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

from .trainer import STATUS_DIVERGED, STATUS_STOPPED_EARLY, Cohort

__all__ = ["Shard", "forked"]


class Shard:
    """A child process that trains one shard's trials; ``cells`` are its live cells, in order."""

    def __init__(self, index: int, pid: int, commands, replies, cells: list):
        self.index = index
        self.pid = pid
        self._commands = commands  # written by the parent, read by the child
        self._replies = replies  # written by the child, read by the parent
        self.cells = cells
        self._stopping: list = []

    def step(self) -> None:
        """Have the child step its live trials one epoch."""
        self._send(None)

    def stepped(self, losses: dict, ended: list) -> None:
        """Read the step's reply: each live trial's train loss into ``losses`` and the records
        of the trials that ended into ``ended``."""
        values, records = self._receive()
        losses.update(zip(self.cells, values))
        self._ended(records, ended)

    def stop(self, schedule) -> None:
        """Have the child finish its live trials that ``schedule`` stopped, if it has any."""
        self._stopping = [cell for cell in self.cells if not schedule.is_alive(cell)]
        if self._stopping:
            self._send(self._stopping)

    def stopped(self, ended: list) -> None:
        """Read the records of the trials ``stop`` finished into ``ended``."""
        if self._stopping:
            self._stopping = []
            self._ended(self._receive(), ended)

    def _ended(self, records: list, ended: list) -> None:
        ended += records
        gone = {record.cell for record in records}
        self.cells = [cell for cell in self.cells if cell not in gone]

    def _send(self, message) -> None:
        pickle.dump(message, self._commands, pickle.HIGHEST_PROTOCOL)
        self._commands.flush()

    def _receive(self):
        try:
            ok, payload = pickle.load(self._replies)
        except EOFError:
            raise RuntimeError(f"search shard {self.index} (pid {self.pid}) exited without a reply") from None
        if ok:
            return payload
        exc, text = payload
        cause = RuntimeError(f"in search shard {self.index} (pid {self.pid}):\n{text}")
        if exc is None:
            raise cause
        raise exc from cause

    def close_pipes(self) -> None:
        for pipe in (self._commands, self._replies):
            try:
                pipe.close()
            except OSError:  # a write left in the buffer for a child that is gone
                pass


@contextlib.contextmanager
def forked(task, arch, config, epochs: int, metric_window: int, trials: list, k: int, files=None):
    """Fork a child for each of shards 1 to ``k - 1`` of ``trials`` (``(cell, lr0, wd)`` in cell
    order) and yield their ``Shard``s; shard ``s`` trains ``trials[s::k]``. ``files``, if not
    None, makes the ``TrialFiles`` of a child's cells in the child.

    On leaving, every child's pipes are closed, which ends an idle child, and
    every child is reaped; if the block raised, each child is killed first.
    While the children live, this process and they run OpenBLAS, if numpy's
    BLAS is OpenBLAS, on one thread each: an idle OpenBLAS worker thread
    spins, and took the core that the other process trains on (on a 2-CPU
    host a default FIFO run took 0.73-0.84 s in two processes, 0.46-0.64 s
    in one).
    The thread count is restored on leaving; a child inherits it at the fork.
    """
    blas = _openblas()
    threads = blas[0]() if blas else None
    shards: list[Shard] = []
    try:
        if blas:
            blas[1](1)
        for index in range(1, k):
            cohort_args = (task, arch, config, epochs, metric_window, trials[index::k])
            cells = [cell for cell, _, _ in trials[index::k]]
            shards.append(_fork(index, cohort_args, cells, files, shards))
        yield shards
    except BaseException:
        for shard in shards:
            with contextlib.suppress(ProcessLookupError):  # reaped already, as under SIGCHLD ignored
                os.kill(shard.pid, signal.SIGKILL)
        raise
    finally:
        for shard in shards:
            shard.close_pipes()
        for shard in shards:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(shard.pid, 0)
        if blas:
            blas[1](threads)


def _openblas():
    """The thread-count getter and setter of the OpenBLAS this process loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:  # Linux: the mapped libraries
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded: the same library
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


def _fork(index: int, cohort_args: tuple, cells: list, files, earlier: list[Shard]) -> Shard:
    """Fork the child of shard ``index``: it builds ``Cohort(*cohort_args)`` over ``cells`` and
    serves its commands; ``earlier`` are the shards forked before it."""
    command_r, command_w = os.pipe()
    reply_r, reply_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (command_r, command_w, reply_r, reply_w):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            # the child holds only its own ends, so each child sees its parent close
            os.close(command_w)
            os.close(reply_r)
            for shard in earlier:
                shard.close_pipes()
            replies = os.fdopen(reply_w, "wb")
            try:
                creator = files(cells) if files is not None else None
                _serve(Cohort(*cohort_args), os.fdopen(command_r, "rb"), replies, creator)
                status = 0
            except BaseException as exc:
                _reply_failure(replies, exc)
        finally:
            os._exit(status)
    os.close(command_r)
    os.close(reply_w)
    return Shard(index, pid, os.fdopen(command_w, "wb"), os.fdopen(reply_r, "rb"), cells)


def _serve(cohort: Cohort, commands, replies, creator) -> None:
    """The child's loop: step or stop its trials as each command says, until the pipe closes.
    ``creator``, the ``TrialFiles`` of its cells or None, is waited for before the first reply
    that carries a record, so the parent writes no trial file before it is created."""
    alive = list(cohort.members)
    while True:
        try:
            stopping = pickle.load(commands)
        except EOFError:
            return
        if stopping is None:
            losses = []
            for runner in alive:
                last = runner.step_epoch()
                losses.append(None if runner.record.status == STATUS_DIVERGED else last.train_loss)
            ended = [runner.record for runner in alive if runner.done]
            reply = (losses, ended)
        else:
            by_cell = {runner.cell: runner for runner in alive}
            for cell in stopping:
                by_cell[cell].finish(STATUS_STOPPED_EARLY)
            reply = ended = [by_cell[cell].record for cell in stopping]
        if ended and creator is not None:
            creator.wait()
            creator = None
        alive = [runner for runner in alive if not runner.done]
        _reply(replies, (True, reply))


def _reply(replies, message) -> None:
    pickle.dump(message, replies, pickle.HIGHEST_PROTOCOL)
    replies.flush()


def _reply_failure(replies, exc: BaseException) -> None:
    """Send ``exc`` and its traceback; an exception that does not pickle goes as text alone."""
    import traceback

    text = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = None
    _reply(replies, (False, (exc, text)))
