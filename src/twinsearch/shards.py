"""A search's shards after the first: each a ``ShardTrials`` in a forked process.

``execute_search`` splits a grid's trials into ``k`` shards interleaved by
cell index (shard ``s`` holds cells ``s, s + k, s + 2k, ...``), each a
``search.ShardTrials`` that stops and steps its own ``Cohort``'s trials.
Shard 0 runs in the search's process; ``forked`` forks one child per other
shard, which builds its ``ShardTrials`` and answers each segment's
command, the cells the last rung stopped and the epochs to the schedule's
next decision, with that object's ``run``, the code that answers it for
shard 0. Between commands a child trains on without a pipe round trip, so
a search exchanges with each child once per segment: 3 times on a 30x30
HB run at stop fraction 0.25 over 50 epochs, once on a FIFO run.
Every row of a cohort is computed exactly as a lone trial's would be, so a
trial's record does not depend on its shard, and the search is the same
search at any ``k``.

A ``Shard`` is the search's side of a child, driven like shard 0: ``send``
writes a command to the child and ``receive`` reads the reply. Its
``cells`` are fixed, the shard's cells in cell order, and a reply keys each
loss by its trial's position in them, not by its cell: a 450-entry reply
pickled in 12 us and loaded in 32 us with int keys, against 440 and 179 us
with ``GridCell`` keys (CPython 3.11.7). The two pipes between them carry
pickles that only this module writes. A child leaves only through
``os._exit``, and never unwinds into its caller's stack: when the parent
closes its command pipe it exits 0; when it fails it sends its exception
and traceback instead of a reply and exits 1, and the parent raises that
exception, its cause the child's traceback. A child that ends without a
whole reply makes ``receive`` raise ``search.ShardLostError``. ``forked``
reaps every child, after killing it if the search failed, so no process
outlives a search.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

from .search import ShardLostError

__all__ = ["Shard", "forked"]


class Shard:
    """A child process that runs one shard's ``ShardTrials``; ``cells`` are all its cells, in
    cell order, fixed: a reply's losses are keyed by position in them."""

    def __init__(self, index: int, pid: int, commands, replies, cells: list):
        self.index = index
        self.pid = pid
        self._commands = commands  # written by the parent, read by the child
        self._replies = replies  # written by the child, read by the parent
        self.cells = cells

    def send(self, command) -> None:
        """Have the child run ``command``: stop those of its cells it holds, then step its
        live trials through the segment."""
        try:
            pickle.dump(command, self._commands, pickle.HIGHEST_PROTOCOL)
            self._commands.flush()
        except BrokenPipeError:  # the child ended while it waited for a command
            raise self._lost() from None

    def receive(self) -> tuple[dict, list]:
        """The child's reply to the last command: its train losses at the segment's last
        epoch by position in ``cells``, and its ended records."""
        try:
            ok, payload = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):  # the pipe closed before the reply, or within it
            raise self._lost() from None
        if not ok:
            exc, text = payload
            cause = RuntimeError(f"in search shard {self.index} (pid {self.pid}):\n{text}")
            if exc is None:
                raise cause
            raise exc from cause
        return payload

    def _lost(self) -> ShardLostError:
        return ShardLostError(f"search shard {self.index} (pid {self.pid}) exited without a reply")

    def close_pipes(self) -> None:
        for pipe in (self._commands, self._replies):
            try:
                pipe.close()
            except OSError:  # a write left in the buffer for a child that is gone
                pass


@contextlib.contextmanager
def forked(make_shard, cell_lists: list[list]):
    """Fork a child for each of ``cell_lists``, the cells of shards 1, 2, ... in cell order, and
    yield their ``Shard``s; the child of ``cells`` answers commands with ``make_shard(cells)``,
    the ``ShardTrials`` it builds.

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
        for index, cells in enumerate(cell_lists, 1):
            shards.append(_fork(index, make_shard, cells, shards))
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


def _fork(index: int, make_shard, cells: list, earlier: list[Shard]) -> Shard:
    """Fork the child of shard ``index``: it builds ``make_shard(cells)`` and replies to each
    command with that ``ShardTrials``'s ``run`` until the pipe closes; ``earlier`` are the
    shards forked before it."""
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
                trials, commands = make_shard(cells), os.fdopen(command_r, "rb")
                while True:
                    try:
                        command = pickle.load(commands)
                    except EOFError:  # the parent closed the pipe
                        break
                    _reply(replies, (True, trials.run(command)))
                status = 0
            except BaseException as exc:
                _reply_failure(replies, exc)
        finally:
            os._exit(status)
    os.close(command_r)
    os.close(reply_w)
    return Shard(index, pid, os.fdopen(command_w, "wb"), os.fdopen(reply_r, "rb"), cells)


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
