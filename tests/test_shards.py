"""A search sharded across forked processes is the same search, and leaves no process behind.

The grids have more than two stack slices of cells (``STACK_SLICE``), so
three shards can be asked for; the third comes from patching the CPU count
the search sees to 3, so a run forks two children at most. Every child that
a run forks is recorded through ``os.fork`` and must be reaped when the run
returns, however it ends.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twinsearch import search
from twinsearch.cli import main
from twinsearch.runstore import RunStore
from twinsearch.search import shard_count
from twinsearch.trainer import STACK_SLICE, Cohort

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)

# 132 cells, over two stack slices, and the CLI defaults otherwise. Cells with
# lr up to 1e6 and wd up to 50 diverge from round 4 on.
GRID = ["--n-lr", "12", "--n-wd", "11", "--lr-high", "1e6", "--wd-high", "50", "--n-val", "20", "--n-test", "100"]
# FIFO: cells diverge in rounds 5 to 7, the rest complete in round 8
FIFO = [*GRID, "--epochs", "8"]
# HB with rungs at 6 and 12: 12 cells diverge in round 6, where the rung stops 57
HB = [*GRID, "--epochs", "20", "--scheduler", "hb", "--stop-fraction", "0.25", "--grace", "0.3"]


def test_shard_count_is_the_jobs_capped_by_cpus_and_stack_slices():
    assert shard_count(1, 900, 2) == 1
    assert shard_count(8, 900, 2) == 2
    assert shard_count(2, 900, 8) == 2
    assert shard_count(8, 9, 8) == 1  # one stack slice of trials is never split
    assert shard_count(8, STACK_SLICE + 1, 8) == 2
    assert shard_count(8, 2 * STACK_SLICE + 1, 8) == 3
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        shard_count(0, 900, 2)


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked, each checked to be reaped after the test."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def no_unwinding_child(tmp_path):
    """Fail the test if a forked child returns through the caller's stack."""
    parent = os.getpid()
    marker = tmp_path / "a child unwound"
    try:
        yield
    finally:
        if os.getpid() != parent:
            marker.write_text(str(os.getpid()))
            os._exit(0)
    assert not marker.exists()


def run(store, flags, jobs):
    """Run ``r`` into ``store``: the exit code and what was printed to standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(["--store-root", str(store), "run", "--run-id", "r", *flags, "--jobs", str(jobs)])
    return rc, err.getvalue()


@pytest.mark.parametrize("flags", [FIFO, HB], ids=["fifo-diverging", "hb-diverging-at-a-rung"])
def test_every_file_of_a_run_is_the_same_at_one_two_and_three_shards(tmp_path, monkeypatch, forks, flags):
    monkeypatch.setattr(search, "usable_cpus", lambda: 3)
    with no_unwinding_child(tmp_path):
        for jobs in (1, 2, 3):
            assert run(tmp_path / f"jobs-{jobs}", flags, jobs) == (0, "")
            assert len(forks) == {1: 0, 2: 1, 3: 3}[jobs]  # one child per shard after the first
    for jobs in (2, 3):
        n_files, problems = parity.compare_dirs(tmp_path / "jobs-1" / "r", tmp_path / f"jobs-{jobs}" / "r")
        assert n_files == 132 + 5 and problems == []  # trial files, manifest, records, decisions, matrices, selection
    statuses = (tmp_path / "jobs-1" / "r" / "records.json").read_text()
    assert '"diverged"' in statuses and ('"stopped_early"' in statuses) == (flags is HB)
    if flags is HB:  # a rung round in which cells also diverge
        lines = (tmp_path / "jobs-1" / "r" / "decisions.jsonl").read_text().splitlines()
        decisions = [json.loads(line) for line in lines]
        rungs = {d["epoch"] for d in decisions if d["rung"] is not None}
        diverged = {d["epoch"] for d in decisions if d["rung"] is None and d["epoch"] < 20}
        assert rungs & diverged


def test_a_failing_child_fails_the_run_with_its_error(tmp_path, monkeypatch, forks):
    parent = os.getpid()
    step = Cohort.step

    def failing(self):
        if os.getpid() != parent and self.epoch == 2:
            raise ValueError("the child's step failed")
        step(self)

    monkeypatch.setattr(Cohort, "step", failing)
    with no_unwinding_child(tmp_path):
        rc, err = run(tmp_path, FIFO, 2)
    assert (rc, err) == (2, "error: the child's step failed\n")
    assert len(forks) == 1


def test_an_error_that_does_not_pickle_arrives_as_the_childs_traceback(tmp_path, monkeypatch, forks):
    class Local(Exception):  # pickled by name, which cannot be found again
        pass

    parent = os.getpid()
    step = Cohort.step

    def failing(self):
        if os.getpid() != parent:
            raise Local("unpicklable")
        step(self)

    monkeypatch.setattr(Cohort, "step", failing)
    with no_unwinding_child(tmp_path), pytest.raises(RuntimeError) as info:
        run(tmp_path, FIFO, 2)
    assert str(info.value).startswith("in search shard 1 (pid ")
    assert "Local: unpicklable" in str(info.value)
    assert len(forks) == 1


def test_a_failing_store_write_kills_and_reaps_the_children(tmp_path, monkeypatch, forks):
    def failing(self, run_id, record):
        raise OSError("no space left on the store")

    monkeypatch.setattr(RunStore, "append_trial_line", failing)
    with no_unwinding_child(tmp_path):
        rc, err = run(tmp_path, HB, 2)
    assert (rc, err) == (3, "storage error: no space left on the store\n")
    assert len(forks) == 1


def test_select_does_not_compile_the_shard_module(tmp_path):
    # the module is imported only by a search that forks; select never searches
    code = (
        "import sys\n"
        "from twinsearch.cli import main\n"
        f"root = {str(tmp_path)!r}\n"
        "assert main(['--store-root', root, 'run', '--run-id', 'r', '--n-lr', '3', '--n-wd', '3',"
        " '--epochs', '2', '--jobs', '1']) == 0\n"
        "assert main(['--store-root', root, 'select', 'r']) == 0\n"
        "print('twinsearch.shards' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "False"
