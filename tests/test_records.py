"""The columnar ``Records`` give the matrices of the frozen per-record reference, bit for bit.

Runs are generated as the search leaves them: FIFO trials that run the
whole budget, HB trials stopped early (some under five epochs), diverged
trials whose last epoch is non-finite, so that their metric window ends
before their last epoch, and NaN or infinite losses anywhere. A run may be
val-free, and a trial may have one epoch. Each run is compared as the search
returns it (``Records.of``) and as ``load_run`` reads it back. The last tests
bound the memory ``load_run`` and ``write_records`` take for a large run.
"""

import math
import tempfile
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from records_frozen import (
    reference_assemble,
    reference_build_metric_surfaces,
    reference_slice_records,
    trial_log,
    trial_record,
    trial_records,
)
from twinsearch.grid import build_log_grid
from twinsearch.matrices import assemble, build_metric_surfaces, metric_window
from twinsearch.records import STATUSES, Records
from twinsearch.runstore import RunStore, RunStoreError
from twinsearch.scheduler import SchedulerPolicy
from twinsearch.search import slice_records
from twinsearch.trainer import (
    STATUS_COMPLETED,
    STATUS_DIVERGED,
    STATUS_STOPPED_EARLY,
)

ODD_LOSSES = (math.nan, math.inf, -math.inf)


def random_run(rng, kind, val_free, budget):
    """A grid and one record per cell, in random order, as a search of ``kind`` ends them."""
    grid = build_log_grid(1e-4, 1e-1, int(rng.integers(2, 7)), 1e-4, 1e-1, int(rng.integers(2, 7)))
    window = metric_window(kind)
    records = []
    for i in rng.permutation(grid.n_trials):
        cell = grid.cells()[i]
        pick = rng.random()
        if pick < 0.25:  # diverged: its last epoch is not finite
            status, n = STATUS_DIVERGED, int(rng.integers(1, budget + 1))
        elif kind == "hb" and budget > 1 and pick < 0.6:
            status, n = STATUS_STOPPED_EARLY, int(rng.integers(1, budget))
        else:
            status, n = STATUS_COMPLETED, budget
        losses = rng.uniform(0.01, 5.0, n) * 10.0 ** rng.uniform(-200, 200, n)
        norms = rng.uniform(0.1, 50.0, n)
        odd = rng.random(n) < 0.05  # a NaN or infinite loss anywhere
        losses[odd] = rng.choice(ODD_LOSSES, int(odd.sum()))
        if status == STATUS_DIVERGED:
            if rng.random() < 0.5:
                losses[-1] = rng.choice(ODD_LOSSES)
            else:
                norms[-1] = rng.choice(ODD_LOSSES)
        finite = np.flatnonzero(np.isfinite(losses) & np.isfinite(norms))
        scored = set() if val_free else set(finite[-window:].tolist())
        epochs = [
            (float(losses[e]), float(norms[e]), *((float(rng.random()), float(rng.random()))
                                                  if e in scored else (None, None)))
            for e in range(n)
        ]
        records.append(trial_record(cell, epochs, status))
    return grid, records


def stored(grid, policy, records):
    """``records`` written to ``records.json`` and read back by ``load_run``."""
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root)
        store.create_run("r", {"grid": asdict(grid), "scheduler": asdict(policy)})
        store.write_records("r", Records.of(records))
        return store.load_run("r")[2]


def same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def bits(records):
    """Every field of per-cell ``records``, floats as ``float.hex``."""
    def value(v):
        return float.hex(v) if type(v) is float else v

    return [(cell, r.status, [tuple(map(value, e)) for e in r.epochs]) for cell, r in records.items()]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["fifo", "hb"]),
    val_free=st.booleans(),
    budget=st.integers(1, 9),
)
def test_columns_give_the_frozen_matrices_bit_for_bit(seed, kind, val_free, budget):
    rng = np.random.default_rng(seed)
    grid, records = random_run(rng, kind, val_free, budget)
    by_cell = {r.cell: trial_log(r) for r in records}
    with np.errstate(all="ignore"):
        expected = reference_assemble(by_cell, grid)
        surfaces = reference_build_metric_surfaces(by_cell, grid, kind)
        for columns in (Records.of(records), stored(grid, SchedulerPolicy(kind, budget), records)):
            mats = assemble(columns, grid)
            for key in ("psi", "theta", "valid_mask", "epochs_run"):
                same_bits(getattr(mats, key), getattr(expected, key))
            got = build_metric_surfaces(columns, grid, kind)
            for key in ("train_loss", "val_acc", "test_acc"):
                same_bits(getattr(got, key), getattr(surfaces, key))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), strides=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_a_sliced_run_is_the_frozen_sub_grid(seed, strides):
    rng = np.random.default_rng(seed)
    grid, records = random_run(rng, "hb", False, 6)
    lr_stride, wd_stride = strides
    try:
        by_cell = {r.cell: trial_log(r) for r in records}
        expected, expected_grid = reference_slice_records(by_cell, grid, lr_stride, wd_stride)
    except ValueError:  # a stride that leaves fewer than two grid lines
        with pytest.raises(ValueError):
            slice_records(Records.of(records), grid, lr_stride, wd_stride)
        return
    sub, sub_grid = slice_records(Records.of(records), grid, lr_stride, wd_stride)
    assert sub_grid == expected_grid
    assert bits(trial_records(sub)) == bits(expected)
    with np.errstate(all="ignore"):
        same_bits(assemble(sub, sub_grid).psi, reference_assemble(expected, sub_grid).psi)


def test_the_generated_runs_hold_every_case():
    # the cases the module doc names occur in the first seeds the tests draw from
    seen = set()
    for seed in range(40):
        for kind in ("fifo", "hb"):
            grid, records = random_run(np.random.default_rng(seed), kind, seed % 2 == 1, 1 + seed % 9)
            for r in map(trial_log, records):
                scored = [e.epoch for e in r.epochs if e.val_metric is not None]
                seen.add(f"{kind}-{r.status}")
                seen.add("1-epoch" if r.epochs_run == 1 else "longer")
                if r.status == STATUS_STOPPED_EARLY and r.epochs_run < 5:
                    seen.add("stopped-under-5")
                if r.status == STATUS_DIVERGED and scored and scored[-1] < r.epochs_run - 1:
                    seen.add("window-ends-early")
                if any(math.isnan(e.train_loss) for e in r.epochs):
                    seen.add("nan-loss")
                if any(math.isinf(e.train_loss) for e in r.epochs):
                    seen.add("inf-loss")
            if all(e.val_metric is None for r in map(trial_log, records) for e in r.epochs):
                seen.add("val-free")
    assert seen >= {
        "fifo-completed", "fifo-diverged", "hb-stopped_early", "stopped-under-5", "window-ends-early",
        "nan-loss", "inf-loss", "1-epoch", "val-free",
    }


def test_a_status_is_terminal_unless_it_is_running():
    cell = build_log_grid(1e-4, 1e-1, 2, 1e-4, 1e-1, 2).cells()[0]
    records = Records.of([trial_record(cell, [], status) for status in STATUSES])
    assert [STATUSES[s] for s in records.status.tolist()] == list(STATUSES)
    assert records.terminal.tolist() == [status != "running" for status in STATUSES]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["val_metric", "test_metric"])
def test_a_non_finite_accuracy_is_refused(field, value):
    # an accuracy is a finite float or None; a NaN would be stored as "not scored"
    cells = build_log_grid(1e-4, 1e-1, 2, 1e-4, 1e-1, 2).cells()
    records = [trial_record(cell, [(1.0, 2.0, 0.5, 0.5)], STATUS_COMPLETED) for cell in cells]
    pair = {"val_metric": 0.5, "test_metric": 0.5, field: value}
    records[2] = trial_record(cells[2], [(1.0, 2.0, pair["val_metric"], pair["test_metric"])], STATUS_COMPLETED)
    with pytest.raises(RunStoreError) as info:
        Records.of(records)
    assert str(info.value) == "record of cell (1, 0): an accuracy is not finite"


def large_run(n=30, epochs=50):
    """A completed n x n FIFO run of ``epochs`` epochs a trial, each scored on its last."""
    rng = np.random.default_rng(0)
    trials, total = n * n, n * n * epochs
    scored = np.full(total, np.nan)
    scored[epochs - 1::epochs] = rng.random(trials)
    rows, cols = np.divmod(np.arange(trials), n)
    return Records(
        rows, cols, np.full(trials, STATUSES.index(STATUS_COMPLETED)), np.full(trials, epochs),
        rng.random(total), rng.uniform(1.0, 30.0, total), scored, scored.copy(),
    )


# The traced peak of load_run on large_run(): 45,000 epochs, a 2.2 MB records.json. The
# columnar reader peaked at 3.11 MB (CPython 3.11, numpy 2.4); the reader it replaced,
# which built a per-epoch tuple per epoch and a record per cell, at 6.96 MB.
LOAD_PEAK_BYTES = 5_000_000


def test_loading_a_large_run_stays_under_its_memory_bound(tmp_path):
    records = large_run()
    grid = build_log_grid(1e-4, 1e-1, 30, 1e-4, 1e-1, 30)
    store = RunStore(tmp_path / "runs")
    store.create_run("r", {"grid": asdict(grid), "scheduler": asdict(SchedulerPolicy("fifo", 50))})
    store.write_records("r", records)
    tracemalloc.start()
    try:
        loaded = store.load_run("r")[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < LOAD_PEAK_BYTES
    for key in ("row", "col", "status", "epochs_run", "train_loss", "param_norm", "val_acc", "test_acc"):
        same_bits(getattr(loaded, key), getattr(records, key).astype(getattr(loaded, key).dtype))


# The traced peak of write_records on large_run(), whose records.json is 2.2 MB, as a share of
# the file. Each line is encoded once and the CRC taken line by line: 1.17 (2.58 MB) at CPython
# 3.11, numpy 2.4. Joining the lines into one text, then encoding it once for the CRC and again
# for the write, peaked at 3.02 (6.65 MB).
WRITE_PEAK_FILE_SHARE = 1.6


def test_writing_a_large_run_stays_under_its_memory_bound(tmp_path):
    records = large_run()
    grid = build_log_grid(1e-4, 1e-1, 30, 1e-4, 1e-1, 30)
    store = RunStore(tmp_path / "runs")
    store.create_run("r", {"grid": asdict(grid), "scheduler": asdict(SchedulerPolicy("fifo", 50))})
    store.write_records("r", records.take(np.arange(2)))  # imports and compiles what the write runs
    tracemalloc.start()
    try:
        store.write_records("r", records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (store.run_dir("r") / "records.json").stat().st_size
    assert size > 2_000_000 and peak < WRITE_PEAK_FILE_SHARE * size
    same_bits(store.load_run("r")[2].train_loss, records.train_loss)
