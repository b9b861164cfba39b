"""Tests for the benchmark's own code: span arithmetic, patching and the output check."""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from tracer import TARGETS, Span, Tracer, layer_times  # noqa: E402

TINY_RUN = [
    "run", "--run-id", bench.RUN_ID,
    "--n-lr", "3", "--n-wd", "3", "--epochs", "4",
    "--hidden", "8", "--n-train", "40", "--n-val", "8", "--n-test", "50",
    "--input-dim", "4", "--n-classes", "2", "--jobs", "2",
]


def span(sid, name, start, end, parent=None, thread=1):
    return Span(sid, name, start, end, 1000 + sid, parent, thread)


class TestLayerTimes:
    def test_nested_single_thread(self):
        spans = [
            span(0, "root", 0, 100),
            span(1, "a", 10, 40, parent=0),
            span(2, "leaf", 20, 30, parent=1),
            span(3, "b", 50, 90, parent=0),
        ]
        t = layer_times(spans)
        assert t["root"]["self_s"] * 1e9 == pytest.approx(30)
        assert t["a"]["self_s"] * 1e9 == pytest.approx(20)
        assert t["leaf"]["self_s"] * 1e9 == pytest.approx(10)
        assert t["b"]["self_s"] * 1e9 == pytest.approx(40)
        assert t["a"]["s"] * 1e9 == pytest.approx(30)
        assert sum(v["self_s"] for v in t.values()) * 1e9 == pytest.approx(100)

    def test_parallel_children_split_wall_time(self):
        # two pool threads work under a parent that waits on the main thread
        spans = [
            span(0, "parent", 0, 100, thread=1),
            span(1, "step", 10, 60, parent=0, thread=2),
            span(2, "step", 20, 80, parent=0, thread=3),
            span(3, "grad", 30, 40, parent=2, thread=3),
        ]
        t = layer_times(spans)
        assert t["parent"]["self_s"] * 1e9 == pytest.approx(30)
        # [10,30) only steps open; [30,40) a step and grad share; [40,80) only steps
        assert t["step"]["self_s"] * 1e9 == pytest.approx(20 + 5 + 40)
        assert t["grad"]["self_s"] * 1e9 == pytest.approx(5)
        assert t["step"]["s"] * 1e9 == pytest.approx(70)
        assert t["step"]["calls"] == 2
        assert sum(v["self_s"] for v in t.values()) * 1e9 == pytest.approx(100)

    def test_sibling_ending_when_next_starts(self):
        spans = [span(0, "root", 0, 20), span(1, "x", 0, 10, parent=0), span(2, "x", 10, 20, parent=0)]
        t = layer_times(spans)
        assert t["root"]["self_s"] == 0
        assert t["x"]["self_s"] * 1e9 == pytest.approx(20)


def _bindings():
    """Every object the tracer may replace, by (owner, attribute)."""
    found = {}
    for _, module_name, qualname in TARGETS:
        module = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        found[(id(owner), attr)] = (owner, attr, original)
        if owner is module:
            for name, mod in list(sys.modules.items()):
                if name == "twinsearch" or name.startswith("twinsearch."):
                    for key, value in vars(mod).items():
                        if value is original:
                            found[(id(mod), key)] = (mod, key, original)
    return found


class TestTracer:
    def test_uninstall_restores_every_original(self):
        import twinsearch.cli  # noqa: F401  loads every layer module

        before = _bindings()
        tracer = Tracer()
        assert tracer.install() == []
        for module_name in ("twinsearch", "twinsearch.selector", "twinsearch.quickshift"):
            assert (id(sys.modules[module_name]), "quickshift") in before
        assert all(getattr(owner, attr) is not original for owner, attr, original in before.values())
        tracer.uninstall()
        assert all(vars(owner)[attr] is original for owner, attr, original in before.values())

    def test_absent_targets_are_reported_not_fatal(self):
        tracer = Tracer()
        absent = tracer.install(
            [
                ("gone.fn", "twinsearch.quickshift", "no_such_function"),
                ("gone.method", "twinsearch.trainer", "MLP.no_such_method"),
                ("gone.module", "twinsearch.no_such_module", "f"),
            ]
        )
        tracer.uninstall()
        assert absent == ["gone.fn", "gone.method", "gone.module"]

    def test_pool_spans_hang_under_the_submitting_span(self, tmp_path):
        import twinsearch.cli as cli

        tracer = Tracer()
        tracer.install()
        try:
            assert cli.main(["--store-root", str(tmp_path), *TINY_RUN]) == 0
        finally:
            tracer.uninstall()
        by_id = {sp.sid: sp for sp in tracer.spans}
        search = [sp for sp in tracer.spans if sp.name == "search.execute_search"]
        steps = [sp for sp in tracer.spans if sp.name == "trainer.step_epoch"]
        assert len(search) == 1 and len(steps) == 9 * 4
        assert all(sp.parent == search[0].sid for sp in steps)
        assert {by_id[sp.parent].name for sp in tracer.spans if sp.name == "trainer.loss_and_grad"} == {
            "trainer.step_epoch"
        }
        assert tracer.counters["quickshift.cells"] == 9
        t = layer_times(tracer.spans)
        (main_span,) = [sp for sp in tracer.spans if sp.name == "cli.main"]
        total = sum(v["self_s"] for v in t.values())
        assert total == pytest.approx((main_span.end_ns - main_span.start_ns) / 1e9)


class TestOutputCheck:
    def test_one_byte_change_to_selection_is_caught(self, tmp_path):
        from twinsearch.cli import main

        assert main(["--store-root", str(tmp_path), *TINY_RUN]) == 0
        run_dir = tmp_path / bench.RUN_ID
        ref = bench.Reference()
        assert ref.mismatches(*bench.inspect_run(run_dir)) == []
        assert ref.mismatches(*bench.inspect_run(run_dir)) == []

        path = run_dir / "selection.json"
        data = bytearray(path.read_bytes())
        data[data.index(b'"layout"') + 1] ^= 0x20  # "layout" -> "Layout": still valid JSON
        path.write_bytes(bytes(data))
        assert ref.mismatches(*bench.inspect_run(run_dir)) == ["selection.json"]

    def test_unparsable_artifact_fails_the_check(self, tmp_path):
        from twinsearch.cli import main

        assert main(["--store-root", str(tmp_path), *TINY_RUN]) == 0
        path = tmp_path / bench.RUN_ID / "matrices.json"
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(bench.CheckFailed):
            bench.inspect_run(tmp_path / bench.RUN_ID)

    def test_worker_repetition_reports_checked_counts(self, tmp_path):
        deadline = time.monotonic() + 120
        rep = bench.run_rep([TINY_RUN[:]], tmp_path, True, deadline)
        assert rep.failed == 0, rep.problems
        assert rep.counts["scheduler.epoch_share"] == 1.0
        assert rep.counts["runstore.bytes_written"] > 0
        assert rep.traced["layers"]["trainer.step_epoch"]["calls"] == 36
        assert set(rep.digests) == {"selection.json", "matrices.json"}

        declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        assert sorted(bench.per_layer(rep, [rep], rep.wall_s)) == sorted(m["name"] for m in declared["per_layer"])
        assert sorted(bench.END_TO_END_UNITS) == sorted(m["name"] for m in declared["end_to_end"])
