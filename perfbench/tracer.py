"""Outside-in span tracer for the twinsearch layers.

The tracer wraps public functions and methods of the ``twinsearch`` modules
from outside the package and records one span per call: name, start, end,
parent span and thread. Spans stay in memory until the caller asks for them.
Nothing in the package changes; ``uninstall`` puts every original object back.

Binding rules:

* A method is patched on its class, so every instance sees the wrapper.
* A module function is patched in every loaded ``twinsearch`` module that
  binds it by name (``selector`` holds its own ``quickshift``; the package
  ``__init__`` rebinds ``twinsearch.quickshift`` to the function). Modules are
  found through ``sys.modules``, never through package attributes.
* A target that no longer exists is reported as absent and skipped.

Span stacks are per thread. A span opened on a thread whose stack is empty
(a thread-pool worker) takes as parent the innermost open span of the thread
that installed the tracer, which is the thread that submitted the work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# (span name, module, qualified name in that module). The span name is the
# metric prefix reported for the layer.
TARGETS = (
    ("cli.main", "twinsearch.cli", "main"),
    ("search.execute_search", "twinsearch.search", "execute_search"),
    ("trainer.step_epoch", "twinsearch.trainer", "TrialRunner.step_epoch"),
    ("trainer.loss_and_grad", "twinsearch.trainer", "MLP.loss_and_grad"),
    ("trainer.accuracy", "twinsearch.trainer", "MLP.accuracy"),
    ("scheduler.decide", "twinsearch.scheduler", "Schedule.decide"),
    ("runstore.create_run", "twinsearch.runstore", "RunStore.create_run"),
    ("runstore.append_trial_line", "twinsearch.runstore", "RunStore.append_trial_line"),
    ("runstore.append_decisions", "twinsearch.runstore", "RunStore.append_decisions"),
    ("runstore.write_matrices", "twinsearch.runstore", "RunStore.write_matrices"),
    ("runstore.write_selection", "twinsearch.runstore", "RunStore.write_selection"),
    ("runstore.write_baselines", "twinsearch.runstore", "RunStore.write_baselines"),
    ("runstore.write_eval_report", "twinsearch.runstore", "RunStore.write_eval_report"),
    ("runstore.load_run", "twinsearch.runstore", "RunStore.load_run"),
    ("runstore.load_matrices", "twinsearch.runstore", "RunStore.load_matrices"),
    ("matrices.assemble", "twinsearch.matrices", "assemble"),
    ("matrices.build_metric_surfaces", "twinsearch.matrices", "build_metric_surfaces"),
    ("quickshift.quickshift", "twinsearch.quickshift", "quickshift"),
    ("quickshift.compute_density", "twinsearch.quickshift", "compute_density"),
    ("quickshift.link_parents", "twinsearch.quickshift", "link_parents"),
    ("quickshift.label_segments", "twinsearch.quickshift", "label_segments"),
    ("selector.twin_pipeline", "twinsearch.selector", "twin_pipeline"),
    ("selector.baseline_select", "twinsearch.selector", "baseline_select"),
)

PACKAGE = "twinsearch"


def _quickshift_probe(args, kwargs, result) -> dict:
    values = args[0] if args else kwargs["values"]
    return {"quickshift.cells": int(values.size), "quickshift.n_regions": int(result.n_regions)}


# Counters read from a call's arguments and result; the last call wins.
PROBES = {"quickshift.quickshift": _quickshift_probe}


class Span(NamedTuple):
    sid: int  # also the sequence number of the open event
    name: str
    start_ns: int
    end_ns: int
    end_seq: int
    parent: int | None
    thread: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._seq = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is None and stack is not self._root_stack:
                try:
                    parent = self._root_stack[-1]
                except IndexError:
                    parent = None
            sid = next(self._seq)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    Span(sid, name, start, end, next(self._seq), parent, threading.get_ident())
                )
            if probe is not None:
                self.counters.update(probe(args, kwargs, result))
            return result

        return wrapper

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; returns the names of targets that do not exist."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        absent = []
        for name, module_name, qualname in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(name)
                continue
            *owner_path, attr = qualname.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner is module:
                for mod in {id(m): m for m in (module, *_package_modules())}.values():
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        self._patch(mod, key, original, wrapper)
            else:
                self._patch(owner, attr, original, wrapper)
        return absent

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _package_modules() -> list:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, busy seconds and self seconds.

    ``s`` (busy) is the wall time during which at least one call of the name
    was open. ``self_s`` splits every instant equally among the open spans
    that have no open child on any thread, so a parent waiting on pool
    threads gets no time while they work, and the self times of all names
    add up to the wall time covered by any span.
    """
    name_of = {sp.sid: sp.name for sp in spans}
    events = []
    for sp in spans:
        events.append((sp.start_ns, sp.sid, True, sp))
        events.append((sp.end_ns, sp.end_seq, False, sp))
    events.sort(key=lambda e: (e[0], e[1]))

    calls = Counter(sp.name for sp in spans)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    open_names: Counter = Counter()
    open_children: Counter = Counter()
    open_sids: set[int] = set()
    leaves: dict[int, str] = {}
    last = None
    for t, _, is_open, sp in events:
        if last is not None and t > last:
            dt = t - last
            for name in open_names:
                busy[name] += dt
            if leaves:
                share = dt / len(leaves)
                for name in leaves.values():
                    self_time[name] += share
        last = t
        parent_open = sp.parent in open_sids
        if is_open:
            open_sids.add(sp.sid)
            open_names[sp.name] += 1
            leaves[sp.sid] = sp.name
            if parent_open:
                open_children[sp.parent] += 1
                leaves.pop(sp.parent, None)
        else:
            open_sids.discard(sp.sid)
            leaves.pop(sp.sid, None)
            open_names[sp.name] -= 1
            if not open_names[sp.name]:
                del open_names[sp.name]
            if parent_open:
                open_children[sp.parent] -= 1
                if not open_children[sp.parent]:
                    leaves[sp.parent] = name_of[sp.parent]
    return {
        name: {"calls": calls[name], "s": busy[name] / 1e9, "self_s": self_time[name] / 1e9}
        for name in calls
    }
