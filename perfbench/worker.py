"""Run one repetition of twinsearch CLI operations in a fresh process.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory that contains the ``twinsearch``
package), ``ops`` (a list of argument lists for ``twinsearch.cli.main``),
``trace`` (wrap the layers and report their times) and ``spans_out`` (where a
traced run writes its spans, or null). The last line of standard output is
one JSON object: when the process was ready, each operation's exit code and
wall time, the process's CPU time over the operations, its peak resident
memory and, when traced, the per-layer times.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import twinsearch.cli as cli

    tracer = None
    absent: list[str] = []
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        absent = tracer.install()
    ready = time.time()

    ops = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for argv in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                rc = -1
        ops.append(
            {"argv": argv, "rc": rc, "wall_s": time.perf_counter() - start, "stderr": err.getvalue()[-2000:]}
        )
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if tracer is not None:
        from tracer import layer_times

        tracer.uninstall()
        result["layers"] = layer_times(tracer.spans)
        result["counters"] = tracer.counters
        result["absent"] = absent
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                json.dump([list(sp) for sp in tracer.spans], fh, separators=(",", ":"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
