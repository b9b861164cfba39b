"""Frozen reference for reading a JSON-lines file: the per-line ``json.loads``
reader the run store once read its trial files and decision log with,
written out once and not changed since.

No command reads either file any more. The tests read the decision log the
search writes with this reader, warnings as errors, so that a log which the
old reader would not have read whole fails them.
"""

from __future__ import annotations

import json
import warnings

from twinsearch.runstore import RunStoreError

__all__ = ["reference_read_jsonl"]


def reference_read_jsonl(path: str) -> list:
    with open(path, "rb") as fh:
        raw = fh.read()
    out = []
    chunks = raw.split(b"\n")
    torn_tail = chunks[-1] != b""
    lines = [c for c in chunks if c != b""]
    for i, chunk in enumerate(lines, start=1):
        try:
            out.append(json.loads(chunk.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            if i == len(lines):
                warnings.warn(f"{path}: dropping torn final line {i}: {exc}")
                return out
            raise RunStoreError(f"{path}: corrupt line {i}: {exc}") from exc
    if torn_tail and lines:
        warnings.warn(f"{path}: dropping unterminated final line {len(lines)}")
        return out[:-1]
    return out
