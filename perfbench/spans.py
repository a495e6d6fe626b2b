"""Span recording around driftrec's public callables.

A :class:`Tracer` replaces a callable at the name its caller looks it up
(a module global or a class attribute), records one span per call and puts
the original back when the ``installed`` block ends. Nothing inside
``src/`` is edited. Spans stay in memory as ``[name, start, end, parent,
run_id]`` lists; ``parent`` is the index of the enclosing span in
``Tracer.spans`` (or ``None``) and ``run_id`` numbers the traced jobs.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np

NAME, START, END, PARENT, RUN_ID = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attribute, span name)`` for the block."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, run_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run_id": run_id}) + "\n")


def tree_errors(spans: list[list]) -> list[str]:
    """Ways in which the spans fail to form one nested tree per run id."""
    errors = []
    for idx, (name, start, end, parent, run_id) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {idx} ({name}) is not closed")
            continue
        if parent is None:
            continue
        if not 0 <= parent < idx:
            errors.append(f"span {idx} ({name}) has parent {parent} that does not precede it")
            continue
        p = spans[parent]
        if p[RUN_ID] != run_id:
            errors.append(f"span {idx} ({name}) and its parent differ in run id")
        if p[END] is None or start < p[START] or end > p[END]:
            errors.append(f"span {idx} ({name}) lies outside its parent {p[NAME]}")
    return errors


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its direct children's durations.

    The spans come from one thread's call stack, so a span's children follow
    one another and never overlap.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: busy and self seconds per run id, and every call's duration."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for (name, start, end, parent, run_id), self_s in zip(spans, selfs):
        entry = out.setdefault(name, {"s": {}, "self_s": {}, "calls": {}, "durations": []})
        entry["s"][run_id] = entry["s"].get(run_id, 0.0) + (end - start)
        entry["self_s"][run_id] = entry["self_s"].get(run_id, 0.0) + self_s
        entry["calls"][run_id] = entry["calls"].get(run_id, 0) + 1
        entry["durations"].append(end - start)
    return out


def percentile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(durations) * 1000.0, q))
