"""Spans recorded by the benchmark around its own calls into the package.

Each operation gets an ``op.<kind>`` span; every call it makes into a layer
gets a ``<layer>.<function>`` span whose parent is that operation's span.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


def direct(name, fn, *args):
    """Untraced call: the function itself, nothing recorded."""
    return fn(*args)


class Tracer:
    """Collects spans as ``(span_id, parent_id, op_id, name, start_ns, end_ns)``."""

    def __init__(self):
        self.spans = []
        self._ids = 0
        self._op_span = None
        self._op_id = None

    def _new_id(self):
        self._ids += 1
        return self._ids

    def begin_op(self, op_id):
        self._op_span, self._op_id = self._new_id(), op_id

    def end_op(self, kind, start_ns, end_ns):
        self.spans.append((self._op_span, None, self._op_id, f"op.{kind}", start_ns, end_ns))

    def call(self, name, fn, *args):
        span_id = self._new_id()
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((span_id, self._op_span, self._op_id, name, start,
                               perf_counter_ns()))


def self_times(spans):
    """span_id -> duration minus the time its child spans cover (children
    of one parent run one after another, so their durations add)."""
    child = defaultdict(int)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    return {sid: end - start - child[sid] for sid, _, _, _, start, end in spans}


def busy_by_name(spans):
    """name -> (calls, self time in ns) over all spans."""
    own = self_times(spans)
    out = defaultdict(lambda: [0, 0])
    for sid, _, _, name, _, _ in spans:
        out[name][0] += 1
        out[name][1] += own[sid]
    return out


def write_jsonl(path, spans):
    own = self_times(spans)
    with open(path, "w") as fh:
        for sid, parent, op_id, name, start, end in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "op": op_id, "name": name,
                                 "start_ns": start, "end_ns": end,
                                 "self_ns": own[sid]}) + "\n")
