"""Outside-in span tracer: wraps liplab's public functions where they are used.

Nothing inside liplab changes. Each target is wrapped once and the wrapper is
installed everywhere the original object is bound: the defining module, every
liplab module that imported it by name (``partition.oscillation``,
``construct.lower_box_premeasure``) and, for methods, every attribute of the
class that aliases it (``Gauge.__call__ = eval``).

Spans live in memory until ``write_jsonl``. Each thread has its own span
stack, because ``funclib.lip_field`` fans work out to a ``ThreadPoolExecutor``;
a span opened on a pool thread with an empty stack is parented to the
innermost open span of the installing thread, which is blocked waiting on the
pool at that moment.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# The layer boundaries, per module. "Class.method" names patch the class.
TARGETS = {
    "cli": ["main"],
    "construct": [
        "exceptional_set",
        "iterate_typical",
        "build_stage",
        "choose_stage_params",
        "save_build",
        "load_build",
        "certify_membership",
        "certify_lip_bound",
    ],
    "setlib": [
        "IntervalUnion.from_pairs",
        "IntervalUnion.intersect",
        "IntervalUnion.complement_within",
        "IntervalUnion.subset_of",
        "DyadicCubeSet.from_interval_union",
        "n_delta",
        "lower_box_dim",
        "lower_box_premeasure",
        "load_cubes",
        "save_cubes",
    ],
    "funclib": [
        "oscillation",
        "scaled_osc_estimate",
        "lip_field",
        "save_function",
        "load_function",
        "make_test_function",
        "SampledFunction.resample",
    ],
    "partition": [
        "vitali_5r",
        "image_cover_report",
        "split_partition",
        "b_image_cubes",
        "graph_cross_check",
    ],
    "gauges": ["Gauge.eval"],
}

SPAN_FIELDS = ("calls", "self_s", "total_s")


def span_names() -> list[str]:
    return [f"{module}.{target}" for module, targets in TARGETS.items() for target in targets]


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, op, thread, t0, t1, ok)
        self.op = ""  # label of the operation (CLI command) now running
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self.t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._home_stack
                parent = home[-1] if home and stack is not home else 0
            sid = next(self._ids)
            stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, self.op, threading.get_ident(), t0, t1, ok))

        return traced

    @contextmanager
    def installed(self):
        """Patch every target in the imported liplab modules; restore on exit."""
        self._local.stack = self._home_stack
        modules = [m for key, m in list(sys.modules.items()) if key.startswith("liplab.")]
        undo: list[tuple[object, str, object]] = []
        for module_name, targets in TARGETS.items():
            module = sys.modules.get(f"liplab.{module_name}")
            for target in targets:
                name = f"{module_name}.{target}"
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    replacement = type(raw)(self._wrap(raw.__func__, name))
                else:
                    replacement = self._wrap(raw, name)
                # every binding of the same object: module globals or class aliases
                holders = [owner] if owner_name else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is raw:
                            undo.append((holder, key, value))
                            setattr(holder, key, replacement)
        try:
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    def calls_by_op(self) -> dict[str, Counter]:
        """Call counts per span name, for each operation (CLI command)."""
        out: dict[str, Counter] = defaultdict(Counter)
        for span in self.spans:
            out[span[3]][span[2]] += 1
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, self_s, total_s and failures per span name.

        self_s is a span's duration minus the union of its children's
        intervals (pool children overlap); total_s counts only spans with no
        ancestor of the same name, so recursion is not counted twice.
        """
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            children[s[1]].append((s[5], s[6]))
        out = {name: dict.fromkeys(SPAN_FIELDS + ("failures",), 0) for name in span_names()}
        for sid, parent, name, _op, _thread, t0, t1, ok in self.spans:
            covered, reach = 0.0, t0
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, reach), min(b, t1)
                if b > a:
                    covered += b - a
                    reach = b
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - covered
            row["failures"] += 0 if ok else 1
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                row["total_s"] += t1 - t0
        return out

    def write_jsonl(self, path: str, header: dict) -> None:
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sid, parent, name, op, thread, t0, t1, ok in self.spans:
                record = {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "op": op,
                    "thread": threads.setdefault(thread, len(threads)),
                    "start_s": round(t0 - self.t0, 9),
                    "end_s": round(t1 - self.t0, 9),
                    "ok": ok,
                }
                fh.write(json.dumps(record) + "\n")
