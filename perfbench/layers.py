"""Layer timing from outside the program.

Two sources, both read from the benchmark's side:

* :class:`EntryTimer` wraps public entry points (the frontend, the
  optimizer, the reuse pipeline, codegen, ``Session.run_program`` and
  the service client) for the length of a traced block and restores the
  originals afterwards, so untraced ops run the unmodified code.
* :class:`SpanStats` aggregates the spans the program already emits
  (``pipeline.*``, ``profile.*``, ``machine.run``, ``session.run``,
  ``http.request``) into per-name totals and self times; a span's self
  time is its duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

# (label, module, attribute) for functions; (label, module, class,
# method) for methods.  Functions imported by name into other modules
# are replaced wherever the original object is bound.
FUNCTIONS = (
    ("minic.parse", "repro.minic.parser", "parse_program"),
    ("minic.analyze", "repro.minic.sema", "analyze"),
    ("opt.optimize", "repro.opt.pipeline", "optimize"),
    ("runtime.codegen", "repro.runtime.compiler", "compile_program"),
)
METHODS = (
    ("reuse.pipeline", "repro.reuse.pipeline", "ReusePipeline", "run"),
    ("api.run_program", "repro.api", "Session", "run_program"),
    ("service.client_run", "repro.service.client", "ServiceClient", "run"),
)


class EntryTimer:
    """Wall time spent inside each wrapped entry point, outermost call
    only (a recursive or nested call of the same entry point is not
    counted twice).  Thread-safe: the service calls entry points from
    its executor threads."""

    def __init__(self) -> None:
        self.seconds: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self._lock = threading.Lock()
        self._depth = threading.local()
        self._restore: list = []

    def _record(self, label: str, elapsed: float) -> None:
        with self._lock:
            self.seconds[label] += elapsed
            self.calls[label] += 1

    def _enter(self, label: str) -> bool:
        depth = getattr(self._depth, label, 0)
        setattr(self._depth, label, depth + 1)
        return depth == 0

    def _leave(self, label: str) -> None:
        setattr(self._depth, label, getattr(self._depth, label) - 1)

    def _wrap(self, label: str, fn):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def timed_async(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._record(label, time.perf_counter() - start)

            return timed_async

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            outer = self._enter(label)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if outer:
                    self._record(label, time.perf_counter() - start)
                self._leave(label)

        return timed

    def install(self) -> None:
        if self._restore:
            return
        for label, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(label, original)
            for name, module in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        for label, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(label, original))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def ms(self, label: str) -> float:
        return 1000.0 * self.seconds.get(label, 0.0)


def flatten(nodes: list) -> list:
    """Span dicts from an assembled tree (``children`` lists) or a flat
    list, each with its direct children's total duration attached."""
    out = []
    stack = list(nodes)
    while stack:
        node = stack.pop()
        children = node.get("children", ())
        out.append(
            {
                "span_id": node.get("span_id"),
                "parent_id": node.get("parent_id"),
                "name": node["name"],
                "dur_us": node.get("dur_us", 0),
                "children_us": sum(c.get("dur_us", 0) for c in children),
                "has_children": bool(children),
                "args": node.get("args", {}),
            }
        )
        stack.extend(children)
    return out


def link_children(spans: list) -> list:
    """Flat span dicts (with ``parent_id``) → root nodes with nested
    ``children``, ready for :func:`flatten`."""
    nodes = {s["span_id"]: dict(s, children=[]) for s in spans}
    roots = []
    for span in spans:
        node = nodes[span["span_id"]]
        parent = nodes.get(span.get("parent_id"))
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


class SpanStats:
    """Per span name: count, total and self time (milliseconds)."""

    def __init__(self) -> None:
        self.count: dict = defaultdict(int)
        self.total_ms: dict = defaultdict(float)
        self.self_ms: dict = defaultdict(float)
        self.parents: set = set()

    def add_tree(self, roots: list, prefix: str = "") -> None:
        for span in flatten(roots):
            name = prefix + span["name"]
            self.count[name] += 1
            self.total_ms[name] += span["dur_us"] / 1000.0
            self.self_ms[name] += max(0, span["dur_us"] - span["children_us"]) / 1000.0
            if span["has_children"]:
                self.parents.add(name)

    def total(self, name: str) -> float:
        return self.total_ms.get(name, 0.0)

    def self_time(self, name: str) -> float:
        return self.self_ms.get(name, 0.0)

    def table(self) -> list:
        """One row per span name, largest self time first."""
        rows = []
        for name in self.count:
            total = self.total_ms[name]
            rows.append(
                {
                    "span": name,
                    "count": self.count[name],
                    "total_ms": round(total, 3),
                    "self_ms": round(self.self_ms[name], 3),
                    "unattributed_share": round(self.self_ms[name] / total, 4)
                    if name in self.parents and total > 0
                    else None,
                }
            )
        rows.sort(key=lambda row: row["self_ms"], reverse=True)
        return rows

    def gaps(self, limit: int = 3) -> list:
        """The largest unattributed intervals: self time of spans that
        have children (a leaf's self time is its own work, not a gap)."""
        return [row for row in self.table() if row["unattributed_share"] is not None][:limit]


def print_report(stats: SpanStats, by_cell: SpanStats, entries: EntryTimer) -> dict:
    """Print the traced-run span report (per span name, then the largest
    gaps by span name and by program); returns it for the record."""
    rows = stats.table()
    gaps = stats.gaps() + by_cell.gaps()
    print("span                              count     total_ms      self_ms  unattributed")
    for row in rows:
        share = row["unattributed_share"]
        print(
            f"{row['span']:32s} {row['count']:6d} {row['total_ms']:12.1f} "
            f"{row['self_ms']:12.1f}  {'' if share is None else f'{100 * share:5.1f}%'}"
        )
    for gap in gaps:
        print(
            f"largest gap: {gap['span']} leaves {gap['self_ms']:.1f} ms "
            f"({100 * gap['unattributed_share']:.1f}%) outside its child spans"
        )
    calls = {
        label: {"calls": entries.calls[label], "ms": round(entries.ms(label), 3)}
        for label in sorted(entries.calls)
    }
    for label, row in calls.items():
        print(f"entry point {label:28s} {row['calls']:6d} calls {row['ms']:12.1f} ms")
    return {"spans": rows, "gaps": gaps, "by_program": by_cell.table(), "entry_points": calls}
