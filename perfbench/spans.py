"""In-memory spans around citerank's public layer functions.

A span is (name, start, end, parent). Spans are kept in flat arrays while
the traced run goes on and summarised once it ends. Self time is a span's
duration minus its children's; since one thread nests its spans, children
never overlap and their durations simply add. Garbage-collector pauses come
from ``gc.callbacks`` and are charged to every span they fall inside.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from inspect import isfunction, isgeneratorfunction

LAYERS = ("ingest", "linking", "aggregate", "metrics", "rank", "cli")

# Called once per line or per tally from inside another wrapped function, so
# their time is already in that caller's span; a span per call would cost
# more than the call. Their costs are probed separately (metrics.score_s).
PER_RECORD = frozenset(
    {
        "parse_statement",
        "parse_reference",
        "parse_publication",
        "parse_affiliation",
        "usi",
        "si",
        "round_display",
        "shard_of",
        "max_year",
    }
)

STREAM_ROLE = {
    "parse_statement": "statements",
    "parse_reference": "references",
    "parse_publication": "pubs",
    "parse_affiliation": "affiliations",
}


@dataclass
class SpanStat:
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0
    gc: float = 0.0
    self_gc: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.gc_start = array("d")
        self.gc_end = array("d")
        self._gc_began = 0.0
        # counts and sizes the wrappers observe on the way
        self.notes: dict[str, object] = {}

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span_id = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span_id)
        self.start.append(self.clock())
        return span_id

    def close(self, span_id: int) -> None:
        self.end[span_id] = self.clock()
        self._stack.pop()

    def add(self, key: str, amount) -> None:
        self.notes[key] = self.notes.get(key, 0) + amount

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_began = self.clock()
        else:
            self.gc_start.append(self._gc_began)
            self.gc_end.append(self.clock())

    def __enter__(self) -> "Tracer":
        gc.callbacks.append(self.on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self.on_gc)

    def _gc_inside(self, start: float, end: float) -> float:
        i = bisect_right(self.gc_end, start)
        total = 0.0
        while i < len(self.gc_start) and self.gc_start[i] < end:
            total += min(end, self.gc_end[i]) - max(start, self.gc_start[i])
            i += 1
        return total

    def summary(self) -> dict[str, SpanStat]:
        """Per span name: calls, total, self time, GC inside, GC in self time."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        gc_time = [self._gc_inside(self.start[i], self.end[i]) for i in range(n)] if self.gc_start else [0.0] * n
        child_time = [0.0] * n
        child_gc = [0.0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child_time[parent] += duration[i]
                child_gc[parent] += gc_time[i]
        stats: dict[str, SpanStat] = {}
        for i in range(n):
            stat = stats.setdefault(self.names[self.name[i]], SpanStat())
            stat.count += 1
            stat.total += duration[i]
            stat.self_time += duration[i] - child_time[i]
            stat.gc += gc_time[i]
            stat.self_gc += gc_time[i] - child_gc[i]
        return stats


def _wrap(tracer: Tracer, layer: str, fn):
    """A span per call; a few functions also note what they return."""
    name = f"{layer}.{fn.__name__}"
    open_span, close_span, add = tracer.open, tracer.close, tracer.add

    if fn.__name__ == "stream":
        # materialise inside the span, so parsing time is not smeared over
        # whoever consumes the generator
        def traced_stream(path, parser, mode="strict", report=None):
            skipped_before = report.skipped if report is not None else 0
            span = open_span(f"{name}[{STREAM_ROLE.get(parser.__name__, parser.__name__)}]")
            try:
                records = list(fn(path, parser, mode, report))
            finally:
                close_span(span)
            skipped = (report.skipped if report is not None else 0) - skipped_before
            add("ingest.lines", len(records) + skipped)
            add("ingest.skipped", skipped)
            return iter(records)

        return traced_stream

    if fn.__name__ == "resolve":

        def traced_resolve(*args, **kwargs):
            span = open_span(name)
            try:
                keys = fn(*args, **kwargs)
            finally:
                close_span(span)
            add("linking.keys", len(keys))
            return keys

        return traced_resolve

    if fn.__name__ in ("export_rows", "export_breakdown"):

        def traced_export(rows, fmt):
            span = open_span(f"{name}[{fmt}]")
            try:
                return fn(rows, fmt)
            finally:
                close_span(span)

        return traced_export

    observe = OBSERVERS.get(fn.__name__)

    def traced(*args, **kwargs):
        span = open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(span)
        if observe is not None:
            observe(tracer, result)
        return result

    return traced


def _observe_tables(tracer: Tracer, tables) -> None:
    pubs = tables.pub_to_journal.keys() | tables.pub_to_field.keys() | tables.pub_to_institutions.keys()
    tracer.add("linking.pubs", len(pubs))


def _observe_store(tracer: Tracer, store) -> None:
    diag = store.diagnostics
    tracer.add("aggregate.entities", len(store.tallies))
    tracer.add("aggregate.seen", diag.statements_seen + diag.events_seen)
    tracer.add("aggregate.counted", diag.statements_counted + diag.events_counted)
    tracer.add("aggregate.events_seen", diag.events_seen)
    tracer.add("aggregate.duplicate", diag.events_duplicate)
    tracer.add("aggregate.distinct_pairs", diag.events_counted)


def _observe_flagged(tracer: Tracer, flagged: int) -> None:
    tracer.notes["aggregate.entities_flagged"] = max(flagged, tracer.notes.get("aggregate.entities_flagged", 0))


def _observe_ranking(tracer: Tracer, result) -> None:
    rows, report = result
    tracer.add("rank.rows", len(rows))
    tracer.add("rank.excluded", report.total)


# Reduce a result to counts at once, so the traced run keeps nothing alive
# that the untraced commands would have freed.
OBSERVERS = {
    "build_link_tables": _observe_tables,
    "build_store": _observe_store,
    "dump_store": lambda tracer, text: tracer.add("aggregate.store_bytes", len(text.encode("utf-8"))),
    "count_statement_excess": _observe_flagged,
    "rank_entities": _observe_ranking,
}


def patch_layers(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Replace each public layer function, wherever citerank has bound it.

    Returns what was replaced so ``unpatch`` can put it back.
    """
    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"citerank.{layer}"]
        for public in module.__all__:
            fn = getattr(module, public)
            # a span around a generator function would time only its creation
            if not isfunction(fn) or public in PER_RECORD:
                continue
            if isgeneratorfunction(fn) and public != "stream":
                continue
            wrappers[id(fn)] = _wrap(tracer, layer, fn)
    replaced = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "citerank" or module_name.startswith("citerank.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                replaced.append((module, attr, value))
                setattr(module, attr, wrapper)
    return replaced


def unpatch(replaced: list[tuple[object, str, object]]) -> None:
    for module, attr, original in replaced:
        setattr(module, attr, original)
