"""In-memory span tracing around the program's module boundaries.

The tracer wraps, from outside the program, the module attributes that
``split_solve`` and the subsolver backends look up at call time, so a
traced pass runs the unmodified program. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module name, attribute, span name, note). A note turns (args, result)
# into the number or pair the span records.
PATCHES = (
    ("splitting", "peel_to_core", "reduction.peel_to_core", lambda args, r: r),
    ("splitting", "auto_ch_partition", "partitioning.auto_ch_partition", lambda args, r: (r.num_parts, r.cost)),
    ("splitting", "ch_partition", "partitioning.ch_partition", lambda args, r: (r.num_parts, r.cost)),
    ("splitting", "graph_from_adjacency", "graphs.graph_from_adjacency", None),
    ("solvers", "greedy_clique", "solvers.greedy_clique", None),
    ("solvers", "mock_sampler", "solvers.mock_sampler", lambda args, r: args[1]),
    ("solvers", "sa_qubo", "solvers.sa_qubo", None),
    ("solvers", "local_search_descent", "solvers.local_search_descent", None),
    ("solvers", "mc_to_qubo", "qubo.mc_to_qubo", None),
    ("solvers", "evaluate", "qubo.evaluate", None),
)

# Span fields, in the order each span list holds them.
FIELDS = ("name", "start", "end", "parent", "pass", "instance", "note")


class Tracer:
    """Collects spans as [name, start, end, parent, pass, instance, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.pass_id = 0
        self.instance = -1

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, self.pass_id, self.instance, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        record = self._begin(name)
        try:
            yield record
        finally:
            self._end(record)

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            record = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(record)
            if note is not None:
                record[6] = note(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, modules: dict):
        """Route the program's looked-up functions through spans, then restore them."""
        originals = []
        try:
            for module_name, attr, name, note in PATCHES:
                module = modules[module_name]
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, note))
            yield
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans: list[list], own: list[float]) -> tuple[dict[str, dict[str, float]], dict[str, list]]:
    """Per span name: count, total (inclusive) and self seconds; and the notes.

    ``own`` holds each span's self time, from ``self_times`` over the
    whole trace.
    """
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    notes: dict[str, list] = defaultdict(list)
    for s, self_s in zip(spans, own):
        row = table[s[0]]
        row["count"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += self_s
        if s[6] is not None:
            notes[s[0]].append(s[6])
    return dict(table), notes


def layer_metrics(spans: list[list], own: list[float]) -> dict[str, float]:
    """Per-layer figures of one pass, from its spans and their self times."""
    table, notes = summarize(spans, own)

    def field_of(key):
        return defaultdict(int, {name: row[key] for name, row in table.items()})

    count, total, self_s = field_of("count"), field_of("total_s"), field_of("self_s")
    partitions = notes["partitioning.auto_ch_partition"] + notes["partitioning.ch_partition"]
    sizes = notes["solvers.subsolver"]
    return {
        "graphs.parse_s": total["graphs.parse_dimacs"],
        "graphs.from_adjacency_calls": count["graphs.graph_from_adjacency"],
        "graphs.from_adjacency_s": total["graphs.graph_from_adjacency"],
        "reduction.core_s": total["reduction.peel_to_core"],
        "reduction.core_removed": sum(notes["reduction.peel_to_core"]),
        "partitioning.partition_s": total["partitioning.auto_ch_partition"] + total["partitioning.ch_partition"],
        "partitioning.parts": sum(p for p, _ in partitions),
        "partitioning.cost": sum(c for _, c in partitions),
        "splitting.reductions": sum(notes["splitting.split_solve"]),
        "splitting.self_s": self_s["splitting.split_solve"],
        "solvers.greedy_s": total["solvers.greedy_clique"],
        "solvers.calls": count["solvers.subsolver"],
        "solvers.busy_s": total["solvers.subsolver"],
        "solvers.subproblem_vertices_mean": statistics.fmean(sizes) if sizes else 0.0,
        "solvers.sampler_reads": sum(notes["solvers.mock_sampler"]),
        "solvers.sampler_s": total["solvers.mock_sampler"],
        "solvers.descent_calls": count["solvers.local_search_descent"],
        "solvers.descent_s": total["solvers.local_search_descent"],
        "qubo.build_s": total["qubo.mc_to_qubo"],
        "qubo.evaluate_calls": count["qubo.evaluate"],
        "qubo.evaluate_s": total["qubo.evaluate"],
    }


def setup_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one set-up pass."""
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s[0]] += s[2] - s[1]
    return {"graphs.generate_s": total["graphs.generate"], "chimera.contract_s": total["chimera.contract"]}
