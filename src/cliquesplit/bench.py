"""Seeded batch experiments, CSV emission, and the per-call time model.

A run decomposes one graph with ``split_solve`` and records the clique
size, the number of subsolver calls, the wall time of the splitting
machinery alone (subsolver time subtracted), and the modeled total
``split_time + per_call_time_model_s * calls`` — the cost on a machine
that charges a fixed fee per bounded-size solve.

Columns whose names end in ``_wall_s`` hold measured wall times and are
the only non-reproducible fields; everything else is byte-identical for
identical config and seed.
"""

from __future__ import annotations

import csv
import io
import math
import re
import statistics
import time
import typing
from dataclasses import dataclass, fields, replace

from .graphs import Graph, gnp_random, hamming_graph, parse_dimacs
from .chimera import ChimeraSpec, chimera_graph, contract_random_edges
from .solvers import backend, get_subsolver
from .splitting import SplitConfig, split_solve

GRAPH_SOURCES = ("gnp", "chimera", "cm", "hamming", "dimacs")


@dataclass(frozen=True)
class BenchConfig:
    """One experiment configuration; seeds multiply into runs."""

    experiment: str = "bench"
    graph: str = "gnp"
    n: int = 100
    p: float = 0.3
    avg_degree: float | None = None  # when set, p = avg_degree / (n - 1)
    rows: int = 12
    cols: int = 12
    shore: int = 4
    contractions: int = 152
    word_length: int = 4
    min_distance: int = 2
    path: str = ""
    solver: str = "exact"
    vertex_limit: int = 45
    seeds: tuple[int, ...] = (0,)
    repetitions: int = 1
    per_call_time_model_s: float = 0.15

    def __post_init__(self):
        if self.graph not in GRAPH_SOURCES:
            raise ValueError(f"unknown graph source {self.graph!r}")
        if self.graph == "dimacs" and not self.path:
            raise ValueError("graph = dimacs needs a path")
        backend(self.solver)  # raises ValueError for an unknown name
        if self.vertex_limit < 1:
            raise ValueError("vertex_limit must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0 <= self.per_call_time_model_s < math.inf:
            raise ValueError("per_call_time_model_s must be finite and non-negative")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be distinct")


@dataclass(frozen=True)
class RunRecord:
    experiment: str
    graph: str
    n: int
    m: int
    solver: str
    vertex_limit: int
    per_call_time_model_s: float
    seed: int | str
    repetition: int | str
    clique_size: float
    solver_calls: float
    split_time_wall_s: float
    modeled_total_wall_s: float


def build_graph(cfg: BenchConfig, seed: int) -> tuple[Graph, str]:
    """Materialize the configured graph source; returns (graph, description)."""
    if cfg.graph == "gnp":
        p = cfg.p if cfg.avg_degree is None else cfg.avg_degree / max(cfg.n - 1, 1)
        return gnp_random(cfg.n, p, seed), f"gnp(n={cfg.n},p={p:g})"
    if cfg.graph == "chimera":
        spec = ChimeraSpec(cfg.rows, cfg.cols, cfg.shore)
        return chimera_graph(spec), f"chimera({cfg.rows},{cfg.cols},{cfg.shore})"
    if cfg.graph == "cm":
        spec = ChimeraSpec(cfg.rows, cfg.cols, cfg.shore)
        contracted, _ = contract_random_edges(chimera_graph(spec), cfg.contractions, seed)
        return contracted, f"cm(m={cfg.contractions})"
    if cfg.graph == "hamming":
        return (
            hamming_graph(cfg.word_length, cfg.min_distance),
            f"hamming({cfg.word_length},{cfg.min_distance})",
        )
    with open(cfg.path, encoding="utf-8") as handle:
        return parse_dimacs(handle.read()), cfg.path


def run_experiment(cfg: BenchConfig) -> list[RunRecord]:
    """Execute repetitions x seeds runs plus one median summary row.

    Repetitions reuse the seed and its graph, built once per seed, so they
    replicate the deterministic columns and only vary the wall-time
    measurements.
    """
    records: list[RunRecord] = []
    for seed in cfg.seeds:
        g, description = build_graph(cfg, seed)
        for repetition in range(cfg.repetitions):
            subsolver = get_subsolver(cfg.solver)
            solver_seconds = 0.0

            def timed(subgraph: Graph, sub_seed: int):
                nonlocal solver_seconds
                begin = time.perf_counter()
                result = subsolver(subgraph, sub_seed)
                solver_seconds += time.perf_counter() - begin
                return result

            split_cfg = SplitConfig(vertex_limit=cfg.vertex_limit, seed=seed, solver=cfg.solver)
            begin = time.perf_counter()
            result = split_solve(g, split_cfg, solver=timed)
            total = time.perf_counter() - begin
            split_time = max(total - solver_seconds, 0.0)
            calls = result.stats.subproblems_solved
            records.append(
                RunRecord(
                    experiment=cfg.experiment,
                    graph=description,
                    n=g.num_vertices,
                    m=g.num_edges,
                    solver=cfg.solver,
                    vertex_limit=cfg.vertex_limit,
                    per_call_time_model_s=cfg.per_call_time_model_s,
                    seed=seed,
                    repetition=repetition,
                    clique_size=result.size,
                    solver_calls=calls,
                    split_time_wall_s=split_time,
                    modeled_total_wall_s=split_time + cfg.per_call_time_model_s * calls,
                )
            )
    records.append(_median_summary(records))
    return records


def _median_summary(records: list[RunRecord]) -> RunRecord:
    base = records[0]
    return replace(
        base,
        seed="median",
        repetition="",
        n=statistics.median(r.n for r in records),
        m=statistics.median(r.m for r in records),
        clique_size=statistics.median(r.clique_size for r in records),
        solver_calls=statistics.median(r.solver_calls for r in records),
        split_time_wall_s=statistics.median(r.split_time_wall_s for r in records),
        modeled_total_wall_s=statistics.median(r.modeled_total_wall_s for r in records),
    )


def emit_csv(records: list[RunRecord]) -> str:
    """Header plus one row per record, in RunRecord field order.

    Plain decimal-point formatting; columns named ``*_wall_s`` are marked
    non-deterministic by convention and everything else round-trips
    exactly.
    """
    names = [f.name for f in fields(RunRecord)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(names)
    for record in records:
        writer.writerow([getattr(record, name) for name in names])
    return out.getvalue()


_KEY_TYPES = typing.get_type_hints(BenchConfig)
_COMMENT = re.compile(r"(?:^|\s)#.*")


def _parse_value(kind: object, value: str) -> object:
    """``value`` as a field of type ``kind``; a tuple is comma-separated."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(tok) for tok in value.split(",") if tok.strip())
    if typing.get_origin(kind) is not None:
        kind = typing.get_args(kind)[0]
    return kind(value)


def parse_config(text: str) -> BenchConfig:
    """Parse the flat ``key = value`` experiment file format.

    Each key is a ``BenchConfig`` field, read as that field's type, and
    may appear once. A ``#`` that starts a line or follows whitespace
    starts a comment. A value the config refuses is blamed on the first
    key, in file order, that the default config refuses with the same
    message.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key not in _KEY_TYPES:
                raise ValueError(f"unknown key {key!r}")
            if key in lines:
                raise ValueError(f"duplicate key {key!r} (first on line {lines[key]})")
            values[key] = _parse_value(_KEY_TYPES[key], value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        lines[key] = lineno
    try:
        return BenchConfig(**values)  # type: ignore[arg-type]
    except ValueError as exc:
        for key in sorted(lines, key=lines.__getitem__):
            try:
                replace(BenchConfig(), **{key: values[key]})
            except ValueError as alone:
                if str(alone) == str(exc):
                    raise ValueError(f"line {lines[key]}: {exc}") from None
        raise
