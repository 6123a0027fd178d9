"""Worklist driver decomposing maximum clique into bounded-size solves.

The pipeline: queue the input, first peeled to its k-core at the greedy
clique size when it exceeds ``vertex_limit``, then repeatedly pop the
largest queued subgraph and either solve it (when it fits
``vertex_limit``) or split it at a chosen vertex v into the remainder and
the neighborhood subgraph. Each child is reduced against the bound
held before the split, then solved if it fits and queued otherwise.

One driver object, ``_Driver``, owns the worklist, the incumbent, the
random stream and the counters, and its ``solve`` is the one path to the
subsolver: every subproblem, including a whole graph that already fits
the limit, reaches the subsolver there, so a failure always carries its
subproblem.

Both engines give the driver one item interface, and it uses nothing
else: ``size``, ``anchor``, ``members()``, the degree queries
``_choose_split_vertex`` reads, ``split_at(v)``, which returns the
neighborhood child, ``reduce(lower_bound, rng)`` and ``graph()``. The
root side, the input's core or a graph that fits whole, is a set-based
``reduction.Subproblem``; every neighborhood subgraph is a
``reduction.BitsetSubproblem``, with masks over the sorted ids of N(v)
when cut from the root, or over a copy of its parent's when cut from
another bitset item. Both engines take the same decisions, so results do
not depend on which one holds an item.

Queue items carry an *anchor*: vertices adjacent to everything in the
item (accumulated split vertices), so a clique of size k inside the item
is a clique of size k + |anchor| in the input. Reinserting an oversize
neighborhood subgraph with its anchor extended by v is the recursive form
of the vertex-split recombination max(k1 + 1, k2) and keeps every
subproblem shrinking, so the worklist drains for any vertex_limit >= 1.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

from . import solvers
from .graphs import CliqueResult, CliqueStats, Graph, clique_result
# perfbench patches peel_to_core here by name. Its tracer alone resolves graph_from_adjacency,
# auto_ch_partition and ch_partition here, which split_solve never calls (items build their
# own Graph); those imports go with the benchmark revision that drops their entries.
from .graphs import graph_from_adjacency  # noqa: F401
from .partitioning import auto_ch_partition, ch_partition  # noqa: F401
from .reduction import BitsetSubproblem, Subproblem, peel_to_core
from .solvers import SolverError, SubproblemSolveError


@dataclass(frozen=True)
class SplitConfig:
    """Decomposition settings."""

    vertex_limit: int
    seed: int = 0
    solver: str = "exact"

    def __post_init__(self):
        if self.vertex_limit < 1:
            raise ValueError("vertex_limit must be >= 1")


Item = Subproblem | BitsetSubproblem


def _choose_split_vertex(sub: Item, vertex_limit: int) -> int:
    """The maximum degree when its neighborhood fits the solver, else the
    lower median, else the minimum degree (smallest neighborhood
    subgraph), also when nothing fits. Ties break to the smallest id.
    Each tier's degree is read only when the tier above does not fit."""
    for degree in (sub.max_degree, sub.median_degree):
        d = degree()
        if d <= vertex_limit:
            return sub.smallest_id_of_degree(d)
    return sub.smallest_id_of_degree(sub.min_degree())


class _Driver:
    """The worklist, the incumbent and the one path to the subsolver.

    Queued items stay sorted ascending by vertex count, ties in insertion
    order, and the largest is popped first; no queued item is empty. The
    incumbent is always a clique of the input with len == lower_bound; only
    a strictly larger clique replaces it, so ties keep the first one found.
    """

    def __init__(self, cfg: SplitConfig, solver: solvers.SubSolver):
        self.vertex_limit = cfg.vertex_limit
        self.solver = solver
        self.rng = random.Random(cfg.seed)
        self.items: list[Item] = []
        self.incumbent: frozenset[int] = frozenset()
        self.lower_bound = 0
        self.calls = 0
        self.reductions = 0

    def queue(self, item: Item) -> None:
        self.items.insert(bisect_right(self.items, item.size, key=attrgetter("size")), item)

    def offer(self, vertices: Iterable[int]) -> None:
        candidate = frozenset(vertices)
        if len(candidate) > self.lower_bound:
            self.incumbent = candidate
            self.lower_bound = len(candidate)

    def solve(self, item: Item) -> None:
        """Hand ``item`` to the subsolver and offer its clique plus the anchor."""
        subgraph = item.graph()
        seed = self.rng.getrandbits(63)
        self.calls += 1
        try:
            result = self.solver(subgraph, seed)
        except SolverError as exc:
            raise SubproblemSolveError(
                f"subsolver failed on a {subgraph.num_vertices}-vertex subproblem: {exc}",
                subgraph=subgraph,
                anchor=item.anchor,
            ) from exc
        self.offer(set(result.vertices) | item.anchor)

    def run(self) -> None:
        while self.items:
            item = self.items.pop()
            if item.size <= self.vertex_limit:
                self.solve(item)
            else:
                self.split(item)

    def split(self, item: Item) -> None:
        if item.min_degree() == item.size - 1:
            # The subgraph is a clique: no solve needed.
            self.offer(item.anchor.union(item.members()))
            return
        v = _choose_split_vertex(item, self.vertex_limit)
        # The child is cut before the remainder is reduced; its anchor is
        # the item's extended by v.
        child = item.split_at(v)
        bound = self.lower_bound
        self.reduce_and_dispatch(item, bound)
        # An oversize neighborhood subgraph re-enters the worklist with its
        # anchor extended; recombination stays exact.
        self.reduce_and_dispatch(child, bound)

    def reduce_and_dispatch(self, item: Item, bound: int) -> None:
        """Reduce ``item`` against ``bound``, then solve it if it fits, else queue it."""
        self.reductions += 1
        item.reduce(max(bound - len(item.anchor), 0), self.rng)
        if item.size > self.vertex_limit:
            self.queue(item)
        elif item.size:
            self.solve(item)


def split_solve(
    g: Graph,
    cfg: SplitConfig,
    solver: solvers.SubSolver | None = None,
) -> CliqueResult:
    """Decompose ``g`` and return a maximum clique (for an exact subsolver).

    ``solver`` is a (subgraph, seed) -> CliqueResult callable; when omitted
    it is ``get_subsolver(cfg.solver)``, the backend with its default
    settings, so a configured backend is passed as
    ``solver=get_subsolver(name, SolverConfig(...))``. Subgraphs handed to
    it never exceed cfg.vertex_limit vertices. Solver failures, also on a
    graph that fits whole, raise ``SubproblemSolveError`` with the
    offending subproblem attached.
    """
    if solver is None:
        solver = solvers.get_subsolver(cfg.solver)
    driver = _Driver(cfg, solver)
    root = Subproblem.from_graph(g)
    if g.num_vertices > cfg.vertex_limit:
        driver.offer(solvers.greedy_clique(g))
        driver.reductions += 1
        peel_to_core(root, driver.lower_bound)
    if root.size:
        driver.queue(root)
    driver.run()
    return clique_result(g, driver.incumbent, cfg.solver, CliqueStats(driver.calls, driver.reductions))


def sweep_vertex_limit(g: Graph, limits: Sequence[int], seed: int = 0) -> list[tuple[int, int]]:
    """Run split_solve once per vertex limit with the same seed and the
    exact backend.

    Returns (limit, subproblems solved) pairs; limits must be ascending.
    """
    if list(limits) != sorted(limits):
        raise ValueError("limits must be ascending")
    table: list[tuple[int, int]] = []
    for limit in limits:
        result = split_solve(g, SplitConfig(vertex_limit=limit, seed=seed))
        table.append((limit, result.stats.subproblems_solved))
    return table
