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

Two engines serve the driver through the same steps (``split``,
``reduce_and_dispatch``, ``solve`` and the one selector
``_choose_split_vertex``). The root side, which is the input's core or a
graph that fits whole, is a set-based ``reduction.Subproblem``. Every
neighborhood subgraph is a ``reduction.BitsetSubproblem``: one int mask
per vertex over the sorted ids of N(v) when cut from the root, and over
its parent's index space, with a copy of the parent's masks, when cut
from another bitset item. Both engines take the same decisions, so
results do not depend on which one holds an item.

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
from typing import Callable, Iterable, Sequence

from . import solvers
# perfbench patches peel_to_core and graph_from_adjacency here by name. Its tracer alone
# resolves auto_ch_partition and ch_partition here, which split_solve never calls; that
# import goes with the benchmark revision that drops both entries.
from .graphs import CliqueResult, CliqueStats, Graph, clique_result, graph_from_adjacency
from .partitioning import auto_ch_partition, ch_partition  # noqa: F401
from .reduction import BitsetSubproblem, Subproblem, peel_to_core
from .solvers import SolverConfig, SolverError, SubproblemSolveError


@dataclass(frozen=True)
class SplitConfig:
    """Decomposition settings."""

    vertex_limit: int
    seed: int = 0
    solver: str = "exact"
    solver_config: SolverConfig | None = None

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

    def __init__(self, cfg: SplitConfig, solver: Callable[[Graph, int], CliqueResult]):
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
        subgraph = item.graph() if isinstance(item, BitsetSubproblem) else graph_from_adjacency(item.adj)
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
        child, touched = item.split_at(v)
        bound = self.lower_bound
        self.reduce_and_dispatch(item, bound, touched=touched)
        # An oversize neighborhood subgraph re-enters the worklist with its
        # anchor extended; recombination stays exact.
        self.reduce_and_dispatch(child, bound)

    def reduce_and_dispatch(self, item: Item, bound: int, touched: Iterable[int] | int | None = None) -> None:
        """Reduce ``item`` against ``bound``, then solve it if it fits, else queue it.

        ``touched`` names the vertices whose degree fell since the item was
        last reduced, in the item's own form: ids, or a mask of bits.
        """
        self.reductions += 1
        item.reduce(max(bound - len(item.anchor), 0), self.rng, touched=touched)
        if item.size > self.vertex_limit:
            self.queue(item)
        elif item.size:
            self.solve(item)


def split_solve(
    g: Graph,
    cfg: SplitConfig,
    solver: Callable[[Graph, int], CliqueResult] | None = None,
) -> CliqueResult:
    """Decompose ``g`` and return a maximum clique (for an exact subsolver).

    ``solver`` is a (subgraph, seed) -> CliqueResult callable; when omitted
    it is resolved from cfg.solver. Subgraphs handed to it never exceed
    cfg.vertex_limit vertices. Solver failures, also on a graph that fits
    whole, raise ``SubproblemSolveError`` with the offending subproblem
    attached.
    """
    if solver is None:
        solver = solvers.get_subsolver(cfg.solver, cfg.solver_config)
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


def sweep_vertex_limit(
    g: Graph,
    limits: Sequence[int],
    seed: int = 0,
    solver: str = "exact",
    solver_config: SolverConfig | None = None,
) -> list[tuple[int, int]]:
    """Run split_solve once per vertex limit with the same seed.

    Returns (limit, subproblems solved) pairs; limits must be ascending.
    """
    if list(limits) != sorted(limits):
        raise ValueError("limits must be ascending")
    table: list[tuple[int, int]] = []
    for limit in limits:
        cfg = SplitConfig(vertex_limit=limit, seed=seed, solver=solver, solver_config=solver_config)
        result = split_solve(g, cfg)
        table.append((limit, result.stats.subproblems_solved))
    return table
