"""Worklist driver decomposing maximum clique into bounded-size solves.

The pipeline: extract the k-core at the incumbent clique size, CH-partition
it, then repeatedly pop the largest queued subgraph and either hand it to
the subsolver (when it fits ``vertex_limit``) or split it at a chosen
vertex v into the neighborhood subgraph and the remainder, reducing both
against the current bound.

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
# perfbench patches peel_to_core, auto_ch_partition, ch_partition, graph_from_adjacency here by name.
from .graphs import CliqueResult, CliqueStats, Graph, clique_result, graph_from_adjacency
from .partitioning import auto_ch_partition, ch_partition
from .reduction import Subproblem, peel_to_core
from .solvers import SolverConfig, SolverError, SubproblemSolveError


@dataclass(frozen=True)
class SplitConfig:
    """Decomposition settings.

    ``parts`` fixes the CH-partition part count; None searches powers of
    two automatically.
    """

    vertex_limit: int
    seed: int = 0
    parts: int | None = None
    solver: str = "exact"
    solver_config: SolverConfig | None = None

    def __post_init__(self):
        if self.vertex_limit < 1:
            raise ValueError("vertex_limit must be >= 1")
        if self.parts is not None and self.parts < 1:
            raise ValueError("parts must be >= 1 when given")


class SubproblemQueue:
    """Size-ordered worklist plus incumbent bookkeeping.

    Items stay sorted ascending by vertex count; the incumbent is always
    a valid clique of the input graph with len == lower_bound, and
    lower_bound never decreases.
    """

    def __init__(self, incumbent: Iterable[int]):
        self.items: list[Subproblem] = []
        self.incumbent: frozenset[int] = frozenset(incumbent)
        self.lower_bound: int = len(self.incumbent)

    def sorted_insert(self, item: Subproblem) -> None:
        self.items.insert(bisect_right(self.items, item.size, key=attrgetter("size")), item)

    def pop_largest(self) -> Subproblem:
        return self.items.pop()

    def update_incumbent(self, vertices: Iterable[int]) -> bool:
        """Adopt a strictly larger clique; ties keep the first one found."""
        candidate = frozenset(vertices)
        if len(candidate) > self.lower_bound:
            self.incumbent = candidate
            self.lower_bound = len(candidate)
            return True
        return False

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)


def _choose_split_vertex(sub: Subproblem, vertex_limit: int) -> int:
    """The maximum degree when its neighborhood fits the solver, else the
    lower median, else the minimum degree (smallest neighborhood
    subgraph), also when nothing fits. Ties break to the smallest id."""
    degrees = (sub.max_degree(), sub.median_degree(), sub.min_degree())
    for d in degrees:
        if d <= vertex_limit:
            return sub.smallest_id_of_degree(d)
    return sub.smallest_id_of_degree(degrees[-1])


@dataclass
class _DriverState:
    queue: SubproblemQueue
    solver: Callable[[Graph, int], CliqueResult]
    rng: random.Random
    calls: int = 0
    reductions: int = 0

    def solve_item(self, item: Subproblem) -> None:
        subgraph = graph_from_adjacency(item.adj)
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
        self.queue.update_incumbent(set(result.vertices) | item.anchor)


def split_solve(
    g: Graph,
    cfg: SplitConfig,
    solver: Callable[[Graph, int], CliqueResult] | None = None,
) -> CliqueResult:
    """Decompose ``g`` and return a maximum clique (for an exact subsolver).

    ``solver`` is a (subgraph, seed) -> CliqueResult callable; when omitted
    it is resolved from cfg.solver. Subgraphs handed to it never exceed
    cfg.vertex_limit vertices. Solver failures propagate with the
    offending subproblem attached.
    """
    if solver is None:
        solver = solvers.get_subsolver(cfg.solver, cfg.solver_config)
    n = g.num_vertices
    if n == 0:
        return CliqueResult(frozenset(), 0, cfg.solver)
    rng = random.Random(cfg.seed)

    if n <= cfg.vertex_limit:
        # Like every subproblem, the solver sees internal ids; its answer is verified.
        unlabelled = Graph._from_adj([g.neighbors(v) for v in g.vertices()])
        result = solver(unlabelled, rng.getrandbits(63))
        return clique_result(g, result.vertices, cfg.solver, CliqueStats(1, 0))

    queue = SubproblemQueue(solvers.greedy_clique(g))
    state = _DriverState(queue=queue, solver=solver, rng=rng)
    root = Subproblem.from_graph(g)
    state.reductions += 1
    peel_to_core(root, queue.lower_bound)
    if root.size:
        _enqueue_partitions(root, cfg, queue)
    while queue:
        item = queue.pop_largest()
        if item.size == 0:
            continue
        if item.size <= cfg.vertex_limit:
            state.solve_item(item)
            continue
        _split_item(item, cfg, state)

    internal = sorted(queue.incumbent)
    return clique_result(
        g, internal, cfg.solver, CliqueStats(subproblems_solved=state.calls, reductions=state.reductions)
    )


def _enqueue_partitions(root: Subproblem, cfg: SplitConfig, queue: SubproblemQueue) -> None:
    """CH-partition the reduced graph and queue each part; one part is ``root`` itself."""
    if cfg.parts == 1 or root.size == 1:
        queue.sorted_insert(root)
        return
    adj = root.adj
    compact = graph_from_adjacency(adj)
    if cfg.parts is None:
        partition = auto_ch_partition(compact, cfg.vertex_limit, cfg.seed)
    else:
        partition = ch_partition(compact, min(cfg.parts, compact.num_vertices), cfg.seed)
    if partition.num_parts == 1:
        queue.sorted_insert(root)
        return
    for i in range(partition.num_parts):
        part = {compact.label(v) for v in partition.part_vertices(i)}
        part_adj = {v: adj[v] & part for v in part}
        queue.sorted_insert(Subproblem(part_adj))


def _split_item(item: Subproblem, cfg: SplitConfig, state: _DriverState) -> None:
    if item.min_degree() == item.size - 1:
        # The subgraph is a clique: no solve needed.
        state.queue.update_incumbent(set(item.adj) | item.anchor)
        return

    v = _choose_split_vertex(item, cfg.vertex_limit)
    ssg_adj = item.extract_neighborhood(v)
    item.remove_vertex(v)

    bound = state.queue.lower_bound
    state.reductions += 1
    item.reduce(max(bound - len(item.anchor), 0), state.rng, touched=list(ssg_adj))
    if item.size:
        if item.size <= cfg.vertex_limit:
            state.solve_item(item)
        else:
            state.queue.sorted_insert(item)

    anchor = item.anchor | {v}
    ssg = Subproblem(ssg_adj, anchor)
    state.reductions += 1
    ssg.reduce(max(bound - len(anchor), 0), state.rng)
    if ssg.size:
        if ssg.size <= cfg.vertex_limit:
            state.solve_item(ssg)
        else:
            # Oversize neighborhood subgraphs re-enter the worklist with
            # their anchor extended; recombination stays exact.
            state.queue.sorted_insert(ssg)


def sweep_vertex_limit(
    g: Graph,
    limits: Sequence[int],
    seed: int = 0,
    solver: str = "exact",
    solver_config: SolverConfig | None = None,
    parts: int | None = None,
) -> list[tuple[int, int]]:
    """Run split_solve once per vertex limit with the same seed.

    Returns (limit, subproblems solved) pairs; limits must be ascending.
    """
    if list(limits) != sorted(limits):
        raise ValueError("limits must be ascending")
    table: list[tuple[int, int]] = []
    for limit in limits:
        cfg = SplitConfig(
            vertex_limit=limit, seed=seed, parts=parts, solver=solver, solver_config=solver_config
        )
        result = split_solve(g, cfg)
        table.append((limit, result.stats.subproblems_solved))
    return table
