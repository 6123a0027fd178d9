"""CH-partitioning and vertex splitting.

A CH-partition divides the vertices into disjoint nonempty cores C_i
covering V, with halo H_i = outside neighbors of C_i. The maximum clique
of the whole graph is the largest of the per-part maxima over the
subgraphs induced by C_i ∪ H_i, so each part can be solved independently.
Vertex splitting is the two-part special case pinned to one vertex v:
solve N(v) and G - v, and recombine as max(k1 + 1, k2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, induced_subgraph


@dataclass
class CHPartition:
    """Disjoint cores covering V plus their exact halos."""

    cores: list[set[int]]
    halos: list[set[int]]

    @property
    def num_parts(self) -> int:
        return len(self.cores)

    @property
    def cost(self) -> int:
        """max_i |C_i| + |H_i|: the largest subproblem this partition creates."""
        return max(len(c) + len(h) for c, h in zip(self.cores, self.halos))

    @property
    def total_part_size(self) -> int:
        return sum(len(c) + len(h) for c, h in zip(self.cores, self.halos))

    def part_vertices(self, i: int) -> set[int]:
        return self.cores[i] | self.halos[i]

    @classmethod
    def from_cores(cls, g: Graph, cores: Sequence[set[int]]) -> "CHPartition":
        """Compute halos exactly from the given cores and validate the cover."""
        n = g.num_vertices
        seen: set[int] = set()
        for core in cores:
            if not core:
                raise ValueError("cores must be nonempty")
            if core & seen:
                raise ValueError("cores must be disjoint")
            seen |= core
        if seen != set(range(n)):
            raise ValueError("cores must cover all vertices")
        halos = []
        for core in cores:
            halo: set[int] = set()
            for v in core:
                halo |= g.neighbors(v)
            halos.append(halo - core)
        return cls([set(c) for c in cores], halos)

    def validate(self, g: Graph) -> None:
        rebuilt = CHPartition.from_cores(g, self.cores)
        if rebuilt.halos != self.halos:
            raise AssertionError("halos are not the exact outside neighborhoods")


def combine_ch(sub_results: Sequence[int]) -> int:
    """Fold per-part maximum clique sizes into the whole graph's; O(s)."""
    if not sub_results:
        raise ValueError("need at least one per-part result")
    return max(sub_results)


def combine_split(k1: int, k2: int) -> int:
    """Recombine a vertex split: cliques through v are k1 + 1, others k2."""
    return max(k1 + 1, k2)


def vertex_split(g: Graph, v: int) -> tuple[Graph, Graph]:
    """(subgraph induced by N(v), graph with v removed); labels preserved."""
    if not 0 <= v < g.num_vertices:
        raise ValueError(f"vertex {v} out of range")
    g1 = induced_subgraph(g, g.neighbors(v))
    g2 = induced_subgraph(g, (u for u in range(g.num_vertices) if u != v))
    return g1, g2


def trivial_partition(g: Graph) -> CHPartition:
    """The s = 1 partition: core = V, halo empty, cost |V|."""
    return CHPartition([set(range(g.num_vertices))], [set()])


def ch_partition(g: Graph, s: int, seed: int = 0, refine: bool = True) -> CHPartition:
    """Heuristic CH-partition into ``s`` nonempty cores.

    Seeds are spread across the degree order, regions grow by
    breadth-first search claiming one vertex per region per turn, and a
    single boundary pass moves vertices whenever that strictly lowers the
    cost (skippable via ``refine`` when the caller only needs a quick
    feasibility probe). Halos are recomputed exactly from the final
    cores, so the result is valid regardless of heuristic quality.
    """
    n = g.num_vertices
    if not 1 <= s <= n:
        raise ValueError(f"number of parts {s} outside [1, {n}]")
    if s == 1:
        return trivial_partition(g)

    by_degree = sorted(range(n), key=lambda v: (g.degree(v), v))
    positions = sorted({round(i * (n - 1) / (s - 1)) for i in range(s)})
    seeds = [by_degree[p] for p in positions]
    while len(seeds) < s:  # collisions from rounding
        extra = next(v for v in by_degree if v not in seeds)
        seeds.append(extra)

    assign = [-1] * n
    # Frontier entries are [vertex, sorted neighbor list, scan position]; the
    # position only advances, so each adjacency list is walked once overall.
    frontiers = [deque([[seed_v, sorted(g.neighbors(seed_v)), 0]]) for seed_v in seeds]
    for region, seed_v in enumerate(seeds):
        assign[seed_v] = region

    unassigned = n - s
    sizes = [1] * s
    while unassigned:
        progressed = False
        for region in range(s):
            frontier = frontiers[region]
            while frontier:
                entry = frontier[0]
                v, nbrs, pos = entry
                while pos < len(nbrs) and assign[nbrs[pos]] != -1:
                    pos += 1
                entry[2] = pos
                if pos == len(nbrs):
                    frontier.popleft()
                    continue
                claimed = nbrs[pos]
                assign[claimed] = region
                sizes[region] += 1
                frontier.append([claimed, sorted(g.neighbors(claimed)), 0])
                unassigned -= 1
                progressed = True
                break
        if not progressed:
            # Disconnected leftovers: reseed the smallest region.
            smallest = min(range(s), key=lambda r: (sizes[r], r))
            v = min(u for u in range(n) if assign[u] == -1)
            assign[v] = smallest
            sizes[smallest] += 1
            frontiers[smallest].append([v, sorted(g.neighbors(v)), 0])
            unassigned -= 1

    if refine:
        _refine_boundary(g, assign, s)
    cores: list[set[int]] = [set() for _ in range(s)]
    for v, region in enumerate(assign):
        cores[region].add(v)
    return CHPartition.from_cores(g, cores)


def _refine_boundary(g: Graph, assign: list[int], s: int) -> None:
    """One pass over boundary vertices, applying strictly cost-reducing moves."""
    n = g.num_vertices
    core_size = [0] * s
    for r in assign:
        core_size[r] += 1
    # neighbor_count[v][r] = how many neighbors of v sit in core r
    neighbor_count: list[dict[int, int]] = [dict() for _ in range(n)]
    for v in range(n):
        counts = neighbor_count[v]
        for u in g.neighbors(v):
            r = assign[u]
            counts[r] = counts.get(r, 0) + 1
    halo_size = [0] * s
    for v in range(n):
        for r in neighbor_count[v]:
            if r != assign[v]:
                halo_size[r] += 1

    def cost_with(a: int, b: int, new_a: int, new_b: int) -> int:
        worst = 0
        for r in range(s):
            if r == a:
                load = new_a
            elif r == b:
                load = new_b
            else:
                load = core_size[r] + halo_size[r]
            if load > worst:
                worst = load
        return worst

    current_cost = max(core_size[r] + halo_size[r] for r in range(s))
    for v in range(n):
        a = assign[v]
        if core_size[a] <= 1:
            continue
        targets = sorted(set(neighbor_count[v]) - {a})
        if not targets:
            continue
        best_move = None
        for b in targets:
            # v joins b's core: it leaves b's halo and may enter a's halo.
            halo_a = halo_size[a] + (1 if neighbor_count[v].get(a, 0) > 0 else 0)
            halo_b = halo_size[b] - (1 if neighbor_count[v].get(b, 0) > 0 else 0)
            for u in g.neighbors(v):
                if assign[u] != a and neighbor_count[u].get(a, 0) == 1:
                    halo_a -= 1  # u's only a-neighbor was v
                if assign[u] != b and u != v and neighbor_count[u].get(b, 0) == 0:
                    halo_b += 1  # u becomes adjacent to b's core
            new_cost = cost_with(a, b, core_size[a] - 1 + halo_a, core_size[b] + 1 + halo_b)
            if new_cost < current_cost and (best_move is None or new_cost < best_move[0]):
                best_move = (new_cost, b, halo_a, halo_b)
        if best_move is None:
            continue
        new_cost, b, halo_a, halo_b = best_move
        for u in g.neighbors(v):
            cu = neighbor_count[u]
            cu[a] -= 1
            if cu[a] == 0:
                del cu[a]
            cu[b] = cu.get(b, 0) + 1
        assign[v] = b
        core_size[a] -= 1
        core_size[b] += 1
        halo_size[a] = halo_a
        halo_size[b] = halo_b
        current_cost = max(core_size[r] + halo_size[r] for r in range(s))


def auto_ch_partition(g: Graph, vertex_limit: int, seed: int = 0) -> CHPartition:
    """Search s in {1, 2, 4, 8, ...} (capped near 2|V|/vertex_limit) for the
    cheapest partition.

    A candidate whose parts together blow the graph up by more than 50%
    is discarded unless its parts already fit the solver: duplicating an
    expander s times costs far more downstream than its nominal cost
    saves. The boundary-refinement pass only runs on candidates that
    survive that probe. Ties keep the smaller s.

    ``split_solve`` neither runs this search nor takes a partition.
    """
    n = g.num_vertices
    best = trivial_partition(g)
    best_cost = best.cost
    s = 2
    max_s = min(n, max(2, (2 * n) // max(vertex_limit, 1)))
    while s <= max_s:
        probe = ch_partition(g, s, seed, refine=False)
        if probe.cost <= vertex_limit or probe.total_part_size <= 1.5 * n:
            candidate = ch_partition(g, s, seed)
            if candidate.cost < best_cost:
                best = candidate
                best_cost = candidate.cost
        s *= 2
    return best
