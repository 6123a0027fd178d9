"""Clique-preserving graph shrinking: k-core extraction and edge pruning.

Both reductions are licensed by a known lower bound on the clique size:
they may destroy cliques of at most ``lower_bound`` vertices (one of that
size is already in hand) but keep every clique of size lower_bound + 1 or
more. ``k_core`` peels low-degree vertices; ``reduce_graph`` additionally
strips edges around a vertex whose endpoints share too few neighbors to
sit inside a bigger clique, then peels again.

``Subproblem`` is the one reduction engine: ``k_core``, ``reduce_graph``
and the split driver all peel and prune through it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, graph_from_adjacency


@dataclass(frozen=True)
class ReductionOutcome:
    graph: Graph
    removed_vertices: int
    removed_edges: int


class Subproblem:
    """A subgraph in the input graph's id space plus its anchor set.

    ``adj`` is the subgraph. Two indexes over it, the sorted id list
    ``ids`` and the vertices of each degree ``by_degree`` (a list of
    vertex sets indexed by degree), are each built on first use and from
    then on kept synchronized under edge and vertex removals, so each
    driver iteration (vertex choice, uniform random pick, clique check)
    costs local work instead of a full scan, while a subgraph that is
    peeled empty or solved whole never builds either. Degrees only ever
    decrease here.
    """

    __slots__ = ("adj", "anchor", "_ids", "_by_degree", "core_bound", "_min_deg")

    def __init__(self, adj: dict[int, set[int]], anchor: frozenset[int] = frozenset()):
        self.adj = adj
        self.anchor = anchor
        self._ids: list[int] | None = None
        self._by_degree: list[set[int]] | None = None
        self.core_bound = -1  # largest k this subgraph is known to be a k-core of
        self._min_deg = 0

    @classmethod
    def from_graph(cls, g: Graph) -> "Subproblem":
        """A copy of ``g``'s adjacency, in its internal ids."""
        return cls({v: set(g.neighbors(v)) for v in range(g.num_vertices)})

    @property
    def size(self) -> int:
        return len(self.adj)

    @property
    def ids(self) -> list[int]:
        """The vertex ids, ascending; built on first use."""
        if self._ids is None:
            self._ids = sorted(self.adj)
        return self._ids

    @property
    def by_degree(self) -> list[set[int]]:
        """The vertices of each degree, indexed by degree; built on first use."""
        if self._by_degree is None:
            self._by_degree = [set() for _ in range(max(map(len, self.adj.values()), default=0) + 1)]
            for v, nbrs in self.adj.items():
                self._by_degree[len(nbrs)].add(v)
        return self._by_degree

    def _degree_drop(self, v: int, new_degree: int) -> None:
        self._by_degree[new_degree + 1].discard(v)
        self._by_degree[new_degree].add(v)
        if new_degree < self._min_deg:
            self._min_deg = new_degree

    def min_degree(self) -> int:
        by_degree = self.by_degree
        d = self._min_deg
        while d < len(by_degree) and not by_degree[d]:
            d += 1
        self._min_deg = d
        return d

    def max_degree(self) -> int:
        by_degree = self.by_degree
        while len(by_degree) > 1 and not by_degree[-1]:
            by_degree.pop()
        return len(by_degree) - 1

    def median_degree(self) -> int:
        """Lower median of the degree sequence."""
        target = (len(self.adj) - 1) // 2
        seen = 0
        for d in range(self.min_degree(), self.max_degree() + 1):
            seen += len(self.by_degree[d])
            if seen > target:
                return d
        return self.max_degree()

    def smallest_id_of_degree(self, degree: int) -> int:
        return min(self.by_degree[degree])

    def random_vertex(self, rng: random.Random) -> int:
        ids = self.ids
        return ids[rng.randrange(len(ids))]

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        if self._by_degree is not None:
            self._degree_drop(u, len(self.adj[u]))
            self._degree_drop(v, len(self.adj[v]))

    def remove_vertex(self, v: int, below: int = 0) -> list[int]:
        """Delete ``v`` and its edges.

        Returns the neighbors whose degree fell below ``below`` with this
        removal (degree ``below - 1`` now), none for the default 0.
        """
        adj = self.adj
        nbrs = adj.pop(v)
        by_degree = self._by_degree
        fell = below - 1
        fallen = []
        for u in nbrs:
            su = adj[u]
            su.discard(v)
            d = len(su)
            if d == fell:
                fallen.append(u)
            if by_degree is not None:
                self._degree_drop(u, d)
        if by_degree is not None:
            by_degree[len(nbrs)].discard(v)
        if self._ids is not None:
            self._ids.pop(bisect_left(self._ids, v))
        return fallen

    def prune_low_overlap_edges(self, centres: Sequence[int], lower_bound: int) -> list[int]:
        """Drop edges (v, n), v in ``centres``, whose endpoints share fewer
        than lower_bound - 2 neighbors.

        Inside a clique of size c every edge has at least c - 2 common
        neighbors, so these edges cannot lie in any clique beating the
        bound. The scan finishes before any edge is removed (two-phase),
        so every test sees the input neighbor sets. Returns the endpoints
        of the dropped edges, possibly repeated; empty when none dropped.
        """
        threshold = lower_bound - 2
        adj = self.adj
        doomed = []
        for v in centres:
            nv = adj[v]
            doomed.append((v, [n for n in nv if len(nv & adj[n]) < threshold]))
        touched: list[int] = []
        for v, dropped in doomed:
            nv = adj[v]
            dropped = [n for n in dropped if n in nv]  # an edge found from both ends goes once
            for n in dropped:
                self.remove_edge(v, n)
            if dropped:
                touched += [v, *dropped]
        return touched

    def reduce(
        self,
        lower_bound: int,
        rng: random.Random,
        touched: Iterable[int] | None = None,
        prune_all_vertices: bool = False,
    ) -> None:
        """Core, edge prune, then re-peel the region the prune touched.

        The prune runs around one uniformly random surviving vertex, or
        around every vertex with ``prune_all_vertices`` (no random draw).
        When the subgraph is already a core at this bound and ``touched``
        names every vertex whose degree dropped since, the first peel can
        start from just those vertices instead of scanning everything.
        """
        if touched is not None and lower_bound <= self.core_bound:
            peel_to_core(self, lower_bound, candidates=touched)
        else:
            peel_to_core(self, lower_bound)
        self.core_bound = lower_bound
        if self.adj:
            centres = self.ids if prune_all_vertices else [self.random_vertex(rng)]
            affected = self.prune_low_overlap_edges(centres, lower_bound)
            if affected:
                peel_to_core(self, lower_bound, candidates=affected)

    def extract_neighborhood(self, v: int) -> dict[int, set[int]]:
        nb = self.adj[v]
        return {u: self.adj[u] & nb for u in nb}


def peel_to_core(sub: Subproblem, k: int, candidates: Iterable[int] | None = None) -> int:
    """In-place k-core peeling of ``sub``; returns the number of removed vertices.

    Without ``candidates`` the first pass walks ``sub.adj``, so the peel
    builds neither of ``sub``'s indexes; it updates the ones already
    built. When ``candidates`` is given only those vertices (and the
    cascade they trigger) are examined — correct whenever every other
    vertex already had degree >= k, which makes incremental re-peeling
    after local edits linear in the affected region.
    """
    adj = sub.adj
    if candidates is None:
        stack = [v for v, nbrs in adj.items() if len(nbrs) < k]
    else:
        stack = [v for v in candidates if v in adj and len(adj[v]) < k]
    removed = 0
    while stack:
        v = stack.pop()
        if v in adj:
            stack += sub.remove_vertex(v, k)
            removed += 1
    return removed


def k_core(g: Graph, k: int) -> Graph:
    """The maximal subgraph of ``g`` with all degrees >= k (possibly empty)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    sub = Subproblem.from_graph(g)
    if not peel_to_core(sub, k):
        return g
    return graph_from_adjacency(sub.adj, g)


def reduce_graph(
    g: Graph,
    lower_bound: int,
    seed: int = 0,
    prune_all_vertices: bool = False,
) -> ReductionOutcome:
    """Core-then-prune-then-core reduction keyed to a clique lower bound.

    Every clique of size >= lower_bound + 1 in ``g`` survives. Removed
    counts are input minus output sizes (edges lost to vertex deletion
    included).
    """
    if lower_bound < 0:
        raise ValueError("lower_bound must be non-negative")
    sub = Subproblem.from_graph(g)
    sub.reduce(lower_bound, random.Random(seed), prune_all_vertices=prune_all_vertices)
    out = graph_from_adjacency(sub.adj, g)
    return ReductionOutcome(
        graph=out,
        removed_vertices=g.num_vertices - out.num_vertices,
        removed_edges=g.num_edges - out.num_edges,
    )
