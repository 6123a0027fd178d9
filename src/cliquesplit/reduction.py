"""Clique-preserving graph shrinking: k-core extraction and edge pruning.

Both reductions are licensed by a known lower bound on the clique size:
they may destroy cliques of at most ``lower_bound`` vertices (one of that
size is already in hand) but keep every clique of size lower_bound + 1 or
more. ``k_core`` peels low-degree vertices; ``reduce_graph`` peels the
vertices of degree below ``lower_bound``, strips the edges around one
random surviving vertex whose endpoints share fewer than
``lower_bound - 1`` neighbors, then peels again. Every vertex of a
c-clique has degree c - 1 or more and every edge of it c - 2 common
neighbors, so a clique of lower_bound + 1 vertices survives both steps.

``Subproblem`` is the reduction engine over adjacency sets. It holds only
root-side items: ``k_core``, ``reduce_graph`` and the split driver's
input, peeled to its core or fitting whole, peel and prune through it.
Its degree index has one writer, and its degree queries are scans of
that index. ``BitsetSubproblem`` runs the same reduce pass over one
adjacency bitmask per vertex; every neighborhood subproblem the split
driver cuts is one, and they reach the same subgraphs and draw the same
random numbers as the set engine would. Both engines prune through
``prune_low_overlap_edges(centre, lower_bound)``, around one centre.
The bitset format lives here alone: ``bit_positions`` lists a mask's
bits, and ``BitsetSubproblem.graph`` renumbers a bitset item into the
compact ``Graph`` its subsolver reads.

Both engines keep each subgraph a ``core_bound``-core: ``reduce`` ends on
a peel at its bound, and ``split_at`` re-peels the split vertex's
neighbors, so ``reduce`` scans every vertex only when its bound exceeds
``core_bound``. The split driver's bound for an item, the incumbent's
size minus the anchor's, never falls; k-cores are unique and nest, so
the order of the peels does not change the vertex set they reach.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, graph_from_adjacency

# _BYTE_ROWS[k][b] lists, ascending, the set bits of the byte value b
# placed at byte offset k, so b << 8k. Rows are added when a wider mask
# is first listed: the table is only as wide as the widest mask so far.
_BYTE_ROWS: list[tuple[tuple[int, ...], ...]] = []


def bit_positions(mask: int) -> list[int]:
    """The positions of the set bits of a non-negative ``mask``, ascending."""
    width = (mask.bit_length() + 7) >> 3
    while len(_BYTE_ROWS) < width:
        offsets = tuple(range(8 * len(_BYTE_ROWS), 8 * len(_BYTE_ROWS) + 8))  # shared by the row's tuples
        _BYTE_ROWS.append(tuple(tuple(p for j, p in enumerate(offsets) if b >> j & 1) for b in range(256)))
    positions: list[int] = []
    for row, byte in zip(_BYTE_ROWS, mask.to_bytes(width, "little")):
        if byte:
            positions += row[byte]
    return positions


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
    then on kept synchronized under vertex and edge removals, while a
    subgraph that is peeled empty or solved whole never builds either.
    ``ids`` is what the reduce pass draws its random prune centre from.
    ``_refile`` is the only writer of ``by_degree`` after the build, and
    the degree queries only read it: each is one scan over the degrees.
    Degrees only ever decrease here.
    """

    __slots__ = ("adj", "anchor", "_ids", "_by_degree", "core_bound")

    def __init__(self, adj: dict[int, set[int]], anchor: frozenset[int] = frozenset()):
        self.adj = adj
        self.anchor = anchor
        self._ids: list[int] | None = None
        self._by_degree: list[set[int]] | None = None
        self.core_bound = -1  # largest k this subgraph is known to be a k-core of

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

    def _refile(self, v: int, old: int, new: int | None) -> None:
        """Move ``v`` from degree ``old`` to degree ``new`` in the built
        index; ``None`` drops it from the index."""
        self._by_degree[old].remove(v)
        if new is not None:
            self._by_degree[new].add(v)

    def min_degree(self) -> int:
        return next((d for d, vs in enumerate(self.by_degree) if vs), 0)

    def max_degree(self) -> int:
        by_degree = self.by_degree
        return next((d for d in range(len(by_degree) - 1, 0, -1) if by_degree[d]), 0)

    def median_degree(self) -> int:
        """Lower median of the degree sequence."""
        rank = (len(self.adj) - 1) // 2
        for d, vs in enumerate(self.by_degree):
            rank -= len(vs)
            if rank < 0:
                return d
        return 0

    def smallest_id_of_degree(self, degree: int) -> int:
        return min(self.by_degree[degree])

    def remove_vertex(self, v: int, below: int = 0) -> list[int]:
        """Delete ``v`` and its edges.

        Returns the neighbors whose degree fell below ``below`` with this
        removal (degree ``below - 1`` now), none for the default 0.
        """
        adj = self.adj
        nbrs = adj.pop(v)
        indexed = self._by_degree is not None
        fell = below - 1
        fallen = []
        for u in nbrs:
            su = adj[u]
            su.discard(v)
            d = len(su)
            if d == fell:
                fallen.append(u)
            if indexed:
                self._refile(u, d + 1, d)
        if indexed:
            self._refile(v, len(nbrs), None)
        if self._ids is not None:
            self._ids.pop(bisect_left(self._ids, v))
        return fallen

    def prune_low_overlap_edges(self, centre: int, lower_bound: int) -> list[int]:
        """Drop the edges (centre, n) whose endpoints share fewer than
        lower_bound - 1 neighbors.

        Inside a clique of size c every edge has at least c - 2 common
        neighbors, and only a clique of lower_bound + 1 vertices beats the
        bound, so these edges cannot lie in any clique beating it. Every
        test sees the input neighbor sets: the scan finishes before any
        edge is removed. Returns the centre and then each dropped
        neighbor, in scan order; empty when none dropped.
        """
        threshold = lower_bound - 1
        if threshold <= 0:
            return []
        adj = self.adj
        around = adj[centre]
        doomed = [n for n in around if len(around & adj[n]) < threshold]
        if not doomed:
            return []
        for n in doomed:
            around.discard(n)
            adj[n].discard(centre)
        if self._by_degree is not None:
            self._refile(centre, len(around) + len(doomed), len(around))
            for n in doomed:
                self._refile(n, len(adj[n]) + 1, len(adj[n]))
        return [centre, *doomed]

    def reduce(self, lower_bound: int, rng: random.Random) -> None:
        """Core, edge prune around one uniformly random surviving vertex,
        then re-peel the region the prune touched.

        The first peel scans every vertex only when ``lower_bound`` exceeds
        ``core_bound``; at or below it the subgraph is already a core.
        """
        if lower_bound > self.core_bound:
            peel_to_core(self, lower_bound)
        self.core_bound = lower_bound
        if self.adj:
            ids = self.ids
            affected = self.prune_low_overlap_edges(ids[rng.randrange(len(ids))], lower_bound)
            if affected:
                peel_to_core(self, lower_bound, candidates=affected)

    def members(self) -> Iterable[int]:
        """The vertex ids."""
        return self.adj.keys()

    def split_at(self, v: int) -> "BitsetSubproblem":
        """Cut out and return the neighborhood subgraph of ``v``, anchored at
        ``v``; then delete ``v`` and re-peel its neighbors at ``core_bound``."""
        nb = self.adj[v]
        child = BitsetSubproblem.from_adjacency(self.adj, nb, self.anchor | {v})
        self.remove_vertex(v)
        peel_to_core(self, self.core_bound, candidates=nb)
        return child

    def graph(self) -> Graph:
        """The subgraph as a compact Graph labelled by input ids."""
        return graph_from_adjacency(self.adj)


class BitsetSubproblem:
    """A subgraph held as one adjacency bitmask per vertex, plus its anchor set.

    Bit i stands for the input vertex ``labels[i]``. ``labels`` ascends,
    so bit order is id order, and every subproblem cut from this one
    shares it. The subgraph is the vertices on the bits of ``alive`` with
    neighborhoods ``masks[i] & alive``: a mask may keep bits of removed
    vertices, so removing a vertex clears one bit of ``alive``, and a
    child cut at ``v`` is a copy of the mask list with ``alive`` narrowed
    to ``masks[v]``. Removing an edge clears a bit in both endpoints'
    masks, which is why each subproblem owns its list. Degrees are
    counted when a split first asks for them, once per split.
    """

    __slots__ = ("labels", "masks", "alive", "anchor", "core_bound", "_degrees")

    def __init__(self, labels: list[int], masks: list[int], alive: int, anchor: frozenset[int] = frozenset()):
        self.labels = labels
        self.masks = masks
        self.alive = alive
        self.anchor = anchor
        self.core_bound = -1  # largest k this subgraph is known to be a k-core of
        self._degrees: tuple[list[int], list[int]] | None = None

    @classmethod
    def from_adjacency(
        cls, adj: dict[int, set[int]], members: set[int], anchor: frozenset[int] = frozenset()
    ) -> "BitsetSubproblem":
        """The subgraph of ``adj`` induced by ``members``, one bit per member."""
        labels = sorted(members)
        bit = {u: 1 << i for i, u in enumerate(labels)}
        masks = [sum(map(bit.__getitem__, nbrs)) if (nbrs := adj[u] & members) else 0 for u in labels]
        return cls(labels, masks, (1 << len(labels)) - 1, anchor)

    @property
    def size(self) -> int:
        return self.alive.bit_count()

    def members(self) -> Iterable[int]:
        """The input ids of the vertices."""
        return map(self.labels.__getitem__, bit_positions(self.alive))

    def degrees(self) -> tuple[list[int], list[int]]:
        """The bits of ``alive``, ascending, and each one's degree."""
        if self._degrees is None:
            masks, alive = self.masks, self.alive
            ids = bit_positions(alive)
            self._degrees = ids, [(masks[i] & alive).bit_count() for i in ids]
        return self._degrees

    def min_degree(self) -> int:
        return min(self.degrees()[1], default=0)

    def max_degree(self) -> int:
        return max(self.degrees()[1], default=0)

    def median_degree(self) -> int:
        """Lower median of the degree sequence."""
        degrees = sorted(self.degrees()[1])
        return degrees[(len(degrees) - 1) // 2]

    def smallest_id_of_degree(self, degree: int) -> int:
        ids, degrees = self.degrees()
        return ids[degrees.index(degree)]

    def split_at(self, v: int) -> "BitsetSubproblem":
        """``Subproblem.split_at`` at bit ``v``: the child copies the mask list."""
        nb = self.masks[v] & self.alive
        child = BitsetSubproblem(self.labels, self.masks.copy(), nb, self.anchor | {self.labels[v]})
        self.alive ^= 1 << v
        self._degrees = None
        self._peel(self.core_bound, nb)
        return child

    def graph(self) -> Graph:
        """The subgraph as a compact Graph labelled by input ids: the bits
        of ``alive`` are renumbered 0..k-1 in ascending order, so the
        Graph's vertex order is input id order."""
        masks, alive = self.masks, self.alive
        ids = bit_positions(alive)
        index = dict(zip(ids, range(len(ids))))
        adj = [set(map(index.__getitem__, bit_positions(masks[i] & alive))) for i in ids]
        return Graph._from_adj(adj, map(self.labels.__getitem__, ids))

    def _peel(self, k: int, candidates: int) -> None:
        """k-core peeling that examines the bits of ``candidates`` and the
        cascade they trigger; as in ``peel_to_core``, every other vertex
        must already have degree >= k.

        Each pass removes every examined vertex of degree below k at once
        and examines their surviving neighbors next; the k-core is unique,
        so the batches reach the one-at-a-time peel's result.
        """
        masks = self.masks
        alive = self.alive
        candidates &= alive
        while candidates:
            low = nbrs = 0
            for i in bit_positions(candidates):
                if (masks[i] & alive).bit_count() < k:
                    low |= 1 << i
                    nbrs |= masks[i]
            alive ^= low
            candidates = nbrs & alive
        self.alive = alive

    def prune_low_overlap_edges(self, centre: int, lower_bound: int) -> int:
        """``Subproblem.prune_low_overlap_edges`` on masks; returns the mask
        of the centre and its dropped neighbors, 0 when none dropped."""
        threshold = lower_bound - 1
        if threshold <= 0:
            return 0
        masks = self.masks
        around = masks[centre] & self.alive
        doomed = [n for n in bit_positions(around) if (around & masks[n]).bit_count() < threshold]
        if not doomed:
            return 0
        keep = ~(1 << centre)
        dropped = 0
        for n in doomed:
            masks[n] &= keep
            dropped |= 1 << n
        masks[centre] &= ~dropped
        return dropped | 1 << centre

    def reduce(self, lower_bound: int, rng: random.Random) -> None:
        """``Subproblem.reduce`` on masks: the same peels, the same random centre
        (the r-th surviving bit, ascending, for the same draw r) and prune."""
        self._degrees = None
        if lower_bound > self.core_bound:
            self._peel(lower_bound, self.alive)
        self.core_bound = lower_bound
        if self.alive:
            ids = bit_positions(self.alive)
            affected = self.prune_low_overlap_edges(ids[rng.randrange(len(ids))], lower_bound)
            if affected:
                self._peel(lower_bound, affected)


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


def reduce_graph(g: Graph, lower_bound: int, seed: int = 0) -> ReductionOutcome:
    """Core-then-prune-then-core reduction keyed to a clique lower bound.

    Every clique of size >= lower_bound + 1 in ``g`` survives. Removed
    counts are input minus output sizes (edges lost to vertex deletion
    included).
    """
    if lower_bound < 0:
        raise ValueError("lower_bound must be non-negative")
    sub = Subproblem.from_graph(g)
    sub.reduce(lower_bound, random.Random(seed))
    out = graph_from_adjacency(sub.adj, g)
    return ReductionOutcome(
        graph=out,
        removed_vertices=g.num_vertices - out.num_vertices,
        removed_edges=g.num_edges - out.num_edges,
    )
