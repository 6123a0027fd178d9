"""Undirected simple graphs: construction, generators, and DIMACS I/O.

Vertices are integers ``0..n-1``. A graph may carry a ``labels`` tuple
mapping internal ids back to the vertex ids of the graph it was extracted
from, so cliques found in subgraphs can be reported in the id space of the
original input. All graphs are immutable after construction; operations
return new graphs.

``graph_from_adjacency`` is the one builder that renumbers a subset of
vertices given as adjacency sets into a compact graph. Every such
subgraph (induced subgraphs, cores, reduced graphs, defective and
contracted Chimera graphs, the split driver's set-based subproblems) goes
through it; given the ``parent`` graph, it composes the parent's labels
so each level maps back to the input. ``graph_from_masks`` is its twin
for subgraphs held as one adjacency bitmask per vertex (the split
driver's bitset subproblems), and ``bit_positions`` lists a mask's bits.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

# The most vertices a parsed or generated graph may have. One adjacency
# set per vertex is allocated up front, so larger counts are refused
# before any allocation instead of risking an out-of-memory kill.
MAX_VERTICES = 5_000_000
# The most edges a generator may build, checked the same way from the
# generator's closed-form (for G(n, p), expected) edge count.
MAX_EDGES = 5_000_000


class DimacsError(ValueError):
    """Malformed DIMACS input. The message names the offending line."""


class Graph:
    """Adjacency-set graph, symmetric and self-loop free by construction."""

    __slots__ = ("_adj", "_labels", "_num_edges")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]] = (),
        labels: Iterable[int] | None = None,
    ):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        adj: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj
        self._labels = self._canonical_labels(labels, num_vertices)
        self._num_edges: int | None = None

    @staticmethod
    def _canonical_labels(labels: Iterable[int] | None, n: int) -> tuple[int, ...] | None:
        if labels is None:
            return None
        labs = tuple(labels)
        if len(labs) != n:
            raise ValueError("labels length must equal num_vertices")
        if len(set(labs)) != n:
            raise ValueError("labels must be distinct")
        if labs == tuple(range(n)):
            return None  # identity labelling is the default
        return labs

    @classmethod
    def _from_adj(cls, adj: list[set[int]], labels: Iterable[int] | None = None) -> "Graph":
        """Trusted constructor: adopts ``adj`` without copying or checking."""
        g = cls.__new__(cls)
        g._adj = adj
        g._labels = cls._canonical_labels(labels, len(adj))
        g._num_edges = None
        return g

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        if self._num_edges is None:
            self._num_edges = sum(len(s) for s in self._adj) // 2
        return self._num_edges

    @property
    def labels(self) -> tuple[int, ...] | None:
        return self._labels

    def label(self, v: int) -> int:
        """Original id of internal vertex ``v`` (identity when unlabelled)."""
        return self._labels[v] if self._labels is not None else v

    def vertices(self) -> range:
        return range(len(self._adj))

    def neighbors(self, v: int) -> set[int]:
        """Neighbor set of ``v``. Treat as read-only."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(s) for s in self._adj]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u in range(len(self._adj)):
            for v in sorted(self._adj[u]):
                if v > u:
                    yield (u, v)

    def validate(self) -> None:
        """Full invariant walk: symmetry, no self-loops, ids in range, distinct labels."""
        n = len(self._adj)
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if not 0 <= v < n:
                    raise AssertionError(f"neighbor {v} of {u} out of range")
                if v == u:
                    raise AssertionError(f"self-loop at {u}")
                if u not in self._adj[v]:
                    raise AssertionError(f"asymmetric edge ({u}, {v})")
        if self._labels is not None:
            if len(self._labels) != n or len(set(self._labels)) != n:
                raise AssertionError("labels not distinct or wrong length")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj and self._labels == other._labels

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


@dataclass(frozen=True)
class CliqueStats:
    subproblems_solved: int = 0
    reductions: int = 0


@dataclass(frozen=True)
class CliqueResult:
    """A verified clique, reported in the original graph's id space."""

    vertices: frozenset[int]
    size: int
    solver_name: str
    stats: CliqueStats = field(default_factory=CliqueStats)

    def __post_init__(self):
        if self.size != len(self.vertices):
            raise ValueError("size must equal the number of vertices")


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff the (internal-id) vertices are pairwise adjacent in ``g``."""
    vs = list(vertices)
    for i, u in enumerate(vs):
        nbrs = g.neighbors(u)
        for v in vs[i + 1 :]:
            if v not in nbrs:
                return False
    return True


def clique_result(
    g: Graph,
    internal_vertices: Iterable[int],
    solver_name: str,
    stats: CliqueStats | None = None,
) -> CliqueResult:
    """Verify a clique given in internal ids and package it in label space."""
    vs = sorted(set(internal_vertices))
    if not is_clique(g, vs):
        raise ValueError(f"vertex set {vs} is not a clique")
    labelled = frozenset(g.label(v) for v in vs)
    return CliqueResult(labelled, len(labelled), solver_name, stats or CliqueStats())


def parse_dimacs(text: str) -> Graph:
    """Parse the DIMACS ASCII clique format.

    Accepts ``c`` comment lines, one ``p edge N M`` line (or ``p col N M``,
    as in the DIMACS clique benchmark files), and ``e u v`` lines with
    1-based endpoints. Duplicate edge lines are tolerated, so each edge
    may also be listed in both directions; M must equal either the number
    of ``e`` lines or the number of distinct edges. Self-loops and ids
    outside [1, N] are errors.
    """
    n: int | None = None
    m = p_line = 0
    heads: list[int] = []  # 0-based endpoints of the e lines, in order
    tails: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(parts) < 4 or parts[1] not in ("edge", "col"):
                raise DimacsError(f"line {lineno}: expected 'p edge N M' or 'p col N M'")
            try:
                n = int(parts[2])
                m = int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer counts in problem line") from None
            if n < 0:
                raise DimacsError(f"line {lineno}: negative vertex count")
            if n > MAX_VERTICES:
                raise DimacsError(f"line {lineno}: vertex count {n} above the limit {MAX_VERTICES}")
            p_line = lineno
        elif parts[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(parts) < 3:
                raise DimacsError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer edge endpoints") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"line {lineno}: vertex id out of [1, {n}]")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop at vertex {u}")
            heads.append(u - 1)
            tails.append(v - 1)
        else:
            raise DimacsError(f"line {lineno}: unrecognized line {raw.strip()[:30]!r}")
    if n is None:
        raise DimacsError("missing problem line")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in zip(heads, tails):  # every line was checked above
        adj[u].add(v)
        adj[v].add(u)
    g = Graph._from_adj(adj)
    if m not in (len(heads), g.num_edges):
        raise DimacsError(
            f"line {p_line}: {m} edges declared, {len(heads)} edge lines give {g.num_edges} distinct edges"
        )
    return g


def write_dimacs(g: Graph) -> str:
    """Serialize to DIMACS; parse(write(g)) reproduces ids and edges."""
    lines = [f"p edge {g.num_vertices} {g.num_edges}"]
    for u in g.vertices():
        prefix = f"e {u + 1} "
        lines += [f"{prefix}{v + 1}" for v in sorted(g.neighbors(u)) if v > u]
    return "\n".join(lines) + "\n"


def complement(g: Graph) -> Graph:
    """Edge (u, v) present iff absent in ``g``; labels preserved."""
    n = g.num_vertices
    full = set(range(n))
    adj = [full - g.neighbors(v) - {v} for v in range(n)]
    return Graph._from_adj(adj, g.labels)


def gnp_random(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p) random graph.

    Each unordered pair is an edge independently with probability ``p``.
    Uses the Mersenne Twister (``random.Random``) and geometric skipping
    over pair indices, so identical (n, p, seed) give identical edge sets
    on every platform in O(n + m) time.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} above the limit {MAX_VERTICES}")
    expected_edges = p * n * (n - 1) / 2
    if expected_edges > MAX_EDGES:
        raise ValueError(f"expected edge count {expected_edges:.0f} above the limit {MAX_EDGES}")
    if p == 0.0 or n < 2:
        return Graph(n)
    if p == 1.0:
        adj = [set(range(n)) - {v} for v in range(n)]
        return Graph._from_adj(adj)
    lp = math.log1p(-p)
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    v, w = 1, -1
    while v < n:
        lr = math.log1p(-rng.random())
        ratio = lr / lp if lp != 0.0 else math.inf
        if not math.isfinite(ratio) or ratio > n * n:
            break  # the skip jumps past every remaining pair
        w += 1 + int(ratio)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            adj[v].add(w)
            adj[w].add(v)
    return Graph._from_adj(adj)


def hamming_graph(word_length: int, min_distance: int) -> Graph:
    """Graph on all binary words of ``word_length`` bits.

    Two words are adjacent iff their Hamming distance is at least
    ``min_distance``. Vertex ids are the word values themselves.
    """
    if word_length < 1 or min_distance < 1:
        raise ValueError("word_length and min_distance must be >= 1")
    if word_length > 20:
        raise ValueError("word_length > 20 rejected (2^word_length vertices)")
    n = 1 << word_length
    # Each mask of at least min_distance bits pairs the n words into n / 2 edges.
    edges = (n // 2) * sum(math.comb(word_length, d) for d in range(min_distance, word_length + 1))
    if edges > MAX_EDGES:
        raise ValueError(f"edge count {edges} above the limit {MAX_EDGES}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for mask in range(1, n):
        if mask.bit_count() < min_distance:
            continue
        for u in range(n):
            v = u ^ mask
            if u < v:
                adj[u].add(v)
                adj[v].add(u)
    return Graph._from_adj(adj)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by ``vertices``; labels record the parent's ids."""
    keep = set(vertices)
    if keep and not (0 <= min(keep) and max(keep) < g.num_vertices):
        raise ValueError("vertex id out of range")
    return graph_from_adjacency({v: g.neighbors(v) & keep for v in keep}, g)


def common_neighbors(g: Graph, u: int, v: int) -> set[int]:
    """N(u) ∩ N(v)."""
    n = g.num_vertices
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("vertex id out of range")
    return g.neighbors(u) & g.neighbors(v)


def graph_from_adjacency(adj: dict[int, set[int]], parent: Graph | None = None) -> Graph:
    """Renumber an adjacency dict into a compact Graph.

    The keys are internal ids of some graph, and every neighbor must be a
    key. They are renumbered 0..k-1 in ascending order. The new graph is
    labelled by the sorted keys, or, when ``parent`` is the graph the ids
    belong to, by ``parent``'s labels of them, so answers map back through
    every level of extraction to the input's ids.
    """
    keep = sorted(adj)
    index = {old: new for new, old in enumerate(keep)}
    new_adj = [set(map(index.__getitem__, adj[old])) for old in keep]
    return Graph._from_adj(new_adj, keep if parent is None else map(parent.label, keep))


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


def graph_from_masks(masks: list[int], alive: int, labels: list[int]) -> Graph:
    """Renumber the bitmask subgraph on the bits of ``alive`` into a compact Graph.

    Bit i stands for the vertex ``labels[i]`` and ``masks[i] & alive`` is
    its neighborhood. The set bits of ``alive`` are renumbered 0..k-1 in
    ascending order and the new graph is labelled by their labels.
    """
    ids = bit_positions(alive)  # also grows _BYTE_ROWS to the width of every mask below
    index = dict(zip(ids, range(len(ids))))
    width = (alive.bit_length() + 7) >> 3
    adj = []
    for i in ids:
        nbrs: list[int] = []  # bit_positions(masks[i] & alive), inlined
        for row, byte in zip(_BYTE_ROWS, (masks[i] & alive).to_bytes(width, "little")):
            if byte:
                nbrs += row[byte]
        adj.append(set(map(index.__getitem__, nbrs)))
    return Graph._from_adj(adj, map(labels.__getitem__, ids))
