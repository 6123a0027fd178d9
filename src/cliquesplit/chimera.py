"""Chimera topology, edge-contraction benchmark family, and capacity model.

A Chimera graph C(m, n, l) is an m x n grid of K_{l,l} cells. Each cell
holds ``l`` vertical-orientation and ``l`` horizontal-orientation qubits;
vertical qubits couple to the same shore index in the cell below,
horizontal qubits to the same shore index in the cell to the right.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable

from .graphs import MAX_EDGES, MAX_VERTICES, Graph, graph_from_adjacency

VERTICAL = 0
HORIZONTAL = 1


@dataclass(frozen=True)
class ChimeraSpec:
    rows: int
    cols: int
    shore: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.shore < 1:
            raise ValueError("rows, cols and shore must all be >= 1")

    @property
    def num_vertices(self) -> int:
        return 2 * self.shore * self.rows * self.cols

    @property
    def num_edges(self) -> int:
        m, n, l = self.rows, self.cols, self.shore
        return l * l * m * n + l * (m - 1) * n + l * m * (n - 1)


@dataclass(frozen=True)
class ContractionRecord:
    """Edge contractions in order: (u, v, merged-vertex id) triples."""

    steps: tuple[tuple[int, int, int], ...]


def qubit_index(spec: ChimeraSpec, row: int, col: int, orientation: int, shore_index: int) -> int:
    """Row-major linearization of (row, col, orientation, shore index)."""
    return ((row * spec.cols + col) * 2 + orientation) * spec.shore + shore_index


def chimera_graph(spec: ChimeraSpec) -> Graph:
    """Build C(rows, cols, shore)."""
    if spec.num_vertices > MAX_VERTICES:
        raise ValueError(f"refusing to build {spec.num_vertices} vertices")
    if spec.num_edges > MAX_EDGES:
        raise ValueError(f"edge count {spec.num_edges} above the limit {MAX_EDGES}")
    m, n, l = spec.rows, spec.cols, spec.shore
    adj: list[set[int]] = [set() for _ in range(spec.num_vertices)]

    def add(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)

    for i in range(m):
        for j in range(n):
            for a in range(l):
                va = qubit_index(spec, i, j, VERTICAL, a)
                for b in range(l):
                    add(va, qubit_index(spec, i, j, HORIZONTAL, b))
                if i + 1 < m:
                    add(va, qubit_index(spec, i + 1, j, VERTICAL, a))
                if j + 1 < n:
                    ha = qubit_index(spec, i, j, HORIZONTAL, a)
                    add(ha, qubit_index(spec, i, j + 1, HORIZONTAL, a))
    return Graph._from_adj(adj)


def two_coloring(spec: ChimeraSpec) -> list[int]:
    """The explicit proper 2-coloring of C(m, n, l).

    Vertical qubits of cell (i, j) get (i + j) mod 2, horizontal ones the
    opposite color. Useful for checking bipartiteness mechanically.
    """
    colors = [0] * spec.num_vertices
    for i in range(spec.rows):
        for j in range(spec.cols):
            for a in range(spec.shore):
                colors[qubit_index(spec, i, j, VERTICAL, a)] = (i + j) % 2
                colors[qubit_index(spec, i, j, HORIZONTAL, a)] = (i + j + 1) % 2
    return colors


def apply_defects(
    g: Graph,
    dead_vertices: Iterable[int] = (),
    dead_edges: Iterable[tuple[int, int]] = (),
) -> Graph:
    """Remove failed qubits/couplers; survivors keep their original labels."""
    n = g.num_vertices
    dead_v = set(dead_vertices)
    for v in dead_v:
        if not 0 <= v < n:
            raise ValueError(f"dead vertex {v} out of range")
    adj = {v: g.neighbors(v) - dead_v for v in range(n) if v not in dead_v}
    for u, v in dead_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"dead edge ({u}, {v}) out of range")
        if u in adj and v in adj:
            adj[u].discard(v)
            adj[v].discard(u)
    if not adj:
        raise ValueError("all vertices removed")
    return graph_from_adjacency(adj, g)


def contract_random_edges(g: Graph, m: int, seed: int) -> tuple[Graph, ContractionRecord]:
    """Contract ``m`` uniformly random edges, one at a time.

    Contracting (v1, v2) merges the endpoints into v* = min(v1, v2) with
    neighborhood N1 ∪ N2 \\ {v1, v2}; the edge set is re-sampled after
    every step. The result stays simple and loses exactly one vertex per
    contraction.

    The current edges are kept as one sorted list of keys ``u * n + v``
    (u < v, n = ``g.num_vertices``; a merged vertex keeps the smaller id,
    so ids stay below n). Its r-th key is the r-th edge of the ascending
    ``(u, v)`` edge list, so each draw is uniform over the current edges,
    and a contraction updates only the keys of the absorbed vertex's edges.
    """
    if m < 0:
        raise ValueError("number of contractions must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    n = g.num_vertices
    if m >= n:
        raise ValueError(f"cannot contract {m} edges in a {n}-vertex graph")
    rng = random.Random(seed)
    adj: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in range(n)}
    keys = sorted(u * n + v for u, nbrs in adj.items() for v in nbrs if v > u)
    steps: list[tuple[int, int, int]] = []
    for _ in range(m):
        if not keys:
            raise ValueError("no edge available to contract")
        vstar, gone = divmod(keys[rng.randrange(len(keys))], n)  # vstar < gone
        kept = adj[vstar]
        for x in adj.pop(gone):
            adj[x].discard(gone)
            del keys[bisect_left(keys, x * n + gone if x < gone else gone * n + x)]
            if x != vstar and x not in kept:  # (vstar, x) is a new edge
                kept.add(x)
                adj[x].add(vstar)
                insort(keys, x * n + vstar if x < vstar else vstar * n + x)
        steps.append((vstar, gone, vstar))
    return graph_from_adjacency(adj, g), ContractionRecord(tuple(steps))


def clique_capacity(num_qubits: int) -> int:
    """Complete-graph capacity of a square Chimera machine with >= num_qubits.

    A C(m, m, 4) grid has 8*m^2 qubits and embeds K_{1+4m}; this returns
    1 + 4m for the smallest m whose grid reaches ``num_qubits``, so the
    capacity grows by a factor of sqrt(2) per qubit doubling
    (1152 -> 49, 2304 -> 69, 4608 -> 97, ...).
    """
    if num_qubits < 8:
        raise ValueError("need at least one 8-qubit cell")
    m = math.isqrt((num_qubits - 1) // 8) + 1
    return 1 + 4 * m
