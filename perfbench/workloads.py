"""Workload definitions and input generation for the benchmark.

Each workload is a fixed list of base graphs drawn from one of the paper's
families. A run's ``--seed`` draws a random relabelling of every base
graph's vertex ids and the ``SplitConfig.seed`` handed to ``split_solve``,
so the program receives different input bytes and makes different random
and tie-breaking choices on every seed, while the graphs' structure and
clique numbers stay fixed. Fresh random graphs per seed would move the
counts too far for a regression bound: a G(500, 0.3) graph is ω = 8 or 9
with 4.7k to 7.1k subsolver calls, and a CM instance makes 3 to 25 calls.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass

VERTEX_LIMIT = 45  # the paper's 1152-qubit annealer capacity
PER_CALL_FEE_S = 0.15  # fee per subsolver call in the paper's cost model


@dataclass(frozen=True)
class Family:
    """One graph family at one scale."""

    kind: str  # "gnp" or "cm"
    n: int = 0
    p: float = 0.0
    rows: int = 0
    cols: int = 0
    shore: int = 0
    contractions: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    exact: bool  # the backend is exact, so every clique must have size ω
    family: Family
    base_seeds: tuple[int, ...]
    vertex_limit: int
    relabelings: int = 1  # instances per base graph, each under its own relabelling
    num_reads: int | None = None  # sampler reads per call; None keeps the package default


def _gnp_avg_degree(n: int, d: float) -> Family:
    return Family("gnp", n=n, p=d / (n - 1))


# Full-size workloads, as timed. Later changes refer to them by name.
FULL = {
    "dense-exact": Workload(
        "dense-exact", "exact", True, Family("gnp", n=500, p=0.3), (1, 2, 3), VERTEX_LIMIT
    ),
    "sparse-large": Workload(
        "sparse-large", "exact", True, _gnp_avg_degree(20000, 50), (2,), VERTEX_LIMIT
    ),
    "cm-sampler": Workload(
        "cm-sampler",
        "sampler",
        False,
        Family("cm", rows=12, cols=12, shore=4, contractions=152),
        tuple(range(8)),
        VERTEX_LIMIT,
        relabelings=12,
        num_reads=50,
    ),
}

# The same code paths on inputs small enough for the self-check.
TINY = {
    "dense-exact": Workload("dense-exact", "exact", True, Family("gnp", n=80, p=0.3), (1, 2), 8),
    "sparse-large": Workload("sparse-large", "exact", True, _gnp_avg_degree(1000, 20), (0,), 8),
    "cm-sampler": Workload(
        "cm-sampler",
        "sampler",
        False,
        Family("cm", rows=3, cols=3, shore=4, contractions=12),
        (0, 1),
        6,
        relabelings=2,
        num_reads=100,
    ),
}

SCALES = {"full": FULL, "tiny": TINY}


def generate_base(cs, family: Family, base_seed: int, span=None):
    """The base graph of one instance, built with the program's generators.

    ``cs`` is the imported ``cliquesplit`` package. ``span(name)``, when
    given, returns a context manager that records the generator call.
    """
    timed = span or (lambda name: nullcontext())
    if family.kind == "gnp":
        with timed("graphs.generate"):
            return cs.gnp_random(family.n, family.p, base_seed)
    with timed("graphs.generate"):
        chimera = cs.chimera_graph(cs.ChimeraSpec(family.rows, family.cols, family.shore))
    with timed("chimera.contract"):
        contracted, _ = cs.contract_random_edges(chimera, family.contractions, base_seed)
    return contracted


def relabel_edges(edges, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The edge list under a uniformly random permutation of 0..n-1."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash deterministically, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{index}")

