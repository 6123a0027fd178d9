"""Pinned outputs of the decomposition driver and the reductions.

The figures below were recorded before the driver, ``k_core`` and
``reduce_graph`` were moved onto one shared reduction engine. That move
must not change any result: the split vertex, the random draws, and so
the subsolver calls, the reduction count and the returned vertices all
stay the same.
"""

import pytest

from cliquesplit import (
    ChimeraSpec,
    SolverConfig,
    SplitConfig,
    chimera_graph,
    contract_random_edges,
    gnp_random,
    k_core,
    reduce_graph,
    split_solve,
)

# (n, p, graph seed, vertex_limit) -> (size, subproblems_solved, reductions, vertices)
SPLIT_PINS = {
    (120, 0.3, 4, 10): (6, 3, 507, [34, 37, 51, 57, 83, 111]),
    (120, 0.3, 4, 20): (6, 46, 305, [20, 41, 71, 79, 112, 116]),
    (80, 0.5, 1, 10): (9, 12, 1183, [2, 13, 16, 23, 25, 51, 58, 73, 79]),
    (80, 0.5, 1, 20): (9, 77, 383, [2, 13, 16, 23, 25, 51, 58, 73, 79]),
}


def fingerprint(result):
    stats = result.stats
    return (result.size, stats.subproblems_solved, stats.reductions, sorted(result.vertices))


@pytest.mark.parametrize("key", sorted(SPLIT_PINS))
def test_split_solve_exact_pinned(key):
    n, p, seed, limit = key
    result = split_solve(gnp_random(n, p, seed), SplitConfig(vertex_limit=limit, seed=seed))
    assert fingerprint(result) == SPLIT_PINS[key]


def test_split_solve_sampler_pinned():
    g, _ = contract_random_edges(chimera_graph(ChimeraSpec(4, 4, 4)), 20, 3)
    cfg = SplitConfig(
        vertex_limit=12, seed=3, solver="sampler", solver_config=SolverConfig(seed=3, num_reads=20)
    )
    assert fingerprint(split_solve(g, cfg)) == (5, 3, 11, [101, 105, 106, 107, 111])


# G(18, 0.35) graph seed -> (removed vertices, removed edges, surviving labels)
# for reduce_graph at lower bound 3 (one-vertex, all-vertex prune) and k_core at 3 and 4.
REDUCTION_PINS = {
    2: (
        (5, 13, [0, 2, 4, 5, 6, 7, 8, 9, 12, 13, 15, 16, 17]),
        (8, 21, [0, 4, 5, 6, 7, 8, 9, 12, 13, 16]),
        (2, 4, [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17]),
        (18, 43, []),
    ),
    15: (
        (4, 7, [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 15, 17]),
        (10, 24, [1, 2, 4, 8, 9, 11, 13, 14]),
        (3, 4, [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 17]),
        (18, 40, []),
    ),
    22: (
        (5, 12, [1, 2, 3, 4, 7, 8, 9, 10, 12, 13, 14, 15, 17]),
        (11, 26, [1, 2, 4, 10, 13, 15, 17]),
        (2, 3, [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]),
        (11, 26, [1, 2, 4, 10, 13, 15, 17]),
    ),
}


def shrink(g, out):
    return (g.num_vertices - out.num_vertices, g.num_edges - out.num_edges,
            [out.label(v) for v in out.vertices()])


@pytest.mark.parametrize("seed", sorted(REDUCTION_PINS))
def test_reductions_pinned(seed):
    g = gnp_random(18, 0.35, seed)
    single = reduce_graph(g, 3, seed=seed)
    every = reduce_graph(g, 3, seed=seed, prune_all_vertices=True)
    for outcome in (single, every):
        assert (outcome.removed_vertices, outcome.removed_edges) == shrink(g, outcome.graph)[:2]
    got = (shrink(g, single.graph), shrink(g, every.graph), shrink(g, k_core(g, 3)), shrink(g, k_core(g, 4)))
    assert got == REDUCTION_PINS[seed]


def test_all_vertex_prune_edges_pinned():
    out = reduce_graph(gnp_random(18, 0.35, 22), 3, seed=22, prune_all_vertices=True).graph
    edges = [(out.label(u), out.label(v)) for u, v in out.edges()]
    assert edges == [
        (1, 4), (1, 10), (1, 13), (1, 17), (2, 4), (2, 10), (2, 13), (2, 15),
        (4, 15), (4, 17), (10, 13), (10, 15), (10, 17), (13, 17), (15, 17),
    ]
