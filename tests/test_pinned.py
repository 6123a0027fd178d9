"""Pinned outputs of the decomposition driver, the reductions and the
QUBO sampler path.

The driver and reduction figures were recorded before the driver,
``k_core`` and ``reduce_graph`` were moved onto one shared reduction
engine. That move must not change any result: the split vertex, the
random draws, and so the subsolver calls, the reduction count and the
returned vertices all stay the same. The sampler and descent figures were
recorded while each ``mock_sampler`` read was still its own ``sa_qubo``
run and each sample was polished by its own descent; annealing the reads
in lockstep and polishing them in one batch must not change them. The
``sa_qubo`` and ``sa_clique`` figures were recorded while each move still
called ``math.exp``; deciding every move by comparing its energy change
with a precomputed threshold ``T * -ln(u)`` must not change them. The
contracted-Chimera and whole-graph ``split_solve`` figures were recorded
while the driver's solve-or-queue choice was still spread over four
helpers, while a graph that fits the limit still bypassed the driver, and
while the driver could still CH-partition its root; routing every
subproblem through one solve path must not change them.

The ``split_solve`` figures at a vertex limit below the input's size and
the ``reduce_graph`` figures were re-recorded when the edge prune's
threshold rose from ``lower_bound - 2`` to ``lower_bound - 1`` common
neighbors. That prune drops more edges, so the split path, the subsolver
calls, the reduction count and, among cliques of equal size, the returned
vertices may change; no clique size may.
"""

import random

import pytest

from cliquesplit import (
    ChimeraSpec,
    SolverConfig,
    SplitConfig,
    chimera_graph,
    contract_random_edges,
    get_subsolver,
    gnp_random,
    k_core,
    mc_to_qubo,
    mock_sampler,
    reduce_graph,
    sa_clique,
    sa_qubo,
    sampler_solve,
    solve_mc,
    split_solve,
)
from cliquesplit.qubo import Qubo

# (n, p, graph seed, vertex_limit) -> (size, subproblems_solved, reductions, vertices)
SPLIT_PINS = {
    (120, 0.3, 4, 10): (6, 3, 469, [0, 1, 33, 61, 70, 119]),
    (120, 0.3, 4, 20): (6, 44, 285, [20, 41, 71, 79, 112, 116]),
    (80, 0.5, 1, 10): (9, 3, 915, [2, 13, 16, 23, 25, 51, 58, 73, 79]),
    (80, 0.5, 1, 20): (9, 80, 371, [2, 13, 16, 23, 25, 51, 58, 73, 79]),
    # No item reaches the subsolver: the driver's clique short-circuit
    # closes 40 items as cliques instead.
    (60, 0.8, 1, 8): (16, 0, 15393, [2, 4, 12, 15, 25, 28, 35, 39, 41, 44, 51, 52, 56, 57, 58, 59]),
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
    cfg = SplitConfig(vertex_limit=12, seed=3, solver="sampler")
    solver = get_subsolver("sampler", SolverConfig(num_reads=20))
    assert fingerprint(split_solve(g, cfg, solver=solver)) == (5, 2, 11, [101, 105, 106, 107, 111])


def test_split_solve_contracted_chimera_pinned():
    # Contracted C(12,12,4) (152 contractions, seed 0) at limit 45, seed 1.
    # Recorded with a partition count of 1, the same as no partition.
    g, _ = contract_random_edges(chimera_graph(ChimeraSpec(12, 12, 4)), 152, 0)
    result = split_solve(g, SplitConfig(vertex_limit=45, seed=1))
    assert fingerprint(result) == (4, 3, 167, [769, 776, 778, 780])


# (n, p, seed, vertex_limit, backend) -> fingerprint of a graph that fits the
# limit whole: one subsolver call on the whole graph, no reduction.
SMALL_PINS = {
    (8, 0.5, 1, 10, "exact"): (4, 1, 0, [0, 1, 4, 6]),
    (8, 0.5, 1, 10, "sa-clique"): (4, 1, 0, [1, 4, 5, 6]),
    (40, 0.4, 3, 45, "sa-clique"): (5, 1, 0, [14, 27, 32, 35, 38]),
}


@pytest.mark.parametrize("key", sorted(SMALL_PINS))
def test_split_solve_fits_limit_pinned(key):
    n, p, seed, limit, backend = key
    cfg = SplitConfig(vertex_limit=limit, seed=seed, solver=backend)
    assert fingerprint(split_solve(gnp_random(n, p, seed), cfg)) == SMALL_PINS[key]


GRAPHS = {
    "gnp-30-0.5-1": lambda: gnp_random(30, 0.5, 1),
    "gnp-40-0.3-2": lambda: gnp_random(40, 0.3, 2),
    "cm-2-2-4-6-5": lambda: contract_random_edges(chimera_graph(ChimeraSpec(2, 2, 4)), 6, 5)[0],
    "gnp-45-0.5-0": lambda: gnp_random(45, 0.5, 0),
    "gnp-45-0.5-2": lambda: gnp_random(45, 0.5, 2),
}

# (graph, solver seed) -> (selected variables, energy) of sampler_solve with
# mock_sampler, and (size, vertices) of the descent backend, both at 25 reads.
POLISH_PINS = {
    ("gnp-30-0.5-1", 3): (([1, 4, 6, 10, 13, 14, 23], -7.0), (7, [1, 4, 6, 10, 13, 14, 21])),
    ("gnp-30-0.5-1", 11): (([1, 4, 6, 13, 14, 23, 28], -7.0), (7, [1, 4, 6, 10, 13, 14, 21])),
    ("gnp-40-0.3-2", 3): (([6, 18, 26, 35], -4.0), (5, [0, 17, 26, 30, 35])),
    ("gnp-40-0.3-2", 11): (([0, 17, 26, 30, 35], -5.0), (5, [0, 17, 26, 30, 35])),
    ("cm-2-2-4-6-5", 3): (([21, 22, 24, 25], -4.0), (4, [21, 25, 26, 27])),
    ("cm-2-2-4-6-5", 11): (([19, 22, 23, 24], -4.0), (4, [24, 25, 27, 30])),
}


@pytest.mark.parametrize("key", sorted(POLISH_PINS))
def test_sampler_and_descent_pinned(key):
    name, seed = key
    g = GRAPHS[name]()
    cfg = SolverConfig(seed=seed, num_reads=25)
    x, energy = sampler_solve(mc_to_qubo(g), mock_sampler, cfg)
    descent = solve_mc(g, "descent", cfg)
    got = (([i for i, b in enumerate(x) if b], energy), (descent.size, sorted(descent.vertices)))
    assert got == POLISH_PINS[key]


def float_qubo():
    rng = random.Random(7)
    linear = {i: round(rng.uniform(-2, 2), 3) for i in range(12)}
    quadratic = {
        (i, j): round(rng.uniform(-1.5, 1.5), 3)
        for i in range(12)
        for j in range(i + 1, 12)
        if rng.random() < 0.4
    }
    return Qubo(12, linear, quadratic)


# (QUBO, solver seed) -> (selected variables, energy) of sa_qubo at its
# default budget; "float-12" has non-integer coefficients.
SA_QUBO_PINS = {
    ("gnp-30-0.5-1", 3): ([1, 4, 6, 10, 13, 14, 21], -7.0),
    ("gnp-30-0.5-1", 11): ([1, 4, 6, 10, 13, 14, 23], -7.0),
    ("gnp-40-0.3-2", 3): ([0, 17, 26, 30, 35], -5.0),
    ("cm-2-2-4-6-5", 11): ([21, 22, 24, 25], -4.0),
    ("float-12", 3): ([0, 1, 3, 5, 6, 8, 9, 10, 11], -17.597000000000012),
    ("float-12", 11): ([0, 1, 3, 5, 6, 8, 9, 10, 11], -17.597000000000016),
}


@pytest.mark.parametrize("key", sorted(SA_QUBO_PINS))
def test_sa_qubo_pinned(key):
    name, seed = key
    q = float_qubo() if name == "float-12" else mc_to_qubo(GRAPHS[name]())
    x, energy = sa_qubo(q, SolverConfig(seed=seed))
    assert ([i for i, b in enumerate(x) if b], energy) == SA_QUBO_PINS[key]


# (graph, target size, solver seed) -> sorted clique or None (a miss) of
# sa_clique at its default budget. The gnp-45 hits come after the first
# 4096-move batch; gnp-45-0.5-2 at seed 3 misses a clique that exists.
SA_CLIQUE_PINS = {
    ("gnp-30-0.5-1", 6, 3): [1, 10, 13, 14, 16, 21],
    ("gnp-30-0.5-1", 7, 3): [1, 4, 6, 10, 13, 14, 23],
    ("gnp-30-0.5-1", 8, 3): None,
    ("gnp-45-0.5-0", 6, 3): [4, 5, 14, 22, 24, 26],
    ("gnp-45-0.5-2", 8, 2): [19, 25, 28, 29, 33, 37, 41, 44],
    ("gnp-45-0.5-2", 8, 3): None,
    ("cm-2-2-4-6-5", 4, 3): [19, 22, 23, 24],
    ("cm-2-2-4-6-5", 5, 3): None,
}


@pytest.mark.parametrize("key", sorted(SA_CLIQUE_PINS))
def test_sa_clique_pinned(key):
    name, m, seed = key
    found = sa_clique(GRAPHS[name](), m, SolverConfig(seed=seed))
    assert (None if found is None else sorted(found)) == SA_CLIQUE_PINS[key]


# graph -> (size, vertices) of the sa-clique backend at seed 3.
SA_CLIQUE_BACKEND_PINS = {
    "gnp-30-0.5-1": (7, [1, 4, 6, 13, 14, 23, 28]),
    "gnp-40-0.3-2": (5, [0, 17, 26, 30, 35]),
    "cm-2-2-4-6-5": (4, [24, 25, 27, 30]),
}


@pytest.mark.parametrize("name", sorted(SA_CLIQUE_BACKEND_PINS))
def test_sa_clique_backend_pinned(name):
    result = solve_mc(GRAPHS[name](), "sa-clique", SolverConfig(seed=3))
    assert (result.size, sorted(result.vertices)) == SA_CLIQUE_BACKEND_PINS[name]


# G(18, 0.35) graph seed -> (removed vertices, removed edges, surviving labels)
# for reduce_graph at lower bound 3 and k_core at 3 and 4.
REDUCTION_PINS = {
    2: (
        (5, 13, [0, 2, 4, 5, 6, 7, 8, 9, 12, 13, 15, 16, 17]),
        (2, 4, [0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17]),
        (18, 43, []),
    ),
    15: (
        (4, 9, [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 14, 15, 17]),
        (3, 4, [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 17]),
        (18, 40, []),
    ),
    22: (
        (5, 12, [1, 2, 3, 4, 7, 8, 9, 10, 12, 13, 14, 15, 17]),
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
    got = (shrink(g, reduce_graph(g, 3, seed=seed)), shrink(g, k_core(g, 3)), shrink(g, k_core(g, 4)))
    assert got == REDUCTION_PINS[seed]
