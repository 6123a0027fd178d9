"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria use exact equality unless a tolerance is stated inline; the
stochastic criteria state their success-count thresholds explicitly.
"""

import math
import random
import statistics

import numpy as np
import pytest

from cliquesplit import (
    ChimeraSpec,
    CliqueResult,
    SolverConfig,
    SplitConfig,
    assignment_to_clique,
    binary_search_max_clique,
    brute_force_min,
    ch_partition,
    chimera_graph,
    clique_capacity,
    combine_ch,
    combine_split,
    contract_random_edges,
    exact_max_clique,
    gnp_random,
    induced_subgraph,
    is_clique,
    mc_to_qubo,
    reduce_graph,
    sa_clique,
    sa_qubo,
    split_solve,
    two_coloring,
    vertex_split,
)
from cliquesplit.solvers import SA_CLIQUE_RESTARTS


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion}: {detail}"


def test_01_qubo_minimum_equals_clique_size():
    # 200 random graphs with n <= 14: the QUBO ground energy is exactly
    # -omega and its argmin decodes to a valid maximum clique.
    rng = random.Random(1001)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 14)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        g = gnp_random(n, p, rng.randrange(10**9))
        omega = exact_max_clique(g).size
        x, energy = brute_force_min(mc_to_qubo(g))
        assert energy == -omega, f"energy {energy} != -{omega}"
        decoded = assignment_to_clique(g, x)
        assert isinstance(decoded, CliqueResult) and decoded.size == omega
        checked += 1
    report("1 qubo-minimum-equals-clique-size", checked == 200, f"{checked} graphs")


def test_02_ch_partition_recombination_exact():
    # 100 random G(n <= 35, p in {0.2, 0.5, 0.8}) for s in {2, 3, 4}:
    # max over exact per-part solves equals the exact clique number.
    rng = random.Random(1002)
    checked = 0
    for _ in range(100):
        n = rng.randint(4, 35)
        p = rng.choice([0.2, 0.5, 0.8])
        g = gnp_random(n, p, rng.randrange(10**9))
        omega = exact_max_clique(g).size
        for s in (2, 3, 4):
            if s > n:
                continue
            rng.randrange(10**9)  # a bare draw, so the later graphs stay the same
            partition = ch_partition(g, s)
            parts = [
                exact_max_clique(induced_subgraph(g, partition.part_vertices(i))).size
                for i in range(partition.num_parts)
            ]
            assert combine_ch(parts) == omega, f"n={n} p={p} s={s}"
        checked += 1
    report("2 ch-partition-recombination-exact", checked == 100, f"{checked} graphs x s in 2..4")


def test_03_vertex_split_recombination_exact():
    # 200 random G(n <= 30), every vertex: max(k1 + 1, k2) equals omega.
    rng = random.Random(1003)
    checked = 0
    for _ in range(200):
        n = rng.randint(2, 30)
        p = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        g = gnp_random(n, p, rng.randrange(10**9))
        omega = exact_max_clique(g).size
        for v in range(n):
            g1, g2 = vertex_split(g, v)
            k1 = exact_max_clique(g1).size
            k2 = exact_max_clique(g2).size
            assert combine_split(k1, k2) == omega, f"n={n} p={p} v={v}"
        checked += 1
    report("3 vertex-split-recombination-exact", checked == 200, f"{checked} graphs, all vertices")


def test_04_reduction_preserves_optimum():
    # 200 random graphs (n <= 40), every lower_bound < omega: the reduced
    # graph still contains a maximum clique.
    rng = random.Random(1004)
    checked = 0
    for _ in range(200):
        n = rng.randint(4, 40)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        g = gnp_random(n, p, rng.randrange(10**9))
        omega = exact_max_clique(g).size
        for bound in range(omega):
            out = reduce_graph(g, bound, seed=rng.randrange(10**9))
            assert exact_max_clique(out).size == omega, f"n={n} p={p} bound={bound}"
        checked += 1
    report("4 reduction-preserves-optimum", checked == 200, f"{checked} graphs, all bounds")


def test_05_end_to_end_decomposition_exact():
    # split_solve with the exact backend at vertex_limit 45 reproduces the
    # oracle on 100 seeds of G(50, 0.3) and 20 seeds of G(120, 0.25).
    for seed in range(100):
        g = gnp_random(50, 0.3, seed)
        expected = exact_max_clique(g).size
        result = split_solve(g, SplitConfig(vertex_limit=45, seed=seed))
        assert result.size == expected, f"G(50,0.3) seed {seed}"
        assert is_clique(g, result.vertices)
    for seed in range(20):
        g = gnp_random(120, 0.25, seed)
        expected = exact_max_clique(g).size
        result = split_solve(g, SplitConfig(vertex_limit=45, seed=seed))
        assert result.size == expected, f"G(120,0.25) seed {seed}"
        assert is_clique(g, result.vertices)
    report("5 end-to-end-decomposition-exact", True, "120 instances")


def test_06_dense_random_reference_sizes():
    # Mean exact clique size on G(45, p) over 50 seeds, against the
    # population means of omega(G(45, p)) at tolerance +-2. The references
    # come from networkx alone (gnp_random_graph + find_cliques, 1000
    # graphs per density, 400 at p = 0.9: 5.03/7.25/10.92/20.17), rounded
    # to the nearest integer. Recompute them with
    #   python -c "import networkx as nx, statistics as s; print({p: round(s.fmean(max(map(len, nx.find_cliques(nx.gnp_random_graph(45, p, seed=i)))) for i in range(400 if p == 0.9 else 1000)), 2) for p in (0.3, 0.5, 0.7, 0.9)})"
    # A mean can never exceed the first-moment bound
    # E[omega] <= sum_k min(1, C(45, k) p^C(k, 2)) (5.12/7.82/12.06/23.95),
    # so every reference is checked against it.
    reference = {0.3: 5, 0.5: 7, 0.7: 11, 0.9: 20}
    for p, expected in reference.items():
        limit = sum(min(1.0, math.comb(45, k) * p ** math.comb(k, 2)) for k in range(1, 46))
        assert expected <= limit, f"p={p}: reference {expected} above mean upper limit {limit:.2f}"
    means = {}
    failures = []
    for p, expected in reference.items():
        sizes = [exact_max_clique(gnp_random(45, p, seed)).size for seed in range(50)]
        mean = statistics.fmean(sizes)
        means[p] = mean
        if abs(mean - expected) > 2.0:
            failures.append(f"p={p}: mean {mean:.2f} vs {expected}+-2")
    detail = ", ".join(f"p={p}: {m:.2f}" for p, m in means.items())
    report("6 dense-random-reference-sizes", not failures, detail + "; " + "; ".join(failures))


def test_07_chimera_structure():
    spec = ChimeraSpec(12, 12, 4)
    g = chimera_graph(spec)
    assert g.num_vertices == 1152
    assert g.num_edges == 3360
    colors = two_coloring(spec)
    assert all(colors[u] != colors[v] for u, v in g.edges())
    for m in (1, 152, 500):
        contracted, record = contract_random_edges(g, m, seed=m)
        assert contracted.num_vertices == 1152 - m
        assert len(record.steps) == m
    report("7 chimera-structure", True, "1152 vertices, 3360 edges, 2-colorable, contraction counts")


def test_08_solver_calls_grow_with_density():
    # Median subsolver calls over 10 seeds grow strictly with edge
    # probability, and log-medians fit a line with R^2 >= 0.8. Exact
    # backend at n = 300 keeps each solve instant without changing the
    # call-count trend.
    probabilities = (0.10, 0.15, 0.20, 0.25, 0.30)
    medians = []
    for p in probabilities:
        counts = []
        for s in range(10):
            g = gnp_random(300, p, 1000 + s)
            result = split_solve(g, SplitConfig(vertex_limit=45, seed=s))
            counts.append(result.stats.subproblems_solved)
        medians.append(statistics.median(counts))
    increasing = all(a < b for a, b in zip(medians, medians[1:]))
    logs = np.log(medians)
    xs = np.arange(len(medians), dtype=float)
    slope, intercept = np.polyfit(xs, logs, 1)
    residual = logs - (slope * xs + intercept)
    r_squared = 1.0 - float(np.sum(residual**2) / np.sum((logs - logs.mean()) ** 2))
    report(
        "8 solver-calls-grow-with-density",
        increasing and r_squared >= 0.8,
        f"medians={medians}, R2={r_squared:.3f}",
    )


def test_09_solver_calls_shrink_with_capacity():
    # One fixed G(500, 0.3): median calls over 10 seeds are non-increasing
    # across the capacity ladder 45 -> 69 -> 97 -> 137 (one qubit doubling
    # per step) and drop at least 4x end to end.
    assert [clique_capacity(1152 * 2**k) for k in (1, 2, 3)] == [69, 97, 137]
    limits = [45, 69, 97, 137]
    g = gnp_random(500, 0.3, 20260809)
    medians = []
    for limit in limits:
        counts = [
            split_solve(g, SplitConfig(vertex_limit=limit, seed=s)).stats.subproblems_solved
            for s in range(10)
        ]
        medians.append(statistics.median(counts))
    non_increasing = all(a >= b for a, b in zip(medians, medians[1:]))
    drop = medians[0] / max(medians[-1], 1)
    report(
        "9 solver-calls-shrink-with-capacity",
        non_increasing and drop >= 4.0,
        f"medians={medians}, drop={drop:.1f}x",
    )


def test_10_stochastic_solver_quality():
    # Binary search over the fixed-size annealer matches the oracle on at
    # least 95 of 100 seeds of G(45, 0.5); the QUBO annealer reaches the
    # exhaustive optimum on at least 95 of 100 seeds at n <= 20.
    clique_hits = 0
    for seed in range(100):
        g = gnp_random(45, 0.5, seed)
        omega = exact_max_clique(g).size
        cfg = SolverConfig(seed=seed, alpha=0.9996)

        def found(m, g=g, cfg=cfg):
            for attempt in range(SA_CLIQUE_RESTARTS):
                sub_seed = (cfg.seed * 1_000_003 + m) * 97 + attempt
                if sa_clique(g, m, SolverConfig(seed=sub_seed, alpha=cfg.alpha)) is not None:
                    return True
            return False

        clique_hits += binary_search_max_clique(g, found) == omega

    qubo_hits = 0
    rng = random.Random(1010)
    for seed in range(100):
        n = rng.randint(8, 20)
        p = rng.choice([0.3, 0.5, 0.7])
        g = gnp_random(n, p, rng.randrange(10**9))
        q = mc_to_qubo(g)
        _, optimum = brute_force_min(q)
        _, energy = sa_qubo(q, SolverConfig(seed=seed))
        qubo_hits += energy == optimum

    report(
        "10 stochastic-solver-quality",
        clique_hits >= 95 and qubo_hits >= 95,
        f"sa-clique {clique_hits}/100, sa-qubo {qubo_hits}/100",
    )
