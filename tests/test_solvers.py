import gc
import itertools
import math
import random
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from cliquesplit import solvers
from cliquesplit import (
    BudgetExceededError,
    Graph,
    SampleSet,
    SolverConfig,
    binary_search_max_clique,
    brute_force_min,
    evaluate,
    exact_max_clique,
    get_subsolver,
    gnp_random,
    greedy_clique,
    is_clique,
    local_search_descent,
    mc_to_qubo,
    mock_sampler,
    sa_clique,
    sa_qubo,
    sampler_solve,
    solve_mc,
)
from cliquesplit.qubo import Qubo
from cliquesplit.solvers import MOCK_SAMPLER_BUDGET

from conftest import brute_max_clique, complete_graph, path_graph, random_graphs


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


class TestSolverConfig:
    @pytest.mark.parametrize("reads", [0, -3])
    def test_num_reads_must_be_positive(self, reads):
        with pytest.raises(ValueError, match="num_reads"):
            SolverConfig(num_reads=reads)


class TestExactMaxClique:
    def test_k5(self, k5):
        result = exact_max_clique(k5)
        assert result.size == 5
        assert result.vertices == frozenset(range(5))

    def test_petersen_is_triangle_free(self):
        assert exact_max_clique(petersen()).size == 2

    def test_empty_and_edgeless(self):
        assert exact_max_clique(Graph(0)).size == 0
        assert exact_max_clique(Graph(6)).size == 1

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(42)
        for _ in range(500):
            n = rng.randint(1, 16)
            p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])
            g = gnp_random(n, p, rng.randrange(10**6))
            result = exact_max_clique(g)
            assert result.size == brute_max_clique(g)
            assert is_clique(g, result.vertices)

    def test_deterministic(self):
        g = gnp_random(40, 0.5, 8)
        assert exact_max_clique(g).vertices == exact_max_clique(g).vertices

    def test_budget_carries_best_so_far(self):
        g = gnp_random(40, 0.6, 3)
        with pytest.raises(BudgetExceededError) as info:
            exact_max_clique(g, budget=1)
        assert info.value.best is not None
        assert is_clique(g, info.value.best.vertices)

    def test_search_leaves_no_reference_cycle(self):
        g = gnp_random(40, 0.5, 3)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                exact_max_clique(g)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_labels_respected(self):
        from cliquesplit import induced_subgraph

        g = induced_subgraph(complete_graph(6), [2, 3, 5])
        result = exact_max_clique(g)
        assert result.vertices == frozenset({2, 3, 5})


class TestGreedyClique:
    def test_returns_clique(self):
        for seed in range(20):
            g = gnp_random(30, 0.4, seed)
            assert is_clique(g, greedy_clique(g))

    def test_never_beats_exact(self):
        for seed in range(20):
            g = gnp_random(25, 0.5, seed)
            assert len(greedy_clique(g)) <= exact_max_clique(g).size

    @given(
        g=st.builds(
            gnp_random,
            n=st.integers(min_value=0, max_value=40),
            p=st.floats(min_value=0.0, max_value=1.0),
            seed=st.integers(min_value=0, max_value=2**32),
        )
    )
    def test_matches_min_with_key_reference(self, g):
        # Reference: the highest-degree candidate, ties to the smallest id,
        # chosen afresh among the shrinking candidates at every step.
        candidates = set(range(g.num_vertices))
        expected = []
        while candidates:
            v = min(candidates, key=lambda u: (-g.degree(u), u))
            expected.append(v)
            candidates &= g.neighbors(v)
        assert greedy_clique(g) == expected


class TestMetropolisCuts:
    @given(
        temperature=st.floats(1e-14, 1e3),
        alpha=st.floats(0.5, 0.9999),
        uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=40),
        data=st.data(),
    )
    def test_chained_batches_equal_one_batch(self, temperature, alpha, uniforms, data):
        u = np.array(uniforms)
        split = data.draw(st.integers(1, len(uniforms) - 1))
        whole, after = solvers._metropolis_cuts(temperature, alpha, u)
        head, middle = solvers._metropolis_cuts(temperature, alpha, u[:split])
        tail, end = solvers._metropolis_cuts(middle, alpha, u[split:])
        assert np.concatenate([head, tail]).tolist() == whole.tolist()
        cooled = temperature
        for _ in uniforms:
            cooled *= alpha
        assert end == after == cooled
        # one row per start temperature, as mock_sampler runs its reads
        rows, row_after = solvers._metropolis_cuts(np.array([temperature, middle]), alpha, np.vstack([u, u]))
        again, again_after = solvers._metropolis_cuts(middle, alpha, u)
        assert rows.tolist() == [whole.tolist(), again.tolist()]
        assert row_after.tolist() == [after, again_after]

    @given(
        delta=st.floats(-60.0, 60.0),
        u=st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False),
        temperature=st.floats(1e-14, 1e3),
        nudge=st.integers(-30, 30),
    )
    def test_cut_decides_as_the_metropolis_test(self, delta, u, temperature, nudge):
        (cut,), _ = solvers._metropolis_cuts(temperature, 0.5, np.array([u]))
        if u > 0 and nudge:  # an energy change next to the threshold
            delta = cut * (1 + nudge * 1e-10)
        accepts = delta <= 0 or u < math.exp(-delta / max(temperature, 1e-12))
        # exp(-x) near 1 resolves x only to ~1e-16, so the band also spans 1e-9 * T
        if abs(delta - cut) > 1e-9 * (cut + max(temperature, 1e-12)):
            assert (delta < cut) == accepts


class TestSaClique:
    def test_immediate_success_on_complete_graph(self, k5):
        assert sa_clique(k5, 5, SolverConfig(seed=1)) == set(range(5))

    def test_target_too_large(self):
        with pytest.raises(ValueError):
            sa_clique(complete_graph(3), 4)

    def test_failure_returns_none(self):
        # a triangle-free graph has no 3-clique to find
        found = sa_clique(petersen(), 3, SolverConfig(seed=2, budget=2000))
        assert found is None

    def test_witnesses_are_genuine_cliques(self):
        for seed in range(10):
            g = gnp_random(30, 0.6, seed)
            target = exact_max_clique(g).size
            found = sa_clique(g, target, SolverConfig(seed=seed))
            if found is not None:
                assert len(found) == target
                assert is_clique(g, found)

    def test_reproducible(self):
        g = gnp_random(30, 0.6, 5)
        cfg = SolverConfig(seed=11, budget=5000)
        assert sa_clique(g, 4, cfg) == sa_clique(g, 4, cfg)

    def test_binary_search_wrapper_matches_exact(self):
        hits = 0
        for seed in range(25):
            g = gnp_random(40, 0.5, seed)
            result = solve_mc(g, "sa-clique", SolverConfig(seed=seed))
            assert is_clique(g, result.vertices)
            hits += result.size == exact_max_clique(g).size
        assert hits >= 24


class TestSaQubo:
    def test_single_variable(self):
        x, energy = sa_qubo(Qubo(1, {0: -1.0}), SolverConfig(seed=0, budget=50))
        assert (x, energy) == ([1], -1.0)

    def test_p3_and_k3_optima(self):
        hits = 0
        for seed in range(100):
            q = mc_to_qubo(path_graph(3))
            _, energy = sa_qubo(q, SolverConfig(seed=seed))
            hits += energy == -2.0
        assert hits >= 99
        _, energy = sa_qubo(mc_to_qubo(complete_graph(3)), SolverConfig(seed=7))
        assert energy == -3.0

    def test_energy_consistent_with_evaluate(self):
        q = mc_to_qubo(gnp_random(15, 0.5, 3))
        x, energy = sa_qubo(q, SolverConfig(seed=9))
        assert evaluate(q, x) == energy

    def test_reproducible(self):
        q = mc_to_qubo(gnp_random(20, 0.5, 4))
        cfg = SolverConfig(seed=21, budget=3000)
        assert sa_qubo(q, cfg) == sa_qubo(q, cfg)


class TestLocalSearchDescent:
    def test_local_minimum_unchanged(self):
        q = mc_to_qubo(complete_graph(3))
        x, energy = local_search_descent(q, [1, 1, 1])
        assert (x, energy) == ([1, 1, 1], -3.0)

    def test_k3_from_zero(self):
        x, energy = local_search_descent(mc_to_qubo(complete_graph(3)), [0, 0, 0])
        assert (x, energy) == ([1, 1, 1], -3.0)

    def test_all_starts_on_p3_reach_optimum(self):
        q = mc_to_qubo(path_graph(3))
        for bits in itertools.product((0, 1), repeat=3):
            _, energy = local_search_descent(q, list(bits))
            assert energy == -2.0

    def test_output_is_certified_one_flip_minimum(self):
        rng = random.Random(31)
        for _ in range(20):
            g = gnp_random(12, 0.5, rng.randrange(10**6))
            q = mc_to_qubo(g)
            start = [rng.randint(0, 1) for _ in range(12)]
            x, energy = local_search_descent(q, start)
            assert energy <= evaluate(q, start)
            for i in range(12):
                flipped = list(x)
                flipped[i] ^= 1
                assert evaluate(q, flipped) >= energy


class TestSampler:
    def test_sample_set_sorted(self):
        q = mc_to_qubo(path_graph(3))
        ss = SampleSet.from_assignments(q, [[1, 0, 1], [1, 1, 0], [0, 0, 0]])
        energies = [e for _, e in ss.samples]
        assert energies == sorted(energies)
        for x, e in ss.samples:
            assert evaluate(q, list(x)) == e

    def test_constant_sampler_rescued_by_descent(self):
        q = mc_to_qubo(complete_graph(3))

        def constant(qq, num_reads, seed):
            return SampleSet.from_assignments(qq, [[0, 0, 0]] * num_reads)

        x, energy = sampler_solve(q, constant, SolverConfig(num_reads=3))
        assert energy == -3.0

    def test_mock_sampler_on_p3(self):
        q = mc_to_qubo(path_graph(3))
        x, energy = sampler_solve(q, mock_sampler, SolverConfig(seed=5, num_reads=500))
        assert energy == -2.0

    def test_zero_reads_rejected(self):
        q = mc_to_qubo(path_graph(3))
        with pytest.raises(ValueError):
            sampler_solve(q, mock_sampler, SolverConfig(num_reads=0))

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 20),
        p=st.floats(0.0, 1.0),
        graph_seed=st.integers(0, 2**32),
        reads=st.integers(0, 6),
        seed=st.integers(0, 2**40),
    )
    def test_mock_sampler_equals_per_read_sa_qubo(self, n, p, graph_seed, reads, seed):
        q = mc_to_qubo(gnp_random(n, p, graph_seed))
        per_read = [
            sa_qubo(q, SolverConfig(seed=seed * 1_000_003 + i, budget=MOCK_SAMPLER_BUDGET, alpha=0.98))[0]
            for i in range(reads)
        ]
        assert mock_sampler(q, reads, seed) == SampleSet.from_assignments(q, per_read)

    @pytest.mark.parametrize(
        "bad", [[(0, 1)], [(0, 1, 2)], [(1, 0, 0, 1)], [(0, 1, 0), (0, 1)], [(0, 1, 0), (1, 2, 1)]]
    )
    def test_malformed_samples_rejected(self, bad):
        def handing_back(qq, num_reads, seed):
            return SampleSet(tuple((x, 0.0) for x in bad))

        with pytest.raises(ValueError):
            sampler_solve(mc_to_qubo(path_graph(3)), handing_back, SolverConfig(num_reads=len(bad)))

    @given(g=random_graphs, data=st.data())
    def test_batched_polish_keeps_first_best_single_descent(self, g, data):
        q = mc_to_qubo(g)
        bits = st.lists(st.integers(0, 1), min_size=g.num_vertices, max_size=g.num_vertices)
        starts = data.draw(st.lists(bits, min_size=1, max_size=8))

        def handing_back(qq, num_reads, seed):
            return SampleSet(tuple((tuple(x), 0.0) for x in starts))

        singles = [local_search_descent(q, x) for x in starts]
        first_best = min(singles, key=lambda pair: pair[1])
        assert sampler_solve(q, handing_back, SolverConfig(num_reads=len(starts))) == first_best

    def test_empty_sample_set_is_failure(self):
        from cliquesplit import SolverError

        def silent(qq, num_reads, seed):
            return SampleSet(())

        with pytest.raises(SolverError):
            sampler_solve(mc_to_qubo(path_graph(3)), silent, SolverConfig(num_reads=5))


class TestSolveMcFacade:
    def test_exact_k5(self, k5):
        assert solve_mc(k5, "exact").size == 5

    def test_sa_qubo_triangle(self):
        assert solve_mc(complete_graph(3), "sa-qubo", SolverConfig(seed=1)).size == 3

    def test_sa_clique_on_edgeless(self):
        result = solve_mc(Graph(5), "sa-clique", SolverConfig(seed=3))
        assert result.size == 1

    def test_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            solve_mc(Graph(2), "quantum")

    @pytest.mark.parametrize("name", ["exact", "sa-clique", "sa-qubo", "descent", "sampler"])
    def test_every_backend_returns_valid_clique(self, name):
        # Only descent and sampler read num_reads; the others refuse it.
        reads = {"descent": 20, "sampler": 20}.get(name, SolverConfig.num_reads)
        cfg = SolverConfig(seed=13, num_reads=reads)
        for seed in range(5):
            g = gnp_random(18, 0.5, seed)
            result = solve_mc(g, name, cfg)
            assert is_clique(g, result.vertices)
            assert result.size >= 1
            assert result.solver_name == name


def restart_repair(g, selected):
    """The repair as a rescan from the first pair after every drop: drop the
    endpoint of the first non-adjacent pair that is smaller by (degree, id)."""
    chosen = set(selected)
    while True:
        ordered = sorted(chosen)
        violation = next(((u, v) for u, v in itertools.combinations(ordered, 2) if not g.has_edge(u, v)), None)
        if violation is None:
            return chosen
        chosen.discard(min(violation, key=lambda w: (g.degree(w), w)))


repair_graphs = st.builds(
    gnp_random,
    n=st.integers(min_value=1, max_value=25),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)


class TestRepairToClique:
    @given(g=repair_graphs, data=st.data())
    def test_one_pass_is_the_restart_loop(self, g, data):
        selected = data.draw(st.sets(st.integers(0, g.num_vertices - 1)))
        out = solvers._repair_to_clique(g, selected)
        assert out <= selected
        assert is_clique(g, out)
        assert out == restart_repair(g, selected)

    @given(g=repair_graphs, data=st.data())
    def test_pair_drops_lower_degree_then_smaller_id(self, g, data):
        pairs = [(u, v) for u, v in itertools.combinations(range(g.num_vertices), 2) if not g.has_edge(u, v)]
        if not pairs:
            return
        u, v = data.draw(st.sampled_from(pairs))
        kept = max((u, v), key=lambda w: (g.degree(w), w))
        assert solvers._repair_to_clique(g, {u, v}) == {kept}

    def test_pair_examples(self):
        assert solvers._repair_to_clique(Graph(4, [(1, 2), (1, 3)]), {0, 1}) == {1}  # 0 has lower degree
        assert solvers._repair_to_clique(Graph(4, [(0, 2), (0, 3)]), {0, 1}) == {0}  # 1 has lower degree
        assert solvers._repair_to_clique(Graph(2), {0, 1}) == {1}  # tie: the smaller id goes

    @given(g=repair_graphs, data=st.data())
    def test_descent_minimum_needs_no_repair(self, g, data):
        # A 1-flip minimum of the clique QUBO (penalty above reward) holds
        # no non-adjacent pair and is never empty, so the repair only acts
        # on sa-qubo's best-seen assignment.
        n = g.num_vertices
        starts = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=4))
        x, _ = solvers._best_descent(mc_to_qubo(g), starts)
        chosen = {i for i, b in enumerate(x) if b}
        assert chosen and is_clique(g, chosen)
        assert solvers._repair_to_clique(g, chosen) == chosen


class TestGetSubsolver:
    def test_rejects_a_seed_it_would_ignore(self):
        with pytest.raises(ValueError, match="SplitConfig.seed"):
            get_subsolver("sa-qubo", SolverConfig(seed=5))

    def test_each_call_runs_with_its_own_seed(self):
        g = gnp_random(30, 0.5, 1)
        solver = get_subsolver("sa-qubo", SolverConfig(budget=3000))
        for seed in (3, 11):
            assert solver(g, seed) == solve_mc(g, "sa-qubo", SolverConfig(seed=seed, budget=3000))


# Every (backend, SolverConfig field it does not read), with a non-default value.
UNREAD_FIELDS = [
    ("exact", "alpha", 0.5),
    ("exact", "num_reads", 20),
    ("sa-clique", "num_reads", 20),
    ("sa-qubo", "num_reads", 20),
    ("descent", "budget", 100),
    ("descent", "alpha", 0.5),
    ("sampler", "budget", 100),
    ("sampler", "alpha", 0.5),
]


class TestBackendFields:
    @pytest.mark.parametrize("name, field, value", UNREAD_FIELDS)
    def test_refuses_a_field_it_would_ignore(self, name, field, value):
        cfg = SolverConfig(**{field: value})
        with pytest.raises(ValueError, match=f"ignore {field};"):
            solve_mc(gnp_random(10, 0.5, 1), name, cfg)
        with pytest.raises(ValueError, match=f"ignore {field};"):
            get_subsolver(name, cfg)  # refused when built, before any call

    @pytest.mark.parametrize(
        "name, cfg",
        [
            ("exact", SolverConfig(budget=10_000)),
            ("sa-clique", SolverConfig(budget=2000, alpha=0.99)),
            ("sa-qubo", SolverConfig(budget=2000, alpha=0.99)),
            ("descent", SolverConfig(num_reads=7)),
            ("sampler", SolverConfig(num_reads=7)),
        ],
    )
    def test_accepts_a_seed_and_the_fields_it_reads(self, name, cfg):
        g = gnp_random(18, 0.5, 2)
        result = solve_mc(g, name, replace(cfg, seed=4))
        assert is_clique(g, result.vertices) and result.size >= 1
        assert get_subsolver(name, cfg)(g, 4) == result


class TestBinarySearch:
    def test_k8_call_count(self):
        g = complete_graph(8)
        calls = []

        def pred(k):
            calls.append(k)
            return k <= 8

        assert binary_search_max_clique(g, pred) == 8
        assert len(calls) <= 4

    def test_edgeless(self):
        g = Graph(9)
        assert binary_search_max_clique(g, lambda k: k <= 1) == 1

    def test_empty_graph(self):
        assert binary_search_max_clique(Graph(0), lambda k: True) == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_contract_over_every_predicate(self, n):
        # Monotone or not, every predicate on 1..n gets a k with pred(k)
        # true (or k == 1) and pred(k + 1) false (or k == n).
        for truth in itertools.product((False, True), repeat=n):
            probes = []

            def pred(k, truth=truth, probes=probes):
                probes.append(k)
                return truth[k - 1]

            k = binary_search_max_clique(Graph(n), pred)
            assert 1 <= k <= n
            assert truth[k - 1] or k == 1
            assert k == n or not truth[k]
            assert len(set(probes)) == len(probes)
            assert len(probes) <= math.ceil(math.log2(n))

    def test_exact_predicate_matches_oracle(self):
        for seed in range(15):
            g = gnp_random(20, 0.5, seed)
            omega = exact_max_clique(g).size
            assert binary_search_max_clique(g, lambda k: k <= omega) == omega

    def test_stochastic_predicate_mostly_exact(self):
        hits = 0
        for seed in range(25):
            g = gnp_random(40, 0.5, seed)
            omega = exact_max_clique(g).size
            cfg = SolverConfig(seed=seed)

            def pred(m, g=g, cfg=cfg):
                for attempt in range(3):
                    if sa_clique(g, m, SolverConfig(seed=cfg.seed * 91 + m * 7 + attempt)) is not None:
                        return True
                return False

            hits += binary_search_max_clique(g, pred) == omega
        assert hits >= 24
