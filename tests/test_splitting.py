import gc
import importlib.util
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cliquesplit import (
    CliqueResult,
    Graph,
    SolverConfig,
    SplitConfig,
    SubproblemSolveError,
    exact_max_clique,
    get_subsolver,
    gnp_random,
    is_clique,
    split_solve,
    sweep_vertex_limit,
)
from cliquesplit.splitting import Subproblem, _choose_split_vertex, _Driver

from conftest import brute_max_clique, complete_graph, star_graph, wheel5

small_graphs = st.builds(
    gnp_random,
    n=st.integers(min_value=1, max_value=12),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)


class TestDriverWorklist:
    def test_sorted_insert_keeps_order(self):
        driver = _Driver(SplitConfig(vertex_limit=10), get_subsolver("exact"))
        items = [Subproblem({v: set() for v in range(size)}) for size in (5, 2, 9, 2, 7)]
        for item in items:
            driver.queue(item)
        # Ascending by size; the two size-2 items keep their insertion order.
        assert driver.items == [items[1], items[3], items[0], items[4], items[2]]
        assert driver.items.pop().size == 9  # the run loop pops the largest

    def test_incumbent_only_improves(self):
        driver = _Driver(SplitConfig(vertex_limit=10), get_subsolver("exact"))
        driver.offer({1, 2})
        driver.offer({5, 6})  # a tie keeps the first clique
        assert driver.incumbent == frozenset({1, 2})
        driver.offer({5, 6, 7})
        assert driver.incumbent == frozenset({5, 6, 7}) and driver.lower_bound == 3


class TestChooseSplitVertex:
    """The driver's selector: the maximum degree when it fits vertex_limit,
    else the lower median, else the minimum; ties go to the smallest id."""

    def test_star_hub_first(self):
        assert _choose_split_vertex(Subproblem.from_graph(star_graph(4)), vertex_limit=10) == 0

    def test_complete_graph_tie_break(self):
        sub = Subproblem.from_graph(complete_graph(4))
        assert _choose_split_vertex(sub, vertex_limit=10) == 0
        assert sub.min_degree() == sub.size - 1  # the driver short-circuits a clique

    def test_wheel_lower_median_smallest_id(self):
        sub = Subproblem.from_graph(wheel5())  # hub degree 4, rim degrees 3
        assert _choose_split_vertex(sub, vertex_limit=4) == 0
        assert _choose_split_vertex(sub, vertex_limit=3) == 1  # lower median 3, smallest id

    def test_degree_sequence(self):
        # Ids 10..14 with degrees 1, 2, 2, 3, 5. The neighbor sets name
        # vertices outside the subproblem: the selector reads degrees only.
        sub = Subproblem({10 + i: set(range(d)) for i, d in enumerate([1, 2, 2, 3, 5])})
        assert _choose_split_vertex(sub, vertex_limit=5) == 14  # maximum degree 5
        assert _choose_split_vertex(sub, vertex_limit=4) == 11  # lower median 2
        assert _choose_split_vertex(sub, vertex_limit=1) == 10  # minimum degree 1

    def test_vertex_limit_fallback(self):
        # Maximum degree over the limit: try the lower median, then the
        # minimum degree, which is also the answer when nothing fits.
        sub = Subproblem({10 + i: set(range(d)) for i, d in enumerate([3, 4, 4, 6, 7])})
        assert _choose_split_vertex(sub, vertex_limit=7) == 14  # maximum 7 fits
        assert _choose_split_vertex(sub, vertex_limit=6) == 11  # lower median 4
        assert _choose_split_vertex(sub, vertex_limit=4) == 11
        assert _choose_split_vertex(sub, vertex_limit=3) == 10  # minimum 3
        assert _choose_split_vertex(sub, vertex_limit=2) == 10
        assert _choose_split_vertex(Subproblem.from_graph(wheel5()), vertex_limit=2) == 1

    def test_follows_removals(self):
        sub = Subproblem.from_graph(wheel5())
        assert _choose_split_vertex(sub, vertex_limit=3) == 1  # lower median 3, smallest id
        # At bound 3, the rim edges (1, 2) and (1, 4) share only the hub.
        assert sorted(sub.prune_low_overlap_edges(1, 3)) == [1, 2, 4]
        assert _choose_split_vertex(sub, vertex_limit=3) == 2  # median 2: vertices 2 and 4
        assert _choose_split_vertex(sub, vertex_limit=1) == 1  # minimum 1
        sub.remove_vertex(0)  # degrees 0, 1, 2, 1 on vertices 1..4
        assert _choose_split_vertex(sub, vertex_limit=10) == 3
        assert _choose_split_vertex(sub, vertex_limit=1) == 2  # median 1: vertices 2 and 4


class TestSplitSolve:
    @given(g=small_graphs, seed=st.integers(min_value=0, max_value=2**16))
    def test_exact_matches_brute_force_at_every_limit(self, g, seed):
        omega = brute_max_clique(g)
        for limit in range(1, g.num_vertices + 1):
            result = split_solve(g, SplitConfig(vertex_limit=limit, seed=seed))
            assert is_clique(g, result.vertices)
            assert len(result.vertices) == result.size == omega

    def test_leaves_no_reference_cycle(self):
        # Neither the driver nor the exact subsolver leaves garbage that
        # only the cyclic collector can free.
        g = gnp_random(120, 0.3, 4)
        gc.collect()
        gc.disable()
        try:
            result = split_solve(g, SplitConfig(vertex_limit=20, seed=1))
            assert result.stats.subproblems_solved > 1
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_small_graph_single_solver_call(self, k5):
        calls = []

        def counting(subgraph, seed):
            calls.append(subgraph.num_vertices)
            return exact_max_clique(subgraph)

        result = split_solve(k5, SplitConfig(vertex_limit=10, seed=0), solver=counting)
        assert result.size == 5
        assert calls == [5]
        assert result.stats.subproblems_solved == 1

    def test_small_graph_answer_is_verified(self):
        def wrong(subgraph, seed):
            return CliqueResult(frozenset({0, 1, 2}), 3, "wrong")

        with pytest.raises(ValueError, match="not a clique"):
            split_solve(Graph(4), SplitConfig(vertex_limit=10), solver=wrong)

    def test_small_graph_keeps_labels(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)], labels=[40, 30, 20, 10])
        result = split_solve(g, SplitConfig(vertex_limit=10))
        assert result.vertices == frozenset({40, 30, 20})
        assert result.stats.subproblems_solved == 1

        def wrong(subgraph, seed):
            return CliqueResult(frozenset({0, 3}), 2, "wrong")

        with pytest.raises(ValueError, match="not a clique"):
            split_solve(g, SplitConfig(vertex_limit=10), solver=wrong)

    def test_matches_oracle_small(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 16)
            g = gnp_random(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng.randrange(10**6))
            limit = rng.randint(1, n)
            result = split_solve(g, SplitConfig(vertex_limit=limit, seed=rng.randrange(10**6)))
            assert result.size == brute_max_clique(g)
            assert is_clique(g, result.vertices)

    def test_matches_oracle_medium(self):
        for seed in range(15):
            g = gnp_random(60, 0.3, seed)
            expected = exact_max_clique(g).size
            result = split_solve(g, SplitConfig(vertex_limit=25, seed=seed))
            assert result.size == expected

    def test_vertex_limit_one_on_triangle(self):
        result = split_solve(complete_graph(3), SplitConfig(vertex_limit=1, seed=0))
        assert result.size == 3  # clique short-circuit fires, queue drains

    def test_empty_graph(self):
        def never(subgraph, seed):
            raise AssertionError("the empty graph reached the subsolver")

        result = split_solve(Graph(0), SplitConfig(vertex_limit=5), solver=never)
        assert result == CliqueResult(frozenset(), 0, "exact")

    def test_deterministic_given_seed(self):
        g = gnp_random(70, 0.3, 2)
        cfg = SplitConfig(vertex_limit=20, seed=99)
        a = split_solve(g, cfg)
        b = split_solve(g, cfg)
        assert a.vertices == b.vertices
        assert a.stats == b.stats

    def test_solver_failure_carries_subproblem(self):
        from cliquesplit import SolverError

        def broken(subgraph, seed):
            raise SolverError("boom")

        g = gnp_random(30, 0.6, 1)  # splits before its first subsolver call
        with pytest.raises(SubproblemSolveError) as info:
            split_solve(g, SplitConfig(vertex_limit=10, seed=0), solver=broken)
        assert info.value.subgraph.num_vertices <= 10
        assert info.value.anchor  # a split item, not the whole graph

    def test_solver_failure_on_a_graph_that_fits_carries_it_whole(self):
        from cliquesplit import SolverError

        def broken(subgraph, seed):
            raise SolverError("boom")

        with pytest.raises(SubproblemSolveError) as info:
            split_solve(gnp_random(8, 0.5, 1), SplitConfig(vertex_limit=10), solver=broken)
        assert info.value.subgraph.num_vertices == 8
        assert info.value.anchor == frozenset()

    def test_budget_error_stays_the_cause(self):
        from cliquesplit import BudgetExceededError

        g = gnp_random(8, 0.5, 3)  # the exact oracle needs more than one branch node here
        with pytest.raises(SubproblemSolveError) as info:
            split_solve(g, SplitConfig(vertex_limit=10), solver=get_subsolver("exact", SolverConfig(budget=1)))
        cause = info.value.__cause__
        assert isinstance(cause, BudgetExceededError)
        assert cause.best is not None and is_clique(g, cause.best.vertices)

    def test_sa_clique_backend_end_to_end(self):
        g = gnp_random(60, 0.4, 8)
        expected = exact_max_clique(g).size
        result = split_solve(g, SplitConfig(vertex_limit=30, seed=8, solver="sa-clique"))
        assert is_clique(g, result.vertices)
        assert result.size == expected

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SplitConfig(vertex_limit=0)


class TestSweepVertexLimit:
    def test_limit_covering_graph_means_one_call(self):
        g = gnp_random(30, 0.4, 2)
        table = sweep_vertex_limit(g, [30], seed=1)
        assert table == [(30, 1)]

    def test_median_calls_non_increasing_in_limit(self):
        import statistics

        g = gnp_random(120, 0.3, 4)
        limits = [20, 40, 80, 120]
        per_seed = [sweep_vertex_limit(g, limits, seed=s) for s in range(10)]
        medians = [
            statistics.median(per_seed[s][i][1] for s in range(10)) for i in range(len(limits))
        ]
        assert medians == sorted(medians, reverse=True)

    def test_limits_must_ascend(self):
        with pytest.raises(ValueError):
            sweep_vertex_limit(complete_graph(3), [5, 2], seed=0)


def test_every_traced_attribute_resolves():
    # The benchmark's tracer wraps these module attributes by name; a
    # rename in the program must fail here, not only in its self-check.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module, attr, _, _ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(f"cliquesplit.{module}"), attr)), (module, attr)
