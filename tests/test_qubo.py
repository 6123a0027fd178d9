import itertools
import math
import random

import pytest
from hypothesis import given

from cliquesplit import (
    CliqueResult,
    Graph,
    PenaltyParams,
    Qubo,
    assignment_to_clique,
    brute_force_min,
    evaluate,
    gnp_random,
    mc_to_qubo,
    write_qubo,
)

from conftest import brute_max_clique, complete_graph, path_graph, random_graphs


def p3():
    return path_graph(3)


class TestQuboType:
    def test_normalizes_key_order_and_drops_zeros(self):
        q = Qubo(3, {0: 0.0, 1: -1.0}, {(2, 1): 0.5, (0, 2): 0.0})
        assert q.linear == {1: -1.0}
        assert q.quadratic == {(1, 2): 0.5}

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            Qubo(2, {}, {(1, 1): 1.0})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Qubo(2, {5: 1.0})


class TestMcToQubo:
    def test_k3_has_no_conflicts(self):
        q = mc_to_qubo(complete_graph(3))
        assert q.quadratic == {}
        assert q.linear == {0: -1.0, 1: -1.0, 2: -1.0}
        assert evaluate(q, [1, 1, 1]) == -3.0

    def test_p3_single_conflict(self):
        q = mc_to_qubo(p3())
        assert q.quadratic == {(0, 2): 2.0}
        _, energy = brute_force_min(q)
        assert energy == -2.0

    def test_edgeless_minimum_is_single_vertex(self):
        q = mc_to_qubo(Graph(4))
        assert len(q.quadratic) == 6
        _, energy = brute_force_min(q)
        assert energy == -1.0

    def test_penalties_must_dominate(self):
        with pytest.raises(ValueError):
            PenaltyParams(reward=1.0, penalty=1.0)
        with pytest.raises(ValueError):
            PenaltyParams(reward=0.0, penalty=2.0)

    @pytest.mark.parametrize(
        "reward, penalty",
        [(math.nan, 2.0), (1.0, math.nan), (1.0, math.inf), (math.inf, math.inf), (-math.inf, 2.0)],
    )
    def test_non_finite_params_rejected(self, reward, penalty):
        with pytest.raises(ValueError, match="finite"):
            PenaltyParams(reward=reward, penalty=penalty)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            mc_to_qubo(Graph(0))


class TestEvaluate:
    def test_zero_assignment(self):
        assert evaluate(mc_to_qubo(p3()), [0, 0, 0]) == 0.0

    def test_p3_conflicting_assignment(self):
        assert evaluate(mc_to_qubo(p3()), [1, 0, 1]) == 0.0  # -2 + 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(mc_to_qubo(p3()), [1, 0])

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            evaluate(mc_to_qubo(p3()), [1, 2, 0])

    @given(g=random_graphs)
    def test_integral_on_clique_qubos(self, g):
        if g.num_vertices == 0:
            return
        q = mc_to_qubo(g)
        rng = random.Random(7)
        for _ in range(10):
            x = [rng.randint(0, 1) for _ in range(g.num_vertices)]
            assert evaluate(q, x) == float(int(evaluate(q, x)))


class TestAssignmentToClique:
    def test_k3_full_selection(self):
        result = assignment_to_clique(complete_graph(3), [1, 1, 1])
        assert isinstance(result, CliqueResult)
        assert result.vertices == frozenset({0, 1, 2})

    def test_p3_violation_reported(self):
        result = assignment_to_clique(p3(), [1, 0, 1])
        assert result == [(0, 2)]

    def test_single_bit_never_violates(self):
        for i in range(3):
            x = [0, 0, 0]
            x[i] = 1
            result = assignment_to_clique(p3(), x)
            assert isinstance(result, CliqueResult)
            assert result.size == 1

    def test_empty_selection(self):
        result = assignment_to_clique(p3(), [0, 0, 0])
        assert isinstance(result, CliqueResult)
        assert result.size == 0


class TestBruteForceMin:
    def test_k3(self):
        x, energy = brute_force_min(mc_to_qubo(complete_graph(3)))
        assert (x, energy) == ([1, 1, 1], -3.0)

    def test_p3_tie_break(self):
        # both 110 and 011 reach -2; the smaller counter wins
        x, energy = brute_force_min(mc_to_qubo(p3()))
        assert (x, energy) == ([1, 1, 0], -2.0)

    def test_zero_qubo_tie_break(self):
        x, energy = brute_force_min(Qubo(3))
        assert (x, energy) == ([0, 0, 0], 0.0)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_min(Qubo(25))

    def test_matches_exhaustive_evaluation(self):
        q = mc_to_qubo(gnp_random(10, 0.4, 2))
        _, energy = brute_force_min(q)
        best = min(
            evaluate(q, list(bits)) for bits in itertools.product((0, 1), repeat=10)
        )
        assert energy == best


class TestCliqueQuboCorrespondence:
    def test_minimum_energy_is_minus_omega(self):
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randint(2, 12)
            g = gnp_random(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(10**6))
            x, energy = brute_force_min(mc_to_qubo(g))
            assert energy == -brute_max_clique(g)
            decoded = assignment_to_clique(g, x)
            assert isinstance(decoded, CliqueResult)
            assert decoded.size == brute_max_clique(g)

    def test_violating_assignments_beaten_by_clearing_endpoint(self):
        rng = random.Random(77)
        for _ in range(20):
            g = gnp_random(8, 0.5, rng.randrange(10**6))
            q = mc_to_qubo(g)
            x = [rng.randint(0, 1) for _ in range(8)]
            violations = assignment_to_clique(g, x)
            if isinstance(violations, CliqueResult):
                continue
            u, _v = violations[0]
            cleared = list(x)
            cleared[u] = 0
            assert evaluate(q, cleared) < evaluate(q, x)


class TestQuboText:
    def test_format_shape(self):
        text = write_qubo(mc_to_qubo(p3()))
        lines = text.strip().splitlines()
        assert lines[0] == "N 3"
        assert "L 0 -1" in lines
        assert "Q 0 2 2" in lines
