import itertools
import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

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
    parse_qubo,
    qubo_to_ising,
    write_qubo,
)
from cliquesplit.qubo import spins_from_bits

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


class TestQuboToIsing:
    def test_single_variable(self):
        ising = qubo_to_ising(Qubo(1, {0: -1.0}))
        assert ising.h == {0: -0.5}
        assert ising.offset == -0.5
        assert ising.J == {}

    def test_zero_qubo(self):
        ising = qubo_to_ising(Qubo(3))
        assert ising.h == {} and ising.J == {} and ising.offset == 0.0

    def test_p3_energy_equality_over_all_assignments(self):
        q = mc_to_qubo(p3())
        ising = qubo_to_ising(q)
        for bits in itertools.product((0, 1), repeat=3):
            assert ising.energy(spins_from_bits(bits)) == pytest.approx(
                evaluate(q, list(bits)), abs=1e-12
            )

    @given(g=st.builds(gnp_random, n=st.integers(1, 10), p=st.floats(0, 1), seed=st.integers(0, 999)))
    def test_energy_equality_random(self, g):
        q = mc_to_qubo(g)
        ising = qubo_to_ising(q)
        rng = random.Random(3)
        for _ in range(8):
            bits = [rng.randint(0, 1) for _ in range(g.num_vertices)]
            assert ising.energy(spins_from_bits(bits)) == pytest.approx(
                evaluate(q, bits), rel=1e-12, abs=1e-12
            )


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
    def test_round_trip(self):
        q = mc_to_qubo(gnp_random(9, 0.5, 4))
        assert parse_qubo(write_qubo(q)) == q

    def test_format_shape(self):
        text = write_qubo(mc_to_qubo(p3()))
        lines = text.strip().splitlines()
        assert lines[0] == "N 3"
        assert "L 0 -1" in lines
        assert "Q 0 2 2" in lines

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_qubo("L x 1\n")
        with pytest.raises(ValueError, match="missing N"):
            parse_qubo("")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("N 2\nQ 0 1 2\nQ 0 1 3\n", 3),
            ("N 2\nQ 0 1 2\nQ 1 0 3\n", 3),
            ("N 2\nL 0 1\nQ 0 1 2\nL 0 -1\n", 4),
            ("N 2\nL 1 0\nL 1 0\n", 3),
        ],
        ids=["same-pair", "swapped-pair", "linear", "zero-linear"],
    )
    def test_repeated_terms_rejected(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}: duplicate"):
            parse_qubo(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("N 2\nQ 0 0 1\n", "line 2: diagonal quadratic key"),
            ("N 2\nL 5 1\n", "line 2: linear index 5 out of range"),
            ("N 2\nL -1 1\n", "line 2: linear index -1 out of range"),
            ("N 2\nL 0 1\nQ 0 7 1\n", r"line 3: quadratic key \(0, 7\) out of range"),
            ("Q 0 1 1\nL 2 1\nN 2\n", "line 2: linear index 2 out of range"),
            ("N -1\n", "line 1: num_variables must be non-negative"),
        ],
        ids=["diagonal", "linear-high", "linear-negative", "quadratic-high", "n-last", "negative-n"],
    )
    def test_index_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_qubo(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("N 2\nL 0 nan\nL 1 -1\nQ 0 1 inf\n", "line 2: coefficient 'nan' is not finite"),
            ("N 2\nL 0 -1\nL 1 -1\nQ 0 1 inf\n", "line 4: coefficient 'inf' is not finite"),
            ("N 2\nQ 1 0 -Infinity\n", "line 2: coefficient '-Infinity' is not finite"),
        ],
        ids=["nan-linear", "inf-quadratic", "negative-infinity"],
    )
    def test_non_finite_coefficients_name_the_line(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_qubo(text)

    def test_n_line_may_come_last(self):
        q = parse_qubo("c terms first\nL 0 -1\nQ 1 0 2\nL 1 -1\nN 2\n")
        assert q == Qubo(2, {0: -1.0, 1: -1.0}, {(0, 1): 2.0})
