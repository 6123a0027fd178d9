import pytest
from hypothesis import given

from cliquesplit import (
    DimacsError,
    Graph,
    common_neighbors,
    complement,
    gnp_random,
    hamming_graph,
    induced_subgraph,
    parse_dimacs,
    write_dimacs,
)

from conftest import brute_max_clique, complete_graph, path_graph, random_graphs, wheel5

K3_TEXT = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


class TestParseDimacs:
    def test_triangle(self):
        g = parse_dimacs("c a triangle\n" + K3_TEXT)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert all(g.has_edge(u, v) for u in range(3) for v in range(3) if u != v)

    def test_p_col_header(self):
        g = parse_dimacs(K3_TEXT.replace("p edge", "p col"))
        assert g == parse_dimacs(K3_TEXT)

    def test_unknown_problem_format(self):
        with pytest.raises(DimacsError, match="line 1.*expected 'p edge N M' or 'p col N M'"):
            parse_dimacs("p clique 3 3\n")

    def test_isolated_vertices(self):
        g = parse_dimacs("p edge 2 0\n")
        assert g.num_vertices == 2
        assert g.num_edges == 0

    def test_edge_before_problem_line(self):
        with pytest.raises(DimacsError, match="line 1.*before problem"):
            parse_dimacs("e 1 2\np edge 2 1\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(DimacsError, match="duplicate"):
            parse_dimacs("p edge 2 0\np edge 2 0\n")

    def test_missing_problem_line(self):
        with pytest.raises(DimacsError, match="missing"):
            parse_dimacs("c nothing here\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2.*out of"):
            parse_dimacs("p edge 2 1\ne 1 3\n")

    def test_self_loop_rejected(self):
        with pytest.raises(DimacsError, match="line 2.*self-loop"):
            parse_dimacs("p edge 2 1\ne 2 2\n")

    def test_duplicate_edges_idempotent(self):
        g = parse_dimacs("p edge 2 2\ne 1 2\ne 2 1\n")
        assert g.num_edges == 1

    @pytest.mark.parametrize(
        "text",
        [
            "p edge 3 3\ne 1 2\ne 2 1\ne 1 3\ne 3 1\ne 2 3\ne 3 2\n",  # M counts distinct edges
            "p edge 3 6\ne 1 2\ne 2 1\ne 1 3\ne 3 1\ne 2 3\ne 3 2\n",  # M counts edge lines
            "p edge 3 3\ne 1 2\ne 1 2\ne 1 3\ne 2 3\n",  # a duplicate line
        ],
        ids=["both-directions-distinct", "both-directions-lines", "duplicate-line"],
    )
    def test_repeated_edge_lines_accepted(self, text):
        assert parse_dimacs(text) == parse_dimacs(K3_TEXT)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c cut short\n" + K3_TEXT.rsplit("e ", 1)[0], "line 2: 3 edges declared, 2 edge lines give 2 distinct"),
            (K3_TEXT.replace("p edge 3 3", "p edge 3 1"), "line 1: 1 edges declared, 3 edge lines give 3 distinct"),
        ],
        ids=["truncated", "undercounted"],
    )
    def test_edge_count_mismatch_rejected(self, text, message):
        with pytest.raises(DimacsError, match=message):
            parse_dimacs(text)


class TestWriteDimacs:
    def test_k3_text(self):
        text = write_dimacs(parse_dimacs(K3_TEXT))
        assert "p edge 3 3" in text
        assert text.count("\ne ") == 3

    def test_empty_graph(self):
        assert write_dimacs(Graph(5)) == "p edge 5 0\n"

    @given(g=random_graphs)
    def test_round_trip(self, g):
        back = parse_dimacs(write_dimacs(g))
        assert back.num_vertices == g.num_vertices
        assert list(back.edges()) == list(g.edges())


class TestGraphInvariants:
    @given(g=random_graphs)
    def test_validation_walk(self, g):
        g.validate()

    @given(g=random_graphs)
    def test_degree_sum(self, g):
        assert sum(g.degrees()) == 2 * g.num_edges

    def test_self_loop_rejected_by_constructor(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Graph(2, [], labels=[7, 7])


class TestComplement:
    def test_k3_to_empty(self):
        g = complement(complete_graph(3))
        assert g.num_edges == 0

    @given(g=random_graphs)
    def test_involution(self, g):
        assert complement(complement(g)) == g

    def test_four_cycle_to_disjoint_edges(self):
        # C4 on 0-1-2-3: the only non-adjacent pairs are the diagonals.
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        cc = complement(c4)
        assert sorted(cc.edges()) == [(0, 2), (1, 3)]


class TestGnpRandom:
    def test_p_zero(self):
        assert gnp_random(10, 0.0, 3).num_edges == 0

    def test_p_one(self):
        g = gnp_random(10, 1.0, 3)
        assert g.num_edges == 45

    def test_reproducible(self):
        a = gnp_random(60, 0.37, 12345)
        b = gnp_random(60, 0.37, 12345)
        assert a == b

    def test_seed_changes_graph(self):
        assert gnp_random(60, 0.37, 1) != gnp_random(60, 0.37, 2)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            gnp_random(5, 1.5, 0)

    def test_edge_count_within_three_sigma(self):
        # 990 pairs at p = 0.5: mean 495, sd ~ 15.7; average 100 seeds.
        counts = [gnp_random(45, 0.5, s).num_edges for s in range(100)]
        mean = sum(counts) / len(counts)
        assert abs(mean - 495.0) < 3 * 15.73 / 10


class TestHammingGraph:
    def test_distance_one_is_complete(self):
        g = hamming_graph(2, 1)
        assert g.num_vertices == 4
        assert g.num_edges == 6

    def test_full_distance_is_perfect_matching(self):
        g = hamming_graph(3, 3)
        assert g.num_edges == 4
        assert all(g.degree(v) == 1 for v in range(8))
        assert all(g.has_edge(v, v ^ 0b111) for v in range(8))
        assert brute_max_clique(g) == 2

    def test_guard(self):
        with pytest.raises(ValueError):
            hamming_graph(21, 2)
        with pytest.raises(ValueError):
            hamming_graph(0, 1)

    def test_distance_two_on_four_bits(self):
        from cliquesplit import exact_max_clique

        g = hamming_graph(4, 2)
        assert g.num_vertices == 16
        # The even-parity words are pairwise at distance >= 2.
        assert exact_max_clique(g).size == 8


class TestInducedSubgraph:
    def test_k5_to_k3(self, k5):
        sub = induced_subgraph(k5, [0, 2, 4])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3
        assert sub.labels == (0, 2, 4)

    @given(g=random_graphs)
    def test_identity(self, g):
        assert induced_subgraph(g, range(g.num_vertices)) == g

    def test_path_selection(self):
        # a-b-c-d keeping {a, c, d} leaves just the edge c-d.
        p4 = path_graph(4)
        sub = induced_subgraph(p4, [0, 2, 3])
        assert sub.num_vertices == 3
        assert sorted(sub.edges()) == [(1, 2)]
        assert sub.labels == (0, 2, 3)

    def test_out_of_range(self, k5):
        with pytest.raises(ValueError):
            induced_subgraph(k5, [0, 9])


class TestCommonNeighbors:
    def test_k4_pair(self):
        g = complete_graph(4)
        assert common_neighbors(g, 0, 1) == {2, 3}

    def test_disjoint_edge(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert common_neighbors(g, 0, 1) == set()

    def test_wheel_hub_and_rim(self):
        g = wheel5()
        assert common_neighbors(g, 0, 1) == {2, 4}

    def test_out_of_range(self, k5):
        with pytest.raises(ValueError):
            common_neighbors(k5, 0, 7)
