import random

import pytest

from cliquesplit import (
    CHPartition,
    Graph,
    auto_ch_partition,
    ch_partition,
    combine_ch,
    combine_split,
    exact_max_clique,
    gnp_random,
    induced_subgraph,
    vertex_split,
)

from conftest import brute_max_clique, complete_graph, path_graph, star_graph, wheel5


def two_triangles():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestCHPartition:
    def test_single_part(self):
        g = gnp_random(12, 0.4, 3)
        p = ch_partition(g, 1)
        assert p.cores == [set(range(12))]
        assert p.halos == [set()]
        assert p.cost == 12

    def test_two_components_split_cleanly(self):
        p = ch_partition(two_triangles(), 2)
        assert p.cost == 3
        assert all(h == set() for h in p.halos)
        assert sorted(map(sorted, p.cores)) == [[0, 1, 2], [3, 4, 5]]

    def test_halo_definition_on_path(self):
        # cores {a,b} and {c,d} of the path a-b-c-d get halos {c} and {b}
        p = CHPartition.from_cores(path_graph(4), [{0, 1}, {2, 3}])
        assert p.halos == [{2}, {1}]
        assert p.cost == 3

    def test_from_cores_validation(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="disjoint"):
            CHPartition.from_cores(g, [{0, 1}, {1, 2, 3}])
        with pytest.raises(ValueError, match="cover"):
            CHPartition.from_cores(g, [{0, 1}, {2}])
        with pytest.raises(ValueError, match="nonempty"):
            CHPartition.from_cores(g, [set(), {0, 1, 2, 3}])

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            ch_partition(path_graph(3), 4)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_output_always_valid(self, s):
        for seed in range(10):
            g = gnp_random(25, 0.3, seed)
            p = ch_partition(g, s)
            p.validate(g)
            assert p.num_parts == s
            assert p.cost <= g.num_vertices

    def test_auto_prefers_trivial_on_expanders(self):
        # every part of a dense random graph drags in the whole vertex set
        g = gnp_random(60, 0.5, 1)
        p = auto_ch_partition(g, vertex_limit=20)
        assert p.num_parts == 1

    def test_auto_splits_disconnected_graphs(self):
        p = auto_ch_partition(two_triangles(), vertex_limit=3)
        assert p.num_parts == 2
        assert p.cost == 3


class TestCombineCh:
    def test_max(self):
        assert combine_ch([3, 5, 2]) == 5

    def test_single(self):
        assert combine_ch([4]) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_ch([])

    def test_recombination_equals_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            g = gnp_random(14, 0.4, rng.randrange(10**6))
            rng.randrange(10**6)  # a bare draw, so the later graphs stay the same
            p = ch_partition(g, 3)
            parts = [
                exact_max_clique(induced_subgraph(g, p.part_vertices(i))).size
                for i in range(p.num_parts)
            ]
            assert combine_ch(parts) == brute_max_clique(g)


class TestVertexSplit:
    def test_k4(self):
        g1, g2 = vertex_split(complete_graph(4), 2)
        assert (g1.num_vertices, g1.num_edges) == (3, 3)
        assert (g2.num_vertices, g2.num_edges) == (3, 3)

    def test_star_center(self):
        g1, g2 = vertex_split(star_graph(4), 0)
        assert g1.num_vertices == 4 and g1.num_edges == 0
        assert g2.num_vertices == 4 and g2.num_edges == 0

    def test_wheel_hub_gives_two_cycles(self):
        g1, g2 = vertex_split(wheel5(), 0)
        for part in (g1, g2):
            assert part.num_vertices == 4
            assert part.num_edges == 4
            assert all(part.degree(v) == 2 for v in range(4))

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            vertex_split(complete_graph(3), 3)

    def test_labels_survive(self):
        g1, g2 = vertex_split(path_graph(4), 1)
        assert g1.labels == (0, 2)
        assert g2.labels == (0, 2, 3)


class TestCombineSplit:
    def test_k4(self):
        assert combine_split(3, 3) == 4

    def test_isolated_vertex_with_triangle(self):
        assert combine_split(0, 3) == 3

    def test_recombination_equals_oracle(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(2, 13)
            g = gnp_random(n, rng.choice([0.2, 0.5, 0.8]), rng.randrange(10**6))
            omega = brute_max_clique(g)
            for v in range(n):
                g1, g2 = vertex_split(g, v)
                k1 = exact_max_clique(g1).size
                k2 = exact_max_clique(g2).size
                assert combine_split(k1, k2) == omega
