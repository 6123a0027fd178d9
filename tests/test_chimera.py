import random

import pytest

from cliquesplit import (
    ChimeraSpec,
    apply_defects,
    chimera_graph,
    clique_capacity,
    complement,
    contract_random_edges,
    exact_max_clique,
    two_coloring,
)
from cliquesplit.graphs import MAX_EDGES

from conftest import cycle_graph


def expected_counts(m, n, l):
    return 2 * l * m * n, l * l * m * n + l * (m - 1) * n + l * m * (n - 1)


class TestChimeraGraph:
    def test_single_cell_is_k44(self):
        g = chimera_graph(ChimeraSpec(1, 1, 4))
        assert g.num_vertices == 8
        assert g.num_edges == 16
        # complete bipartite: one side must be an independent set of 4
        assert exact_max_clique(g).size == 2

    def test_dw2x_dimensions(self):
        g = chimera_graph(ChimeraSpec(12, 12, 4))
        assert g.num_vertices == 1152
        assert g.num_edges == 3360

    def test_small_grid_edge_count(self):
        g = chimera_graph(ChimeraSpec(2, 2, 2))
        assert g.num_vertices == 16
        assert g.num_edges == 4 * 4 + 2 * 1 * 2 + 2 * 2 * 1

    def test_closed_form_counts_full_range(self):
        for m in range(1, 13):
            for n in range(1, 13):
                for l in range(1, 5):
                    g = chimera_graph(ChimeraSpec(m, n, l))
                    assert (g.num_vertices, g.num_edges) == expected_counts(m, n, l), (m, n, l)

    @pytest.mark.parametrize("spec", [ChimeraSpec(2, 3, 2), ChimeraSpec(3, 1, 4)])
    def test_invariant_walk(self, spec):
        chimera_graph(spec).validate()

    @pytest.mark.parametrize("spec", [ChimeraSpec(1, 1, 4), ChimeraSpec(3, 4, 2), ChimeraSpec(12, 12, 4)])
    def test_explicit_two_coloring_is_proper(self, spec):
        g = chimera_graph(spec)
        colors = two_coloring(spec)
        assert all(colors[u] != colors[v] for u, v in g.edges())

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChimeraSpec(0, 1, 1)

    def test_rejects_an_edge_count_above_the_cap_before_allocating(self):
        # 4474 vertices pass the vertex cap; the one cell's 2237^2 edges do not.
        with pytest.raises(ValueError, match=f"^edge count 5004169 above the limit {MAX_EDGES}$"):
            chimera_graph(ChimeraSpec(1, 1, 2237))

    def test_per_cell_complement_is_two_cliques(self):
        cell = chimera_graph(ChimeraSpec(1, 1, 4))
        cc = complement(cell)
        # two disjoint 4-cliques: every vertex has degree 3, clique number 4
        assert all(cc.degree(v) == 3 for v in range(8))
        assert exact_max_clique(cc).size == 4


class TestApplyDefects:
    def test_no_defects_identity(self):
        g = chimera_graph(ChimeraSpec(2, 2, 2))
        assert apply_defects(g) == g

    def test_dead_vertex_count_matches_machine(self):
        g = chimera_graph(ChimeraSpec(12, 12, 4))
        dead = random.Random(0).sample(range(1152), 57)
        survivor = apply_defects(g, dead_vertices=dead)
        assert survivor.num_vertices == 1095
        survivor.validate()

    def test_removing_one_cell(self):
        spec = ChimeraSpec(2, 2, 4)
        g = chimera_graph(spec)
        survivor = apply_defects(g, dead_vertices=range(8))
        assert survivor.num_vertices == 24

    def test_dead_edges(self):
        g = chimera_graph(ChimeraSpec(1, 1, 2))
        survivor = apply_defects(g, dead_edges=[(0, 2)])
        assert survivor.num_edges == g.num_edges - 1
        assert survivor.num_vertices == g.num_vertices

    def test_labels_preserved(self):
        g = chimera_graph(ChimeraSpec(1, 1, 2))
        survivor = apply_defects(g, dead_vertices=[0])
        assert survivor.labels == (1, 2, 3)

    def test_cannot_remove_everything(self):
        g = chimera_graph(ChimeraSpec(1, 1, 1))
        with pytest.raises(ValueError, match="all vertices"):
            apply_defects(g, dead_vertices=range(2))


class TestContraction:
    def test_zero_contractions_identity(self):
        g = chimera_graph(ChimeraSpec(1, 1, 2))
        out, record = contract_random_edges(g, 0, seed=1)
        assert out == g
        assert record.steps == ()

    def test_four_cycle_contracts_to_triangle(self):
        out, record = contract_random_edges(cycle_graph(4), 1, seed=5)
        assert out.num_vertices == 3
        assert out.num_edges == 3
        (u, v, merged) = record.steps[0]
        assert merged == min(u, v)

    def test_vertex_count_decrements_per_step(self):
        g = chimera_graph(ChimeraSpec(12, 12, 4))
        for m in (1, 152, 500):
            out, record = contract_random_edges(g, m, seed=m)
            assert out.num_vertices == 1152 - m
            assert len(record.steps) == m
        out.validate()  # still simple and symmetric

    def test_record_edges_existed(self):
        g = chimera_graph(ChimeraSpec(2, 2, 2))
        _, record = contract_random_edges(g, 10, seed=3)
        # replay: every recorded edge must exist at its contraction time
        adj = {v: set(g.neighbors(v)) for v in range(g.num_vertices)}
        for u, v, merged in record.steps:
            assert v in adj[u]
            keep, gone = merged, (v if merged == u else u)
            nbrs = (adj[keep] | adj[gone]) - {keep, gone}
            for x in adj[keep]:
                adj[x].discard(keep)
            for x in adj[gone]:
                adj[x].discard(gone)
            del adj[gone]
            adj[keep] = nbrs
            for x in nbrs:
                adj[x].add(keep)

    def test_reproducible(self):
        g = chimera_graph(ChimeraSpec(2, 2, 2))
        a, ra = contract_random_edges(g, 5, seed=9)
        b, rb = contract_random_edges(g, 5, seed=9)
        assert a == b and ra == rb

    def test_too_many_contractions(self):
        g = chimera_graph(ChimeraSpec(1, 1, 1))
        with pytest.raises(ValueError):
            contract_random_edges(g, 2, seed=0)

    def test_complement_clique_lower_bound(self):
        # Complement of a bipartite graph keeps each side as a clique, so
        # after m contractions the bigger side minus m is still a bound.
        spec = ChimeraSpec(2, 2, 2)
        g = chimera_graph(spec)
        side = spec.num_vertices // 2
        for m in (1, 3):
            out, _ = contract_random_edges(g, m, seed=m)
            cc = complement(out)
            assert exact_max_clique(cc).size >= side - m


class TestCliqueCapacity:
    def test_current_machine(self):
        assert clique_capacity(1152) == 49

    def test_single_cell(self):
        assert clique_capacity(8) == 5

    def test_doubling_grows_by_sqrt2(self):
        assert clique_capacity(2304) == 69
        assert clique_capacity(4608) == 97
        assert clique_capacity(9216) == 137

    def test_guard(self):
        with pytest.raises(ValueError):
            clique_capacity(7)
