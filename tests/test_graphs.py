import hashlib
import random
import re
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cliquesplit import (
    DimacsError,
    Graph,
    apply_defects,
    complement,
    contract_random_edges,
    gnp_random,
    hamming_graph,
    induced_subgraph,
    k_core,
    parse_dimacs,
    reduce_graph,
    write_dimacs,
)
from cliquesplit.graphs import MAX_EDGES, MAX_VERTICES

from conftest import brute_max_clique, complete_graph, path_graph, random_graphs

OVER_CAP = MAX_VERTICES + 1  # inputs this large are refused before anything is allocated

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p edge 2 0\np edge 2 0\n", "line 2: duplicate problem line"),
            ("p clique 3 3\n", "line 1: expected 'p edge N M' or 'p col N M'"),
            ("c\np edge 3\n", "line 2: expected 'p edge N M' or 'p col N M'"),
            ("p edge x 3\n", "line 1: non-integer counts in problem line"),
            ("p col 3 3.0\n", "line 1: non-integer counts in problem line"),
            ("p edge -1 0\n", "line 1: negative vertex count"),
            (f"c\np edge {OVER_CAP} 0\n", f"line 2: vertex count {OVER_CAP} above the limit {MAX_VERTICES}"),
            (f"p col {OVER_CAP} 1\ne 1 2\n", f"line 1: vertex count {OVER_CAP} above the limit {MAX_VERTICES}"),
            ("e 1 2\np edge 2 1\n", "line 1: edge before problem line"),
            ("p edge 2 1\ne 1\n", "line 2: expected 'e u v'"),
            ("p edge 2 1\ne 1 b\n", "line 2: non-integer edge endpoints"),
            ("p edge 2 1\ne 1.0 2\n", "line 2: non-integer edge endpoints"),
            ("p edge 2 1\ne 1 3\n", "line 2: vertex id out of [1, 2]"),
            ("p edge 2 1\ne 0 1\n", "line 2: vertex id out of [1, 2]"),
            ("p edge 2 1\ne 2 2\n", "line 2: self-loop at vertex 2"),
            ("\n  \n\tc indented\np edge 2 1\n\ne 1 1\n", "line 6: self-loop at vertex 1"),
            ("p edge 2 0\n  x" + "y" * 40 + " \n", "line 2: unrecognized line 'x" + "y" * 29 + "'"),
            ("p edge 2 0\n\tedge 1 2\n", "line 2: unrecognized line 'edge 1 2'"),
            ("c nothing here\n", "missing problem line"),
            ("p edge 2 2\ne 1 2\n", "line 1: 2 edges declared, 1 edge lines give 1 distinct edges"),
        ],
        ids=[
            "duplicate-p", "unknown-format", "short-p", "count-not-int", "count-float",
            "negative-n", "n-above-cap", "col-n-above-cap", "edge-before-p", "short-e", "endpoint-not-int",
            "endpoint-float", "endpoint-above-n", "endpoint-zero", "self-loop", "lines-counted-after-skips",
            "unrecognized-capped", "unrecognized-stripped", "missing-p", "count-mismatch",
        ],
    )
    def test_every_error_names_its_line(self, text, message):
        with pytest.raises(DimacsError, match=f"^{re.escape(message)}$"):
            parse_dimacs(text)

    def test_blank_and_comment_lines_skipped(self):
        text = "  \n\t\n   c indented\ncfoo\np edge 3 3\n \t \ne 1 2\n\tc x\ne 1 3\nccc\ne 2 3\n"
        assert parse_dimacs(text) == parse_dimacs(K3_TEXT)


class TestWriteDimacs:
    def test_k3_text(self):
        text = write_dimacs(parse_dimacs(K3_TEXT))
        assert "p edge 3 3" in text
        assert text.count("\ne ") == 3

    def test_empty_graph(self):
        assert write_dimacs(Graph(5)) == "p edge 5 0\n"

    def test_exact_text(self):
        # Vertex 2 is isolated, and vertex 4's only neighbour has a smaller id.
        g = Graph(5, [(3, 4), (1, 3), (0, 3), (0, 1)])
        assert write_dimacs(g) == "p edge 5 4\ne 1 2\ne 1 4\ne 2 4\ne 4 5\n"

    def test_peak_memory_stays_near_the_text_size(self):
        # A writer that holds one string per edge peaks at 7.9 times the text here.
        g = gnp_random(5000, 20 / 4999, 1)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            text = write_dimacs(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak <= 3 * len(text)

    @given(g=random_graphs)
    def test_round_trip(self, g):
        back = parse_dimacs(write_dimacs(g))
        assert back.num_vertices == g.num_vertices
        assert list(back.edges()) == list(g.edges())


def distinct_neighbor_objects(g: Graph) -> int:
    return len({id(x) for v in g.vertices() for x in g.neighbors(v)})


# n = 600 puts most ids above CPython's small-int cache (-5..256), where an
# int computed per edge endpoint is a new object each time.
G600 = gnp_random(600, 0.05, 1)


class TestOneObjectPerId:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: parse_dimacs(write_dimacs(G600)), id="parse_dimacs"),
            pytest.param(lambda: G600, id="gnp_random"),
            pytest.param(lambda: gnp_random(400, 1.0, 0), id="gnp_random-complete"),
            pytest.param(lambda: complement(G600), id="complement"),
            pytest.param(lambda: induced_subgraph(G600, range(1, 600, 2)), id="induced_subgraph"),
        ],
    )
    def test_neighbor_sets_hold_at_most_n_objects(self, build):
        g = build()
        assert distinct_neighbor_objects(g) <= g.num_vertices

    def test_round_trip_above_the_small_int_cache(self):
        # The hypothesis round trip draws n <= 14, inside the cache.
        assert parse_dimacs(write_dimacs(G600)) == G600


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

    def test_rejects_a_vertex_count_above_the_cap_before_allocating(self):
        with pytest.raises(ValueError, match=f"^vertex count {OVER_CAP} above the limit {MAX_VERTICES}$"):
            gnp_random(OVER_CAP, 0.5, 0)

    @pytest.mark.parametrize("n, p, expected", [(100_000, 1.0, 4_999_950_000), (4_000, 0.7, 5_598_600)])
    def test_rejects_an_expected_edge_count_above_the_cap_before_allocating(self, n, p, expected):
        with pytest.raises(ValueError, match=f"^expected edge count {expected} above the limit {MAX_EDGES}$"):
            gnp_random(n, p, 0)

    # SHA-256 prefixes of repr(sorted(g.edges())), recorded at b25ea62: any
    # change to a draw or a float operation of the skip loop changes them.
    @pytest.mark.parametrize(
        "n, p, seed, digest",
        [
            (2, 0.5, 0, "4f53cda18c2baa0c"),  # no edge
            (2, 0.5, 1, "4c461d4a0ab0fe42"),  # one edge
            (1000, 1e-12, 0, "4f53cda18c2baa0c"),  # the first skip passes every pair
            (60, 0.999, 4, "3c02eb5a92b8698f"),  # 1768 edges, long row walks
            (500, 0.3, 1, "37deae4e0127120e"),
            (5000, 20 / 4999, 7, "a239cca174fa4f13"),
        ],
    )
    def test_edge_set_pinned(self, n, p, seed, digest):
        edges = sorted(gnp_random(n, p, seed).edges())
        assert hashlib.sha256(repr(edges).encode()).hexdigest()[:16] == digest

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

    @pytest.mark.parametrize("word_length, edges", [(12, 8_386_560), (13, 33_550_336), (20, 549_755_289_600)])
    def test_rejects_an_edge_count_above_the_cap_before_allocating(self, word_length, edges):
        with pytest.raises(ValueError, match=f"^edge count {edges} above the limit {MAX_EDGES}$"):
            hamming_graph(word_length, 1)

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


@st.composite
def labelled_parents(draw):
    """An induced subgraph of a random graph: labels name the base graph's ids."""
    n = draw(st.integers(2, 24))
    base = gnp_random(n, draw(st.floats(0.05, 0.5)), draw(st.integers(0, 2**32)))
    dropped = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return induced_subgraph(base, set(range(n)) - dropped)


def expected_subgraph(parent, keep, edges):
    """Reference built by the validating constructor.

    ``keep`` and ``edges`` are in ``parent``'s internal ids; the result
    numbers ``keep`` in ascending order and labels it with ``parent``'s
    labels, so its labels name the ids of ``parent``'s own source graph.
    """
    keep = sorted(keep)
    pos = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), [(pos[u], pos[v]) for u, v in edges], [parent.label(v) for v in keep])


def edges_within(g, vertices):
    return [(u, v) for u, v in g.edges() if u in vertices and v in vertices]


def survivors_in_parent(parent, out):
    """``out``'s vertices and edges in ``parent``'s internal ids, found through labels."""
    ids = {parent.label(v): v for v in parent.vertices()}
    keep = [ids[out.label(i)] for i in out.vertices()]
    edges = [(keep[i], keep[j]) for i, j in out.edges()]
    assert all(parent.has_edge(u, v) for u, v in edges)
    return keep, edges


def naive_core(g, k):
    alive = set(g.vertices())
    while low := {v for v in alive if len(g.neighbors(v) & alive) < k}:
        alive -= low
    return alive


def component_count(g):
    seen: set[int] = set()
    count = 0
    for start in g.vertices():
        if start not in seen:
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                fresh = g.neighbors(stack.pop()) - seen
                seen |= fresh
                stack += fresh
    return count


class TestLabelComposition:
    """Every subgraph builder composes labels through a labelled parent."""

    @given(parent=labelled_parents(), data=st.data())
    def test_induced_of_induced(self, parent, data):
        keep = data.draw(st.sets(st.integers(0, parent.num_vertices - 1)))
        out = induced_subgraph(parent, keep)
        assert out == expected_subgraph(parent, keep, edges_within(parent, keep))

    # Most cores of small random graphs keep all or nothing; more examples
    # reach the partial ones.
    @settings(max_examples=200)
    @given(parent=labelled_parents(), k=st.integers(1, 4))
    def test_k_core(self, parent, k):
        keep = naive_core(parent, k)
        assert k_core(parent, k) == expected_subgraph(parent, keep, edges_within(parent, keep))

    @settings(max_examples=200)
    @given(
        parent=labelled_parents(),
        lower_bound=st.integers(1, 4),
        seed=st.integers(0, 99),
    )
    def test_reduce_graph(self, parent, lower_bound, seed):
        out = reduce_graph(parent, lower_bound, seed)
        keep, edges = survivors_in_parent(parent, out)
        assert set(keep) <= naive_core(parent, lower_bound)
        assert out == expected_subgraph(parent, keep, edges)

    @given(parent=labelled_parents(), data=st.data())
    def test_apply_defects(self, parent, data):
        n = parent.num_vertices
        dead_v = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        real = list(parent.edges())
        dead_e = data.draw(st.lists(st.sampled_from(real) | pairs if real else pairs, max_size=6))
        out = apply_defects(parent, dead_v, dead_e)
        keep = set(parent.vertices()) - dead_v
        dead = {frozenset(e) for e in dead_e}
        edges = [e for e in edges_within(parent, keep) if frozenset(e) not in dead]
        assert out == expected_subgraph(parent, keep, edges)

    @given(parent=labelled_parents(), data=st.data(), seed=st.integers(0, 99))
    def test_contract_random_edges(self, parent, data, seed):
        # Each contraction merges two vertices of one component.
        m = data.draw(st.integers(0, parent.num_vertices - component_count(parent)))
        out, record = contract_random_edges(parent, m, seed)
        adj = {v: set(parent.neighbors(v)) for v in parent.vertices()}
        for u, v, vstar in record.steps:
            assert v in adj[u] and vstar == min(u, v)
            gone = max(u, v)
            merged = (adj[u] | adj[v]) - {u, v}
            for x in merged:
                adj[x].discard(gone)
                adj[x].add(vstar)
            del adj[gone]
            adj[vstar] = merged
        edges = [(a, b) for a in adj for b in adj[a] if a < b]
        assert out == expected_subgraph(parent, adj, edges)

    @given(parent=labelled_parents(), data=st.data(), seed=st.integers(0, 2**32))
    def test_contract_random_edges_draws_like_an_edge_list(self, parent, data, seed):
        m = data.draw(st.integers(0, parent.num_vertices - 1))
        try:
            expected = edge_list_contraction(parent, m, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                contract_random_edges(parent, m, seed)
        else:
            out, record = contract_random_edges(parent, m, seed)
            assert (out, record.steps) == expected

    def test_contract_with_no_edge_left(self):
        # Two disjoint edges and two isolated vertices: two contractions use
        # up every edge, so the third finds none.
        g = Graph(6, [(0, 1), (2, 3)])
        out, record = contract_random_edges(g, 2, 0)
        assert (out, record.steps) == edge_list_contraction(g, 2, 0)
        assert sorted(record.steps) == [(0, 1, 0), (2, 3, 2)] and out.num_edges == 0
        with pytest.raises(ValueError, match="no edge available to contract"):
            contract_random_edges(g, 3, 0)


def edge_list_contraction(g, m, seed):
    """Reference contraction: draws from the sorted (u, v) edge list, rebuilt every step."""
    rng = random.Random(seed)
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    steps = []
    for _ in range(m):
        edge_list = [(u, v) for u in sorted(adj) for v in sorted(adj[u]) if v > u]
        if not edge_list:
            raise ValueError("no edge available to contract")
        u, v = edge_list[rng.randrange(len(edge_list))]
        merged = (adj[u] | adj[v]) - {u, v}
        for x in adj.pop(v):
            adj[x].discard(v)
        adj[u] = merged
        for x in merged:
            adj[x].add(u)
        steps.append((u, v, u))
    edges = [(a, b) for a in adj for b in adj[a] if a < b]
    return expected_subgraph(g, adj, edges), tuple(steps)
