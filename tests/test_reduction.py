import random
import time

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cliquesplit import Graph, exact_max_clique, gnp_random, k_core, reduce_graph
from cliquesplit.graphs import graph_from_adjacency
from cliquesplit.reduction import BitsetSubproblem, Subproblem, bit_positions, peel_to_core
from cliquesplit.splitting import _choose_split_vertex

from conftest import brute_max_clique, complete_graph, path_graph, random_graphs, star_graph


class TestKCore:
    def test_path_peels_to_nothing(self):
        assert k_core(path_graph(3), 2).num_vertices == 0

    def test_k5_untouched(self):
        g = complete_graph(5)
        assert k_core(g, 4) == g

    def test_pendant_vertex_peeled(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        core = k_core(g, 3)
        assert core.num_vertices == 4
        assert core.num_edges == 6
        assert [core.label(v) for v in range(4)] == [0, 1, 2, 3]

    def test_k_zero_is_identity(self):
        g = gnp_random(20, 0.2, 4)
        assert k_core(g, 0) == g

    @given(g=random_graphs, k=st.integers(min_value=0, max_value=6))
    def test_idempotent(self, g, k):
        once = k_core(g, k)
        twice = k_core(once, k)
        assert twice.num_vertices == once.num_vertices
        assert list(twice.edges()) == list(once.edges())

    @given(g=random_graphs, k=st.integers(min_value=0, max_value=6))
    def test_monotone_in_k(self, g, k):
        inner = k_core(g, k + 1)
        outer = k_core(g, k)
        assert set(inner.labels or range(inner.num_vertices)) <= set(
            outer.labels or range(outer.num_vertices)
        )

    @given(g=random_graphs, k=st.integers(min_value=0, max_value=6))
    def test_all_degrees_at_least_k(self, g, k):
        core = k_core(g, k)
        assert all(d >= k for d in core.degrees())

    def test_runtime_scales_linearly_with_edges(self):
        # Fixed average degree 20 over 1e4..1e6 edges. The fitted log-log
        # slope must stay within 2x of linear (a quadratic implementation
        # measures ~2.0; allocator cache drift alone gives ~1.2-1.4).
        import math

        sizes = [1_000, 10_000, 100_000]
        times, edges = [], []
        for n in sizes:
            g = gnp_random(n, 20 / (n - 1), 7)
            times.append(min(_timed_k_core(g, 10) for _ in range(3)))
            edges.append(g.num_edges)
        slope = (math.log(times[-1]) - math.log(times[0])) / (
            math.log(edges[-1]) - math.log(edges[0])
        )
        assert 0.5 <= slope <= 1.6, f"times {times} scale with exponent {slope:.2f}"


def _timed_k_core(g, k):
    begin = time.perf_counter()
    k_core(g, k)
    return time.perf_counter() - begin


class TestReduceGraph:
    def test_zero_bound_is_identity(self):
        g = gnp_random(25, 0.3, 11)
        out = reduce_graph(g, 0, seed=1)
        assert out == g
        assert g.num_vertices - out.num_vertices == 0
        assert g.num_edges - out.num_edges == 0

    def test_small_component_peels_away(self):
        k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        k3 = [(u, v) for u in range(5, 8) for v in range(u + 1, 8)]
        g = Graph(8, k5 + k3)
        out = reduce_graph(g, 4, seed=0)
        assert out.num_vertices == 5
        assert [out.label(v) for v in range(5)] == [0, 1, 2, 3, 4]
        assert g.num_vertices - out.num_vertices == 3
        assert g.num_edges - out.num_edges == 3

    def test_star_collapses(self):
        assert reduce_graph(star_graph(10), 2, seed=0).num_vertices == 0

    def test_clique_preservation(self):
        # Any bound below the clique number must leave the optimum intact.
        rng = random.Random(202)
        for _ in range(60):
            n = rng.randint(4, 16)
            g = gnp_random(n, rng.choice([0.3, 0.5, 0.8]), rng.randrange(10**6))
            omega = brute_max_clique(g)
            for bound in range(omega):
                out = reduce_graph(g, bound, seed=rng.randrange(10**6))
                assert exact_max_clique(out).size == omega

    def test_deterministic_given_seed(self):
        g = gnp_random(50, 0.25, 17)
        a = reduce_graph(g, 3, seed=123)
        b = reduce_graph(g, 3, seed=123)
        assert a == b


def scan_split_vertex(degree: dict[int, int], limit: int) -> int:
    """The split rule by a scan of ``degree``: the maximum degree if it is
    at most ``limit``, else the lower median if it is, else the minimum;
    then the smallest vertex of that degree."""
    ordered = sorted(degree.values())
    d = next((d for d in (ordered[-1], ordered[(len(ordered) - 1) // 2]) if d <= limit), ordered[0])
    return min(v for v in degree if degree[v] == d)


def assert_degree_index_matches(sub, degree: dict[int, int]):
    """``sub.by_degree`` files each vertex (each bit, for a bitset item)
    under its degree in ``degree`` and nowhere else, and the split rule
    reading it picks what a scan picks at every limit from 0 to the
    maximum degree + 1, leaving the index as it was."""
    index = [set(vs) for vs in sub.by_degree]
    assert sum(map(len, index)) == len(degree)
    assert all(vs == {v for v in degree if degree[v] == d} for d, vs in enumerate(index))
    if degree:  # the driver splits only items that hold a vertex
        for limit in range(max(degree.values()) + 2):
            assert _choose_split_vertex(sub, limit) == scan_split_vertex(degree, limit)
    assert [set(vs) for vs in sub.by_degree] == index


def assert_set_index_matches(sub: Subproblem):
    """Both of ``sub``'s indexes agree with a scan of ``sub.adj``."""
    degree = {v: len(nbrs) for v, nbrs in sub.adj.items()}
    assert sub.size == len(degree)
    assert sub.ids == sorted(degree)
    assert_degree_index_matches(sub, degree)


class TestSubproblemDegreeIndex:
    @given(
        g=st.builds(
            gnp_random,
            n=st.integers(min_value=0, max_value=30),
            p=st.floats(min_value=0.0, max_value=1.0),
            seed=st.integers(min_value=0, max_value=2**32),
        ),
        data=st.data(),
    )
    def test_matches_adjacency_after_every_step(self, g, data):
        # The index is first read after a random prefix of steps, which
        # draw vertices from sorted(sub.adj), not sub.ids, so the prefix
        # builds neither index; from then on it is checked after every step.
        sub = Subproblem.from_graph(g)
        prefix = data.draw(st.integers(min_value=0, max_value=8))
        for step_number in range(prefix + data.draw(st.integers(min_value=1, max_value=12))):
            if step_number == prefix:
                assert (sub._ids, sub._by_degree) == (None, None)  # no step built an index
                assert_set_index_matches(sub)
            vertices = sorted(sub.adj)
            steps = ["peel"] + ["vertex", "prune"] * bool(vertices)
            step = data.draw(st.sampled_from(steps))
            if step == "prune":
                centre = data.draw(st.sampled_from(vertices))
                bound = data.draw(st.integers(min_value=0, max_value=10))
                around = sub.adj[centre]  # the live set, so that doomed is in scan order
                doomed = [n for n in around if len(around & sub.adj[n]) < bound - 1]
                before = {v: set(nbrs) for v, nbrs in sub.adj.items()}
                touched = sub.prune_low_overlap_edges(centre, bound)
                assert sub.adj == {
                    v: nbrs - set(doomed) if v == centre else nbrs - {centre} if v in doomed else nbrs
                    for v, nbrs in before.items()
                }
                assert touched == ([centre, *doomed] if doomed else [])
            elif step == "vertex":
                v = data.draw(st.sampled_from(vertices))
                below = data.draw(st.integers(min_value=0, max_value=8))
                before = {u: len(sub.adj[u]) for u in sub.adj[v]}
                fallen = sub.remove_vertex(v, below)
                assert v not in sub.adj and all(v not in nbrs for nbrs in sub.adj.values())
                assert sorted(fallen) == sorted(u for u, d in before.items() if d >= below > len(sub.adj[u]))
            else:
                before = sub.size
                k = data.draw(st.integers(min_value=0, max_value=8))
                assert peel_to_core(sub, k) == before - sub.size
                assert all(len(nbrs) >= k for nbrs in sub.adj.values())
            if step_number >= prefix:
                assert_set_index_matches(sub)


def bitset_adjacency(sub: BitsetSubproblem) -> dict[int, set[int]]:
    """``sub`` as adjacency sets over input ids."""
    ids = bit_positions(sub.alive)
    return {sub.labels[i]: {sub.labels[j] for j in bit_positions(sub.masks[i] & sub.alive)} for i in ids}


def degree_classes(sub: Subproblem | BitsetSubproblem) -> dict[int, set[int]]:
    """Each degree of ``sub.by_degree`` that holds a vertex, mapped to its
    vertices' input ids."""
    label = sub.labels.__getitem__ if isinstance(sub, BitsetSubproblem) else int
    return {d: set(map(label, vs)) for d, vs in enumerate(sub.by_degree) if vs}


class TestBitsetSubproblem:
    """The bitset engine takes every step the set engine takes on the same
    subgraph: the same survivors and edges, the same random draws, the same
    split vertex and the same neighborhood child."""

    def assert_same(self, sets, bits, rng_s, rng_b):
        assert bitset_adjacency(bits) == sets.adj
        assert bits.size == sets.size
        assert rng_b.getstate() == rng_s.getstate()

    @given(
        g=random_graphs,
        bound=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32),
        limit=st.integers(min_value=1, max_value=14),
    )
    def test_matches_the_set_engine(self, g, bound, seed, limit):
        sets = Subproblem.from_graph(g)
        bits = BitsetSubproblem.from_adjacency(sets.adj, set(sets.adj))
        rng_s, rng_b = random.Random(seed), random.Random(seed)
        sets.reduce(bound, rng_s)
        bits.reduce(bound, rng_b)
        self.assert_same(sets, bits, rng_s, rng_b)
        # Split the set-engine root and the bitset item at the same vertex,
        # as the driver does, then reduce every piece again.
        while sets.size:
            v = _choose_split_vertex(sets, limit)
            assert bits.labels[_choose_split_vertex(bits, limit)] == v
            assert degree_classes(bits) == degree_classes(sets)
            nb = sets.adj[v]
            expected = {u: sets.adj[u] & nb for u in nb}
            child_s = sets.split_at(v)
            child_b = bits.split_at(bits.labels.index(v))
            for child in (child_s, child_b):
                assert bitset_adjacency(child) == expected and child.anchor == {v}
            # Both remainders lost v and re-peeled its neighbors alike.
            assert v not in sets.adj and bitset_adjacency(bits) == sets.adj
            sets.reduce(bound, rng_s)
            bits.reduce(bound, rng_b)
            self.assert_same(sets, bits, rng_s, rng_b)
            child_s.reduce(bound, rng_s)
            child_b.reduce(bound, rng_b)
            assert bitset_adjacency(child_b) == bitset_adjacency(child_s)
            assert rng_b.getstate() == rng_s.getstate()

    @given(g=random_graphs, data=st.data())
    def test_degree_queries_match_a_scan(self, g, data):
        # Bit i stands for vertex i; some rows keep bits of dead vertices.
        sub = BitsetSubproblem.from_adjacency(Subproblem.from_graph(g).adj, set(range(g.num_vertices)))
        sub.alive &= data.draw(st.integers(min_value=1, max_value=2**g.num_vertices - 1))
        assert len(sub.by_degree) == sub.size
        assert all(bits == sorted(bits) for bits in sub.by_degree)
        assert_degree_index_matches(sub, {v: len(nbrs) for v, nbrs in bitset_adjacency(sub).items()})


class TestBitPositions:
    def test_zero_has_none(self):
        assert bit_positions(0) == []

    @given(bits=st.sets(st.integers(0, 511), max_size=60), high=st.integers(200, 520))
    def test_ascending_over_several_rows(self, bits, high):
        # Masks of at least 200 bits span many of the per-byte-offset rows.
        mask = sum(1 << b for b in bits | {high})
        assert bit_positions(mask) == sorted(bits | {high})

    def test_narrow_after_wide(self):
        assert bit_positions(1 << 300 | 1) == [0, 300]
        assert bit_positions(0b1011) == [0, 1, 3]


class TestBitsetGraph:
    @given(g=random_graphs, data=st.data())
    def test_matches_the_set_builder(self, g, data):
        # Bit i stands for vertex labels[i]; the masks keep bits outside alive.
        n = g.num_vertices
        labels = sorted(data.draw(st.sets(st.integers(0, 999), min_size=n, max_size=n)))
        masks = [sum(1 << u for u in g.neighbors(v)) for v in range(n)]
        keep = data.draw(st.sets(st.integers(0, n - 1)))
        out = BitsetSubproblem(labels, masks, sum(1 << v for v in keep)).graph()
        adj = {labels[v]: {labels[u] for u in g.neighbors(v) & keep} for v in keep}
        assert out == graph_from_adjacency(adj)

    @given(
        g=st.builds(
            gnp_random,
            n=st.integers(min_value=1, max_value=80),
            p=st.floats(min_value=0.0, max_value=1.0),
            seed=st.integers(min_value=0, max_value=2**32),
        ),
        data=st.data(),
    )
    def test_wide_masks_with_stale_bits(self, g, data):
        # Label spaces of 1-80 bits, so a row's byte count is rarely a
        # multiple of anything; alive drops vertices whose bits stay in
        # the masks, and some dropped edges keep one side's bit.
        n = g.num_vertices
        labels = sorted(data.draw(st.sets(st.integers(0, 9999), min_size=n, max_size=n)))
        masks = [sum(1 << u for u in g.neighbors(v)) for v in range(n)]
        edges = sorted((u, v) for u in range(n) for v in g.neighbors(u))
        if edges:
            for u, v in data.draw(st.lists(st.sampled_from(edges), max_size=10)):
                masks[u] &= ~(1 << v)
        alive = sum(1 << v for v in data.draw(st.sets(st.integers(0, n - 1))))
        item = BitsetSubproblem(labels, masks, alive)
        assert item.graph() == graph_from_adjacency(bitset_adjacency(item))

    @given(g=random_graphs, data=st.data())
    def test_a_split_child_shares_the_parents_labels(self, g, data):
        # A parent with an anchor: anything but the root.
        adj = Subproblem.from_graph(g).adj
        members = data.draw(st.sets(st.integers(0, g.num_vertices - 1), min_size=1))
        parent = BitsetSubproblem.from_adjacency(adj, members, frozenset({999}))
        v = data.draw(st.sampled_from(bit_positions(parent.alive)))
        child = parent.split_at(v)
        assert child.labels is parent.labels
        nb = adj[parent.labels[v]] & members
        assert child.graph() == graph_from_adjacency({u: adj[u] & nb for u in nb})
        rest = members - {parent.labels[v]}
        assert parent.graph() == graph_from_adjacency({u: adj[u] & rest for u in rest})

    @given(g=random_graphs, data=st.data())
    def test_a_root_child_gets_its_own_labels(self, g, data):
        # The unanchored root, after removed vertices, whose bits stay
        # behind in the masks, and a removed edge; checked against the
        # same steps on a set root.
        sets = Subproblem.from_graph(g)
        members = data.draw(st.sets(st.integers(0, g.num_vertices - 1), min_size=1))
        root = BitsetSubproblem.from_adjacency(sets.adj, members)
        sets = Subproblem({u: sets.adj[u] & members for u in members})
        bits = bit_positions(root.alive)
        for dead in data.draw(st.sets(st.sampled_from(bits), max_size=len(bits) - 1)):
            root.alive ^= 1 << dead
            sets.remove_vertex(root.labels[dead])
        edges = [(i, j) for i in bit_positions(root.alive) for j in bit_positions(root.masks[i] & root.alive) if i < j]
        if edges:
            i, j = data.draw(st.sampled_from(edges))
            root.masks[i] &= ~(1 << j)
            root.masks[j] &= ~(1 << i)
            sets.adj[root.labels[i]].discard(root.labels[j])
            sets.adj[root.labels[j]].discard(root.labels[i])
        v = data.draw(st.sampled_from(bit_positions(root.alive)))
        nb = sorted(sets.adj[root.labels[v]])
        child = root.split_at(v)
        expected = sets.split_at(root.labels[v])
        assert child.labels == expected.labels == nb
        assert child.anchor == expected.anchor == {root.labels[v]}
        assert child.graph() == expected.graph()
        assert (child.masks, child.alive) == (expected.masks, expected.alive)

    def test_a_root_child_of_an_isolated_vertex_is_empty(self):
        root = BitsetSubproblem.from_adjacency({3: set(), 5: {9}, 9: {5}}, {3, 5, 9})
        child = root.split_at(0)
        assert (child.labels, child.masks, child.alive, child.size) == ([], [], 0, 0)
        assert child.anchor == {3} and child.graph() == Graph(0)
        assert root.graph() == graph_from_adjacency({5: {9}, 9: {5}})

    def test_no_live_vertex_is_the_empty_graph(self):
        assert BitsetSubproblem([], [], 0).graph() == Graph(0)
        assert BitsetSubproblem([3, 5, 9], [0b110, 0b101, 0b011], 0).graph() == Graph(0)

    def test_one_live_vertex_has_no_neighbors(self):
        # Its mask keeps the bits of both dead neighbors.
        out = BitsetSubproblem([3, 5, 9], [0b110, 0b101, 0b011], 0b010).graph()
        assert out.num_vertices == 1 and out.num_edges == 0 and out.label(0) == 5

    @pytest.mark.parametrize("width", [7, 8, 9, 63, 64, 65])
    def test_the_last_bit_of_every_width(self, width):
        # A complete graph on width bits with every other vertex alive, and
        # the top bit alive whatever its parity.
        full = (1 << width) - 1
        labels = [10 * i for i in range(width)]
        masks = [full ^ 1 << i for i in range(width)]
        alive = sum(1 << i for i in range(0, width, 2)) | 1 << width - 1
        out = BitsetSubproblem(labels, masks, alive).graph()
        live = [labels[i] for i in bit_positions(alive)]
        assert out == graph_from_adjacency({u: set(live) - {u} for u in live})
        assert out.label(out.num_vertices - 1) == labels[-1]


class TestPruneThreshold:
    """An edge survives the prune at bound b exactly when its endpoints
    share at least b - 1 neighbors, as every edge of a (b + 1)-clique does."""

    @staticmethod
    def centre_neighbors_after_prune(engine, clique_size, bound):
        # A clique on 0..clique_size-1 with two pendants on its centre 0,
        # which share no neighbor with it.
        n = clique_size + 2
        edges = [(u, v) for u in range(clique_size) for v in range(u + 1, clique_size)]
        sets = Subproblem.from_graph(Graph(n, edges + [(0, n - 2), (0, n - 1)]))
        if engine == "sets":
            sets.prune_low_overlap_edges(0, bound)
            return sets.adj[0]
        bits = BitsetSubproblem.from_adjacency(sets.adj, set(sets.adj))
        bits.prune_low_overlap_edges(0, bound)
        return bitset_adjacency(bits)[0]

    @pytest.mark.parametrize("engine", ["sets", "bits"])
    @pytest.mark.parametrize("bound", [2, 3, 4, 6])
    def test_a_clique_beating_the_bound_keeps_its_edges(self, engine, bound):
        assert self.centre_neighbors_after_prune(engine, bound + 1, bound) == set(range(1, bound + 1))

    @pytest.mark.parametrize("engine", ["sets", "bits"])
    @pytest.mark.parametrize("bound", [3, 4, 6])
    def test_a_clique_at_the_bound_loses_the_centres_edges(self, engine, bound):
        assert self.centre_neighbors_after_prune(engine, bound, bound) == set()


def cliques_of(adj: dict[int, set[int]]) -> list[frozenset[int]]:
    """Every nonempty clique of ``adj``, by brute force over vertex masks."""
    vertices = sorted(adj)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    nbrs = [sum(bit[u] for u in adj[v]) for v in vertices]
    is_clique = [True] * (1 << len(vertices))
    cliques = []
    for mask in range(1, 1 << len(vertices)):
        rest = mask & (mask - 1)  # mask without its lowest bit
        is_clique[mask] = is_clique[rest] and not rest & ~nbrs[(mask ^ rest).bit_length() - 1]
        if is_clique[mask]:
            cliques.append(frozenset(vertices[i] for i in bit_positions(mask)))
    return cliques


def holds(sub: Subproblem | BitsetSubproblem, clique: frozenset[int]) -> bool:
    """Whether ``clique`` is a clique of ``sub``."""
    adj = sub.adj if isinstance(sub, Subproblem) else bitset_adjacency(sub)
    return all(v in adj and clique - {v} <= adj[v] for v in clique)


class TestCliquesAboveTheBound:
    """Both engines keep every clique that beats the bound: through a
    reduce pass, and through a split followed by the driver's reduce of
    the remainder and of the neighborhood child."""

    @given(
        g=st.builds(
            gnp_random,
            n=st.integers(min_value=0, max_value=12),
            p=st.floats(min_value=0.0, max_value=1.0),
            seed=st.integers(min_value=0, max_value=2**32),
        ),
        seed=st.integers(min_value=0, max_value=2**32),
        limit=st.integers(min_value=1, max_value=12),
    )
    def test_every_clique_above_the_bound_survives(self, g, seed, limit):
        cliques = cliques_of(Subproblem.from_graph(g).adj)
        for bound in range(g.num_vertices + 2):
            above = [c for c in cliques if len(c) > bound]
            sets = Subproblem.from_graph(g)
            bits = BitsetSubproblem.from_adjacency(sets.adj, set(sets.adj))
            for sub in (sets, bits):
                rng = random.Random(seed)
                sub.reduce(bound, rng)
                assert all(holds(sub, c) for c in above)
                if not sub.size:
                    continue
                at = _choose_split_vertex(sub, limit)
                v = at if sub is sets else sub.labels[at]
                child = sub.split_at(at)
                sub.reduce(bound, rng)
                child.reduce(max(bound - 1, 0), rng)  # the child's anchor is {v}
                for c in above:
                    assert holds(child, c - {v}) if v in c else holds(sub, c)


class TestCoreBound:
    """Between driver steps every item is a core at its ``core_bound``:
    reduce passes at bounds that never fall, each followed by splits, leave
    each live vertex with at least that many neighbors, in both engines alike."""

    @given(
        g=st.builds(
            gnp_random,
            n=st.integers(min_value=0, max_value=12),
            p=st.floats(min_value=0.0, max_value=1.0),
            seed=st.integers(min_value=0, max_value=2**32),
        ),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_every_live_vertex_meets_the_core_bound(self, g, seed, data):
        sets = Subproblem.from_graph(g)
        bits = BitsetSubproblem.from_adjacency(sets.adj, set(sets.adj))
        rng_s, rng_b = random.Random(seed), random.Random(seed)

        def check():
            assert sorted(sets.members()) == list(bits.members())
            assert bitset_adjacency(bits) == sets.adj
            for sub, adj in ((sets, sets.adj), (bits, bitset_adjacency(bits))):
                assert all(len(nbrs) >= sub.core_bound for nbrs in adj.values())

        bound = 0
        for rise, splits in data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=6)):
            bound += rise
            sets.reduce(bound, rng_s)
            bits.reduce(bound, rng_b)
            check()
            for _ in range(splits):
                if not sets.size:
                    break
                v = data.draw(st.sampled_from(sorted(sets.adj)))
                sets.split_at(v)
                bits.split_at(bits.labels.index(v))
                check()
