import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeforce.butterfly import build_butterfly
from edgeforce.constructions import construct_edge_forcing
from edgeforce.engine import is_edge_forcing_set
from edgeforce.graph import (GraphError, from_edges, is_matching,
                             matching_diagnostic, matchings_of_size,
                             normalize_edge)

from conftest import complete_graph, cycle_graph, path_graph, random_graph


def naive_matching_count(g, k):
    """Independent oracle: all k-subsets of edges, checked for disjointness."""
    count = 0
    for combo in itertools.combinations(g.edges, k):
        endpoints = [v for e in combo for v in e]
        if len(set(endpoints)) == 2 * k:
            count += 1
    return count


class TestFromEdges:
    def test_single_vertex(self):
        g = from_edges(1, [])
        assert g.vertex_count == 1
        assert g.edges == ()

    def test_path(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_cycle(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(g.degree(v) == 2 for v in range(4))

    def test_orientation_and_order_irrelevant(self):
        a = from_edges(4, [(0, 1), (2, 3), (1, 2)])
        b = from_edges(4, [(2, 1), (1, 0), (3, 2)])
        assert a == b
        assert a.edges == ((0, 1), (1, 2), (2, 3))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            from_edges(2, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            from_edges(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            from_edges(2, [(0, 2)])

    def test_adjacency_sorted_and_symmetric(self):
        g = from_edges(5, [(3, 1), (1, 0), (4, 1), (2, 4)])
        for v, nbrs in enumerate(g.adjacency):
            assert list(nbrs) == sorted(nbrs)
            for u in nbrs:
                assert v in g.adjacency[u]

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_csr_lists_adjacency(self, data):
        n = data.draw(st.integers(2, 10))
        pool = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True))
        # trailing isolated vertices end the CSR with empty rows
        g = from_edges(n + data.draw(st.integers(0, 3)), edges)
        indptr, indices = g.csr
        assert len(indptr) == g.vertex_count + 1
        assert indptr[0] == 0 and indptr[-1] == len(indices) == 2 * len(edges)
        assert [indices[indptr[v]:indptr[v + 1]]
                for v in range(g.vertex_count)] == list(g.adjacency)
        # the same (src, dst) pairs, CSR lists them sorted
        pairs = sorted(zip(*g.directed_pairs))
        assert pairs == [(v, u) for v, a in enumerate(g.adjacency) for u in a]

    def test_json_round_trip(self):
        g = from_edges(5, [(0, 1), (2, 3), (1, 4)])
        doc = g.to_json_dict()
        assert from_edges(doc["n"], [tuple(e) for e in doc["edges"]]) == g


def edge_index_diagnostic(g, pairs):
    """matching_diagnostic as a lookup in the graph's edge dict."""
    used = set()
    for u, v in pairs:
        e = normalize_edge(u, v)
        if e not in g.edge_index:
            return f"non-edge: {e} is not an edge of the graph"
        if e[0] in used or e[1] in used:
            shared = e[0] if e[0] in used else e[1]
            return f"shares endpoint: vertex {shared} appears in two edges"
        used.update(e)
    return None


class TestIsMatching:
    def test_empty(self):
        assert is_matching(path_graph(3), [])

    def test_shared_vertex(self):
        g = path_graph(3)
        assert not is_matching(g, [(0, 1), (1, 2)])
        assert "shares endpoint" in matching_diagnostic(g, [(0, 1), (1, 2)])

    def test_disjoint_pair(self):
        assert is_matching(cycle_graph(4), [(0, 1), (2, 3)])

    def test_non_edge_diagnostic(self):
        g = path_graph(3)
        assert not is_matching(g, [(0, 2)])
        assert "non-edge" in matching_diagnostic(g, [(0, 2)])

    def test_edge_forcing_check_builds_no_edge_index(self):
        g = build_butterfly(9)
        assert is_edge_forcing_set(g, construct_edge_forcing(9))
        assert "edge_index" not in vars(g)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_diagnostic_matches_edge_index_oracle(self, data):
        # pairs may be negative, out of range, self-loops or repeated;
        # trailing vertices are isolated
        n = data.draw(st.integers(2, 8))
        size = n + data.draw(st.integers(0, 2))
        pool = list(itertools.combinations(range(n), 2))
        g = from_edges(size, data.draw(st.lists(st.sampled_from(pool),
                                                unique=True)))
        vertex = st.integers(-3, size + 2)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=5))
        if pairs and data.draw(st.booleans()):
            pairs.append(pairs[0])
        assert matching_diagnostic(g, pairs) == edge_index_diagnostic(
            g, pairs)


class TestMatchingsOfSize:
    def test_c4_singletons(self):
        assert len(list(matchings_of_size(cycle_graph(4), 1))) == 4

    def test_c4_perfect(self):
        got = list(matchings_of_size(cycle_graph(4), 2))
        assert got == [frozenset({(0, 1), (2, 3)}), frozenset({(0, 3), (1, 2)})]

    def test_k4_pairs(self):
        k4 = complete_graph(4)
        assert len(list(matchings_of_size(k4, 2))) == naive_matching_count(k4, 2) == 3

    def test_too_large_is_empty(self):
        assert list(matchings_of_size(path_graph(3), 2)) == []

    def test_size_zero(self):
        assert list(matchings_of_size(path_graph(3), 0)) == [frozenset()]

    def test_lexicographic_order(self):
        g = complete_graph(4)
        for k in (1, 2):
            ids = [sorted(g.edge_index[e] for e in m)
                   for m in matchings_of_size(g, k)]
            assert ids == sorted(ids)

    def test_counts_match_naive_enumeration(self):
        rng = random.Random(42)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
            for k in range(0, g.vertex_count // 2 + 2):
                got = sum(1 for _ in matchings_of_size(g, k))
                assert got == naive_matching_count(g, k)

    def test_determinism(self):
        rng = random.Random(3)
        g = random_graph(rng, 8, 0.5)
        assert list(matchings_of_size(g, 3)) == list(matchings_of_size(g, 3))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_canonicalization_is_permutation_invariant(data):
    n = data.draw(st.integers(2, 7))
    pool = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    shuffled = data.draw(st.permutations(edges))
    flipped = [(v, u) if data.draw(st.booleans()) else (u, v)
               for u, v in shuffled]
    assert from_edges(n, edges) == from_edges(n, flipped)
