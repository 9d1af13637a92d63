import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeforce.certificates import (emit_certificate, reduction_certificate,
                                    verify_certificate)
from edgeforce.engine import is_edge_forcing_set, is_zero_forcing_set
from edgeforce.graph import from_edges
from edgeforce.reduction import (build_gbar, lift_zero_forcing,
                                 normalize_and_project)
from edgeforce.solver import NotAFort, min_edge_forcing, min_zero_forcing

from conftest import complete_graph, cycle_graph, path_graph, random_graph


class TestBuildGbar:
    def test_single_vertex_gives_k2(self):
        m = build_gbar(from_edges(1, []))
        assert m.vertex_count == 2
        assert m.edges == ((0, 1),)

    def test_k2(self):
        m = build_gbar(from_edges(2, [(0, 1)]))
        assert m.vertex_count == 4 and m.edge_count == 5
        # uv, uu', vv', (v,u'), (u,v') and no primed-primed edge
        assert set(m.edges) == {(0, 1), (0, 2), (1, 3), (1, 2), (0, 3)}
        assert (2, 3) not in m.edge_index

    def test_c4_counts(self):
        g = cycle_graph(4)
        m = build_gbar(g)
        assert m.vertex_count == 8
        assert m.edge_count == 3 * 4 + 4

    def test_counting_formula_random(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            m = build_gbar(g)
            assert m.vertex_count == 2 * g.vertex_count
            assert m.edge_count == 3 * g.edge_count + g.vertex_count

    def test_edge_classes(self):
        g = path_graph(3)
        n = g.vertex_count
        m = build_gbar(g)
        originals = set(g.edges)
        twins = {(x, x + n) for x in range(n)}
        crossed = {e for x, y in g.edges for e in ((y, x + n), (x, y + n))}
        assert len(crossed) == 4
        assert set(m.edges) == originals | twins | crossed
        assert m.edge_count == sum(map(len, (originals, twins, crossed)))
        # the class follows from the indices (reduction's module docstring)
        for a, b in m.edges:
            assert (a, b) in (originals if b < n else
                              twins if b == a + n else crossed)
        # twin edges form a perfect matching of the lifted graph
        assert len({v for e in twins for v in e}) == m.vertex_count

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_edges_are_canonical(self, data):
        # edgeless bases and the empty graph included
        n = data.draw(st.integers(0, 8))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]))
        g = from_edges(n, edges)
        lifted = [*edges, *((x, x + n) for x in range(n))]
        lifted += [e for x, y in edges for e in ((y, x + n), (x, y + n))]
        assert build_gbar(g) == from_edges(2 * n, lifted)


class TestLift:
    def test_k2_lift_forces(self):
        m = build_gbar(from_edges(2, [(0, 1)]))
        lifted = lift_zero_forcing(m, {0})
        assert lifted == frozenset({(0, 2)})
        assert is_edge_forcing_set(m, lifted)

    def test_p3_lift(self):
        m = build_gbar(path_graph(3))
        assert is_edge_forcing_set(m, lift_zero_forcing(m, {0}))

    def test_empty(self):
        m = build_gbar(path_graph(3))
        assert lift_zero_forcing(m, set()) == frozenset()

    def test_rejects_out_of_range(self):
        m = build_gbar(path_graph(3))
        with pytest.raises(ValueError):
            lift_zero_forcing(m, {7})

    @pytest.mark.parametrize("vertex", [True, False, 1.0, "0"])
    def test_rejects_non_vertices(self, vertex):
        # True once lifted to the edge (True, 4), as if it were vertex 1
        m = build_gbar(path_graph(3))
        with pytest.raises(ValueError) as exc:
            lift_zero_forcing(m, {vertex})
        assert str(exc.value) == f"vertex {vertex!r} not in the base graph"


class TestProject:
    def test_twin_edges_unchanged(self):
        m = build_gbar(path_graph(3))
        assert normalize_and_project(m, {(0, 3), (2, 5)}) == frozenset({0, 2})

    def test_rejects_non_twin_edges(self):
        # E edges (0,1), (1,2) and E'' edges (1,3), (0,4), (2,4) of the
        # lifted P3 project to no base vertex, nor does a loop, a pair
        # outside the lifted graph or a non-integer endpoint; the refusal
        # names the edge
        m = build_gbar(path_graph(3))
        for edge in [(0, 1), (1, 2), (1, 3), (0, 4), (2, 4), (1, 1), (3, 6),
                     (-1, 2), (True, 4), (1, 4.0)]:
            with pytest.raises(ValueError) as exc:
                normalize_and_project(m, [(0, 3), edge])
            assert str(exc.value) == (
                f"edge {edge} is not a twin edge (v, v + 3)")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_the_proven_maps_on_relabelled_graphs(self, data):
        # projection inverts the lift, and a lifted S forces the lifted
        # graph exactly when S forces G, for every subset S of V
        n = data.draw(st.integers(1, 7))
        pool = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True)
                          if pool else st.just([]))
        label = data.draw(st.permutations(range(n)))
        g = from_edges(n, [(label[u], label[v]) for u, v in edges])
        m = build_gbar(g)
        for k in range(n + 1):
            for s in map(frozenset, itertools.combinations(range(n), k)):
                lifted = lift_zero_forcing(m, s)
                assert normalize_and_project(m, lifted) == s
                assert (is_edge_forcing_set(m, lifted)
                        is is_zero_forcing_set(g, s))


class TestEquivalence:
    @pytest.mark.parametrize("g", [path_graph(3), cycle_graph(4),
                                   complete_graph(4)])
    def test_named_graphs(self, g):
        assert reduction_certificate(g).claim["equal"]

    def test_lifted_fort_refusal_names_its_list(self):
        with pytest.raises(NotAFort) as exc:
            reduction_certificate(cycle_graph(5),
                                  lifted_forts=[list(range(10)), [0]])
        assert str(exc.value) == (
            "lifted_forts[1] is not a fort: a vertex outside it has exactly "
            "one neighbor in it")

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_proven_inequality_on_relabelled_graphs(self, data):
        # the gadget proves ef(lifted) <= Z(G) only; `equal` reports
        # whether the two numbers meet, and the certificate verifies
        n = data.draw(st.integers(3, 7))
        pool = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True,
                                   max_size=12))
        label = data.draw(st.permutations(range(n)))
        g = from_edges(n, [(label[u], label[v]) for u, v in edges])
        cert = reduction_certificate(g)
        zf = cert.claim["zero_forcing_number"]
        ef = cert.claim["lifted_edge_forcing_number"]
        assert ef is not None and ef <= zf
        assert cert.claim["equal"] is (ef == zf)
        assert verify_certificate(emit_certificate(cert))[0] is True

    def test_witnesses_round_trip(self):
        # what the gadget proves: Z(G)'s witness lifts to a forcing twin
        # matching of the same size, so ef(lifted) <= Z(G), and projection
        # gives the witness back; `equal` reports whether the numbers meet
        rng = random.Random(23)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 6), 0.4)
            m = build_gbar(g)
            s = min_zero_forcing(g).witness
            zf = len(s)
            lifted = lift_zero_forcing(m, s)
            assert len(lifted) == zf
            assert is_edge_forcing_set(m, lifted)
            verdict = min_edge_forcing(m, max_edges=100)
            assert verdict.exists and verdict.value <= zf
            assert normalize_and_project(m, lifted) == s
            assert reduction_certificate(g).claim["equal"] is (
                verdict.value == zf)
