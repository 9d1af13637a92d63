import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeforce.certificates import (emit_certificate, reduction_certificate,
                                    verify_certificate)
from edgeforce.engine import is_edge_forcing_set, is_zero_forcing_set
from edgeforce.graph import from_edges, normalize_edge
from edgeforce.reduction import (build_gbar, lift_zero_forcing,
                                 normalize_and_project)
from edgeforce.solver import NotAFort, min_edge_forcing, min_zero_forcing

from conftest import complete_graph, cycle_graph, path_graph, random_graph


class TestBuildGbar:
    def test_single_vertex_gives_k2(self):
        m = build_gbar(from_edges(1, []))
        assert m.lifted.vertex_count == 2
        assert m.lifted.edges == ((0, 1),)

    def test_k2(self):
        m = build_gbar(from_edges(2, [(0, 1)]))
        assert m.lifted.vertex_count == 4 and m.lifted.edge_count == 5
        # uv, uu', vv', (v,u'), (u,v') and no primed-primed edge
        assert set(m.lifted.edges) == {(0, 1), (0, 2), (1, 3), (1, 2), (0, 3)}
        assert (2, 3) not in m.lifted.edge_index

    def test_c4_counts(self):
        g = cycle_graph(4)
        m = build_gbar(g)
        assert m.lifted.vertex_count == 8
        assert m.lifted.edge_count == 3 * 4 + 4

    def test_counting_formula_random(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8), 0.5)
            m = build_gbar(g)
            assert m.lifted.vertex_count == 2 * g.vertex_count
            assert m.lifted.edge_count == 3 * g.edge_count + g.vertex_count

    def test_edge_classes(self):
        g = path_graph(3)
        n = g.vertex_count
        m = build_gbar(g)
        originals = set(g.edges)
        twins = {(x, x + n) for x in range(n)}
        crossed = {e for x, y in g.edges for e in ((y, x + n), (x, y + n))}
        assert len(crossed) == 4
        assert set(m.lifted.edges) == originals | twins | crossed
        assert m.lifted.edge_count == sum(map(len, (originals, twins, crossed)))
        # the class follows from the indices, as normalize_and_project reads it
        for a, b in m.lifted.edges:
            assert (a, b) in (originals if b < n else
                              twins if b == a + n else crossed)
        # twin edges form a perfect matching of the lifted graph
        assert len({v for e in twins for v in e}) == m.lifted.vertex_count

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
        assert build_gbar(g).lifted == from_edges(2 * n, lifted)


class TestLift:
    def test_k2_lift_forces(self):
        m = build_gbar(from_edges(2, [(0, 1)]))
        lifted = lift_zero_forcing(m, {0})
        assert lifted == frozenset({(0, 2)})
        assert is_edge_forcing_set(m.lifted, lifted)

    def test_p3_lift(self):
        m = build_gbar(path_graph(3))
        assert is_edge_forcing_set(m.lifted, lift_zero_forcing(m, {0}))

    def test_empty(self):
        m = build_gbar(path_graph(3))
        assert lift_zero_forcing(m, set()) == frozenset()

    def test_rejects_out_of_range(self):
        m = build_gbar(path_graph(3))
        with pytest.raises(ValueError):
            lift_zero_forcing(m, {7})


class TestProject:
    def test_double_prime_replacement(self):
        m = build_gbar(from_edges(2, [(0, 1)]))
        # (u, v') with u=0, v'=3; primed endpoint v=1 is tried first
        projected = normalize_and_project(m, {(0, 3)})
        assert projected == frozenset({1})
        assert is_zero_forcing_set(m.base, projected)

    def test_base_edge_replacement_tie_break(self):
        m = build_gbar(from_edges(2, [(0, 1)]))
        assert normalize_and_project(m, {(0, 1)}) == frozenset({0})

    def test_twin_edges_unchanged(self):
        m = build_gbar(path_graph(3))
        assert normalize_and_project(m, {(0, 3), (2, 5)}) == frozenset({0, 2})

    def test_rejects_non_matching(self):
        m = build_gbar(path_graph(3))
        with pytest.raises(ValueError, match="not a matching"):
            normalize_and_project(m, {(0, 1), (1, 2)})

    def test_candidate_guard(self):
        # 21 disjoint base edges; each E'' edge (1, 0') forces its own copy
        # of the lifted K2, and offers two candidates: 2**21 in all
        k = 21
        m = build_gbar(from_edges(2 * k, [(2 * i, 2 * i + 1)
                                          for i in range(k)]))
        matching = [normalize_edge(2 * i + 1, m.prime(2 * i))
                    for i in range(k)]
        assert is_edge_forcing_set(m.lifted, matching)
        with pytest.raises(ValueError, match="2097152 twin-replacement"):
            normalize_and_project(m, matching)

    def test_cardinality_preserved(self):
        rng = random.Random(14)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            m = build_gbar(g)
            # draw a random matching of the lifted graph
            pool = list(m.lifted.edges)
            rng.shuffle(pool)
            used, matching = set(), []
            for e in pool:
                if not (set(e) & used) and rng.random() < 0.5:
                    matching.append(e)
                    used.update(e)
            projected = normalize_and_project(m, matching)
            assert len(projected) == len(matching)


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
        rng = random.Random(23)
        for _ in range(15):
            g = random_graph(rng, rng.randint(1, 6), 0.4)
            m = build_gbar(g)
            zf, s = min_zero_forcing(g)
            lifted = lift_zero_forcing(m, s)
            assert is_edge_forcing_set(m.lifted, lifted)
            verdict = min_edge_forcing(m.lifted, max_edges=100)
            assert verdict.exists and verdict.value == zf
            projected = normalize_and_project(m, verdict.witness)
            assert len(projected) == verdict.value
            assert is_zero_forcing_set(g, projected)
