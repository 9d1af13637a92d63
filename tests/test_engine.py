import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeforce.butterfly import build_butterfly
from edgeforce.constructions import construct_edge_forcing
from edgeforce.engine import (closure, closure_sequential, forces_all,
                              is_edge_forcing_set, is_zero_forcing_set,
                              matching_endpoints)
from edgeforce.graph import from_edges
from edgeforce.kernels import extend_closure, run_closure

from conftest import (complete_graph, cycle_graph, path_graph, random_graph,
                      reference_closure)


class TestClosure:
    def test_path_propagates(self):
        result = closure(path_graph(4), {0})
        assert result.final == frozenset(range(4))
        assert [(e.round, e.forcer, e.forced) for e in result.trace.events] == [
            (1, 0, 1), (2, 1, 2), (3, 2, 3)]

    def test_cycle_blocked(self):
        result = closure(cycle_graph(4), {0})
        assert result.final == frozenset({0})
        assert result.trace.events == ()

    def test_bf3_construction_forces_everything(self):
        g = build_butterfly(3)
        endpoints = matching_endpoints(construct_edge_forcing(3))
        assert closure(g, endpoints).final == frozenset(range(32))

    def test_empty_initial(self):
        assert closure(path_graph(3), set()).final == frozenset()

    def test_isolated_vertex_never_forced(self):
        g = from_edges(3, [(0, 1)])
        assert closure(g, {0}).final == frozenset({0, 1})

    def test_out_of_range_initial(self):
        with pytest.raises(ValueError):
            closure(path_graph(3), {5})

    def test_both_endpoints_can_force_same_round(self):
        # an edge may force two vertices at once
        result = closure(path_graph(4), {1, 2})
        rounds = {e.forced: e.round for e in result.trace.events}
        assert rounds == {0: 1, 3: 1}


class TestMembership:
    def test_p5_endpoint(self):
        assert is_zero_forcing_set(path_graph(5), {0})

    def test_c4_single_fails(self):
        assert not is_zero_forcing_set(cycle_graph(4), {0})

    def test_c4_adjacent_pair(self):
        assert is_zero_forcing_set(cycle_graph(4), {0, 1})

    def test_efs_c4_edge(self):
        assert is_edge_forcing_set(cycle_graph(4), [(0, 1)])

    def test_efs_k4_edge_fails(self):
        assert not is_edge_forcing_set(complete_graph(4), [(0, 1)])

    def test_efs_diagnostics(self):
        diag = []
        assert not is_edge_forcing_set(path_graph(4), [(0, 1), (1, 2)],
                                       diagnostics=diag)
        assert "shares endpoint" in diag[0]
        diag = []
        assert not is_edge_forcing_set(path_graph(4), [(0, 2)],
                                       diagnostics=diag)
        assert "non-edge" in diag[0]

    def test_forces_all_matches_membership(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), 0.4)
            s = {v for v in range(g.vertex_count) if rng.random() < 0.4}
            assert forces_all(g, s) == (len(closure(g, s).final)
                                        == g.vertex_count)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_forces_all_is_sequential_cover(self, data):
        # edges may be empty, trailing vertices are always isolated, and
        # the set may be empty or hold numpy integers
        n = data.draw(st.integers(2, 10))
        size = n + data.draw(st.integers(0, 3))
        pool = list(itertools.combinations(range(n), 2))
        g = from_edges(size, data.draw(st.lists(st.sampled_from(pool),
                                                unique=True)))
        s = data.draw(st.sets(st.integers(0, size - 1)))
        if data.draw(st.booleans()):
            s = {np.int64(v) for v in s}
        assert forces_all(g, s) == (
            closure_sequential(g, s) == frozenset(range(size)))

    @pytest.mark.parametrize("vertex", [-1, 2, 1.0, "0", True, np.True_,
                                        np.float64(0.0)])
    def test_forces_all_rejects_non_vertices(self, vertex):
        with pytest.raises(ValueError):
            forces_all(path_graph(2), [vertex])


class TestScheduleProperties:
    def test_schedule_independence(self):
        rng = random.Random(123)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
            s = {v for v in range(g.vertex_count) if rng.random() < 0.4}
            reference = closure(g, s).final
            assert closure_sequential(g, s, rng=rng) == reference

    def test_monotonicity(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9), 0.4)
            small = {v for v in range(g.vertex_count) if rng.random() < 0.3}
            big = small | {v for v in range(g.vertex_count)
                           if rng.random() < 0.3}
            assert closure(g, small).final <= closure(g, big).final

    def test_idempotence(self):
        rng = random.Random(8)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9), 0.4)
            s = {v for v in range(g.vertex_count) if rng.random() < 0.3}
            once = closure(g, s).final
            assert closure(g, once).final == once

    def test_trace_replay(self):
        rng = random.Random(9)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9), 0.4)
            s = frozenset(v for v in range(g.vertex_count)
                          if rng.random() < 0.3)
            result = closure(g, s)
            assert result.trace.replay(g) == result.final

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_extending_a_closed_state(self, data):
        # cl(S | T) = cl(cl(S) | T): close S, blacken T in place
        n = data.draw(st.integers(2, 12))
        size = n + data.draw(st.integers(0, 3))
        pool = list(itertools.combinations(range(n), 2))
        g = from_edges(size, data.draw(st.lists(st.sampled_from(pool),
                                                unique=True)))
        s = data.draw(st.sets(st.integers(0, size - 1)))
        t = data.draw(st.sets(st.integers(0, size - 1)))
        adj = g.adjacency
        black, counts = bytearray(size), [len(a) for a in adj]
        events = extend_closure(adj, black, counts, sorted(s))
        final, *arrays = run_closure(g, s)
        assert black == final
        assert list(events) == [a.tolist() for a in arrays]
        extend_closure(adj, black, counts, sorted(t))
        final = closure(g, s | t).final
        assert set(itertools.compress(range(size), black)) == final
        assert counts == [sum(not black[u] for u in a) for a in adj]


@functools.lru_cache(maxsize=None)
def butterfly_witness_endpoints(r):
    return matching_endpoints(construct_edge_forcing(r))


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_reference_schedule(self, data):
        if data.draw(st.booleans()):
            # a witness less a few endpoints: long, partly stalled closures
            r = data.draw(st.integers(3, 5))
            g = build_butterfly(r)
            witness = sorted(butterfly_witness_endpoints(r))
            initial = set(witness) - data.draw(st.sets(st.sampled_from(witness),
                                                       max_size=4))
        elif data.draw(st.booleans()):
            # long chains as in the benchmark: P_n or P_n x K_2, renumbered,
            # closed from one end, plus a few black vertices anywhere
            n = data.draw(st.integers(1, 300))
            ladder = data.draw(st.booleans())
            size = 2 * n if ladder else n
            perm = data.draw(st.permutations(range(size)))
            edges = [(i, i + 1) for i in range(n - 1)]
            if ladder:
                edges += [(n + i, n + i + 1) for i in range(n - 1)]
                edges += [(i, n + i) for i in range(n)]
            g = from_edges(size, [(perm[u], perm[v]) for u, v in edges])
            initial = {perm[0], perm[n]} if ladder else {perm[0]}
            initial |= data.draw(st.sets(st.integers(0, size - 1),
                                         max_size=3))
        else:
            # edges may be empty, and trailing vertices are always isolated
            n = data.draw(st.integers(2, 12))
            size = n + data.draw(st.integers(0, 3))
            pool = list(itertools.combinations(range(n), 2))
            g = from_edges(size, data.draw(st.lists(st.sampled_from(pool),
                                                    unique=True)))
            initial = data.draw(st.sets(st.integers(0, size - 1)))
        final, ev_round, ev_forcer, ev_forced = run_closure(g, initial)
        want_final, want_events = reference_closure(g, initial)
        assert type(final) is bytearray and len(final) == g.vertex_count
        assert set(itertools.compress(range(g.vertex_count), final)) \
            == want_final
        assert all(a.dtype == np.int32
                   for a in (ev_round, ev_forcer, ev_forced))
        assert list(zip(ev_round.tolist(), ev_forcer.tolist(),
                        ev_forced.tolist())) == want_events
        # the order of the vertices does not matter, and a new state is
        # returned each call
        again = run_closure(g, sorted(initial, reverse=True))
        assert again[0] == final and again[0] is not final
        for got, want in zip(again[1:], (ev_round, ev_forcer, ev_forced)):
            assert got.tolist() == want.tolist()
