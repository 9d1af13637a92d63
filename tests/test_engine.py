import functools
import itertools
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeforce.butterfly import build_butterfly
from edgeforce.constructions import construct_edge_forcing
from edgeforce.engine import (closure, forces_all, is_edge_forcing_set,
                              is_zero_forcing_set, matching_endpoints)
from edgeforce.graph import from_edges
from edgeforce.kernels import extend_closure, run_closure

from conftest import (closure_sequential, complete_graph, cycle_graph,
                      path_graph, random_graph, reference_closure)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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

    def test_boolean_next_to_its_equal_int(self):
        # False == 0, so deduplicating first would keep 0 alone
        with pytest.raises(ValueError,
                           match=r"^vertex False is not an integer in"):
            closure(path_graph(3), [0, False])

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

    def test_efs_refuses_the_first_bad_endpoint_in_edge_order(self):
        # the matching passes (True and False are 1 and 0 there); an
        # endpoint set that is not all plain ints then goes through
        # `forces_all`, which meets the endpoints in edge order and
        # refuses the first that is not an integer
        for edges, bad in [
                ([(True, 2), (False, 4)], "True"),
                ([(True, 2)], "True"),
                # matched as (1, 2), then met in edge order: 2 passes
                ([(2, True)], "True"),
                ([(3, 4), (True, 2)], "True"),
                # (1, 2.0) is a real edge, but 2.0 is not a vertex
                ([(3, 4), (1, 2.0)], "2.0")]:
            with pytest.raises(ValueError, match=(
                    rf"^vertex {bad} is not an integer in \[0, 5\)$")):
                is_edge_forcing_set(cycle_graph(5), edges)

    @pytest.mark.parametrize("edges, diagnostic", [
        # the matching is checked first, whatever the endpoint types
        ([(0, 2), (True, 2)], "non-edge: (0, 2) is not an edge of the graph"),
        ([(True, 2), (0, 2)], "non-edge: (0, 2) is not an edge of the graph"),
        ([(True, 2), (1, 0)],
         "shares endpoint: vertex 1 appears in two edges"),
    ])
    def test_efs_diagnoses_before_it_checks_endpoint_types(self, edges,
                                                           diagnostic):
        diag = []
        assert not is_edge_forcing_set(cycle_graph(5), edges,
                                       diagnostics=diag)
        assert diag == [diagnostic]

    @pytest.mark.parametrize("g, edges", [
        (cycle_graph(5), [(np.int64(0), np.int64(1))]),
        (cycle_graph(5), [(np.int64(0), 1), (2, np.int32(3))]),
        (cycle_graph(5), [(0, 1)]),
        (cycle_graph(5), []),
        (complete_graph(4), [(np.int64(0), np.int64(1))]),
        (complete_graph(4), [(0, 1)]),
    ])
    def test_efs_numpy_endpoints_take_the_checked_path(self, g, edges):
        # numpy endpoints go through `forces_all`, plain ones straight to
        # the kernel: both answer as the closure of the endpoint set does
        points = {int(v) for e in edges for v in e}
        assert is_edge_forcing_set(g, edges) == (
            closure_sequential(g, points) == frozenset(range(g.vertex_count)))

    def test_efs_numpy_bool_endpoint_is_not_an_index(self):
        with pytest.raises(TypeError, match="tuple indices must be integers"):
            is_edge_forcing_set(cycle_graph(5), [(np.True_, 2)])

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

    def test_replay_checks_under_optimize(self):
        # `python -O` strips assert statements, not a raised AssertionError
        code = """if True:
            from edgeforce.engine import ForceEvent, ForcingTrace
            from edgeforce.graph import from_edges
            p4 = from_edges(4, [(0, 1), (1, 2), (2, 3)])
            bogus = ForcingTrace(frozenset({0}),
                                 (ForceEvent(1, 3, 0), ForceEvent(1, 0, 0)))
            try:
                print(sorted(bogus.replay(p4)))
            except AssertionError as exc:
                print("AssertionError:", exc)
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "AssertionError: forcer 3 not black\n"

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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_events_of_an_extension(self, data):
        # extending cl(S) by T schedules as closing cl(S) | T afresh: the
        # path of the searches' prefix and leaf closures and the greedy
        # completion
        n = data.draw(st.integers(2, 14))
        size = n + data.draw(st.integers(0, 3))
        pool = list(itertools.combinations(range(n), 2))
        g = from_edges(size, data.draw(st.lists(st.sampled_from(pool),
                                                unique=True)))
        s = data.draw(st.sets(st.integers(0, size - 1)))
        t = data.draw(st.sets(st.integers(0, size - 1)))
        adj = g.adjacency
        black, counts = bytearray(size), [len(a) for a in adj]
        extend_closure(adj, black, counts, sorted(s))
        closed = set(itertools.compress(range(size), black))
        events = extend_closure(adj, black, counts, sorted(t))
        want_final, want_events = reference_closure(g, closed | t)
        assert list(zip(*events)) == want_events
        assert set(itertools.compress(range(size), black)) == want_final
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

    @pytest.mark.parametrize("r", [6, 7, 8])
    def test_butterfly_witness_less_endpoints(self, r):
        # hundreds of forces in a few rounds, most closures stalling
        # a few vertices short of all of BF(r)
        g = build_butterfly(r)
        witness = sorted(butterfly_witness_endpoints(r))
        rng = random.Random(r)
        for _ in range(3):
            initial = set(witness) - set(rng.sample(witness, 3))
            final, *arrays = run_closure(g, initial)
            want_final, want_events = reference_closure(g, initial)
            assert set(itertools.compress(range(g.vertex_count), final)) \
                == want_final
            assert list(zip(*(a.tolist() for a in arrays))) == want_events
