import random

import pytest

from edgeforce.butterfly import (binding_diamonds, build_butterfly,
                                 vertex_coord, vertex_index)
from edgeforce.certificates import bf2_nonexistence_counts
from edgeforce.constructions import (ConstructionError,
                                     construct_edge_forcing, find_obstructions,
                                     known_bounds, recursive_upper,
                                     structural_lower_bound,
                                     zero_forcing_upper_reference)
from edgeforce.engine import closure, is_edge_forcing_set, matching_endpoints
from edgeforce.graph import is_matching, normalize_edge

from conftest import cycle_graph


class TestStructuralLowerBound:
    def test_bf3(self):
        value, family = structural_lower_bound(build_butterfly(3))
        assert value == 8
        seen = set()
        for o in family:
            for e in o.cycle_edges():
                assert e not in seen
                seen.add(e)

    def test_bf4(self):
        assert structural_lower_bound(build_butterfly(4))[0] == 16

    def test_c4(self):
        # two obstructions sharing edges; only one can be kept
        g = cycle_graph(4)
        assert len(find_obstructions(g)) == 2
        assert structural_lower_bound(g)[0] == 1

    def test_no_obstructions(self):
        from conftest import complete_graph
        assert structural_lower_bound(complete_graph(4)) == (0, [])

    def test_obstruction_shape(self):
        g = build_butterfly(3)
        for o in find_obstructions(g):
            x, y = o.blocked_pair
            assert g.degree(x) == g.degree(y) == 2
            assert g.adjacency[x] == g.adjacency[y]

    def test_matches_binding_diamonds_on_butterflies(self):
        for r in (2, 3, 4):
            g = build_butterfly(r)
            obs_cycles = {frozenset(o.cycle_edges()) for o in find_obstructions(g)}
            diamond_cycles = {frozenset(d.cycle_edges())
                              for d in binding_diamonds(r)}
            assert obs_cycles == diamond_cycles


class TestBF2Nonexistence:
    def test_exhaustion_counts(self):
        counts = bf2_nonexistence_counts(build_butterfly(2))
        assert counts == {1: 16, 2: 88, 3: 192, 4: 136}


class TestConstructions:
    def test_bf3_witness(self):
        w = construct_edge_forcing(3)
        assert len(w) == 8
        for row in (1, 3, 5, 7):
            assert normalize_edge(vertex_index(3, row, 0),
                                  vertex_index(3, row, 1)) in w
        # one edge in each horizontal diamond
        horizontal = [d for d in binding_diamonds(3) if d.kind == "horizontal"]
        for d in horizontal:
            assert sum(1 for e in d.cycle_edges() if e in w) == 1
        assert is_edge_forcing_set(build_butterfly(3), w)

    def test_bf3_exactness_end_to_end(self):
        # construction size meets the obstruction lower bound
        assert len(construct_edge_forcing(3)) == \
            structural_lower_bound(build_butterfly(3))[0] == 8

    def test_bf4_size_25(self):
        w = construct_edge_forcing(4)
        assert len(w) == 25
        assert is_edge_forcing_set(build_butterfly(4), w)

    def test_bf5_size_47(self):
        w = construct_edge_forcing(5)
        assert len(w) == 47
        assert is_edge_forcing_set(build_butterfly(5), w)

    def test_bf6_recursive(self):
        log = []
        w = construct_edge_forcing(6, repair_log=log)
        assert len(w) <= 160
        assert is_edge_forcing_set(build_butterfly(6), w)

    def test_deterministic(self):
        assert construct_edge_forcing(4) == construct_edge_forcing(4)
        assert construct_edge_forcing(5) == construct_edge_forcing(5)

    @pytest.mark.parametrize("r", range(3, 10))
    def test_within_bounds(self, r):
        w = construct_edge_forcing(r)
        report = known_bounds(r)
        assert is_matching(build_butterfly(r), w)
        assert report.lower <= len(w) <= report.upper_formula
        assert len(w) <= report.upper_recursive

    def test_bf2_raises(self):
        with pytest.raises(ConstructionError, match="BF\\(2\\)"):
            construct_edge_forcing(2)


class TestObstructionSoundness:
    def test_blocked_pair_stays_white(self):
        # matchings avoiding an obstruction's cycle edges and the blocked
        # vertices' incident edges can never force the blocked pair
        g = build_butterfly(3)
        rng = random.Random(404)
        obstructions = find_obstructions(g)
        for _ in range(50):
            o = rng.choice(obstructions)
            banned_vertices = set(o.blocked_pair)
            banned_edges = set(o.cycle_edges())
            pool = [e for e in g.edges
                    if e not in banned_edges
                    and not (set(e) & banned_vertices)]
            rng.shuffle(pool)
            used = set()
            matching = []
            for e in pool:
                if not (set(e) & used):
                    matching.append(e)
                    used.update(e)
            final = closure(g, matching_endpoints(matching)).final
            assert not (final & banned_vertices)


class TestBounds:
    def test_r3(self):
        b = known_bounds(3)
        assert (b.lower, b.exact, b.upper_formula) == (8, 8, 8)

    def test_r4_cited_lower(self):
        b = known_bounds(4)
        assert (b.lower, b.exact, b.upper_formula) == (25, 25, 32)

    def test_r5(self):
        b = known_bounds(5)
        assert (b.lower, b.exact, b.upper_formula, b.upper_recursive) == \
            (47, 47, 48, 47)

    def test_r7_recursion_from_exact(self):
        b = known_bounds(7)
        assert b.lower == 128
        assert b.upper_formula == 256
        assert b.upper_recursive == 4 * 47 + 64 == 252
        assert b.conjectured_exact == 252

    def test_r2_encodes_nonexistence(self):
        b = known_bounds(2)
        assert not b.exists
        assert b.exact is None and b.lower is None

    @pytest.mark.parametrize("r", range(3, 12))
    def test_ordering_invariant(self, r):
        b = known_bounds(r)
        if b.exact is not None:
            assert b.lower <= b.exact <= min(b.upper_formula, b.upper_recursive)
        else:
            assert b.lower <= min(b.upper_formula, b.upper_recursive)

    def test_recurrence_closed_form_odd(self):
        # seeded with 8 at r=3, the recursion matches ceil(r/2) * 2^(r-1)
        u = {3: 8}
        for r in range(5, 16, 2):
            u[r] = 4 * u[r - 2] + 2 ** (r - 1)
            assert u[r] == -(-r // 2) * 2 ** (r - 1)
        assert recursive_upper(15) <= u[15]

    def test_zero_forcing_reference(self):
        assert zero_forcing_upper_reference(3) == -(-((3 * 3 + 7) * 8 - 2) // 9)
