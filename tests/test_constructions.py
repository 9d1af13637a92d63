import hashlib
import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeforce import constructions
from edgeforce.butterfly import build_butterfly, vertex_index
from edgeforce.certificates import bf2_nonexistence_counts
from edgeforce.constructions import (DEFAULT_SEED, ConstructionError,
                                     construct_edge_forcing, find_obstructions,
                                     known_bounds, recursive_upper,
                                     structural_lower_bound,
                                     zero_forcing_upper_reference)
from edgeforce.engine import closure, is_edge_forcing_set, matching_endpoints
from edgeforce.graph import from_edges, is_matching, normalize_edge

from conftest import cycle_graph, max_edge_disjoint

# The witnesses and repair logs of construct_edge_forcing for r = 3..9 at
# GOLDEN_SEEDS, pinned as the sha256 of their sorted JSON: a refactor of
# the construction must reproduce every seed's witness, not only the
# default seed's that the fixtures hold.
GOLDEN_SEEDS = (0, 1, 2, 7919, 2 ** 31 - 1, DEFAULT_SEED)
GOLDEN_SHA256 = \
    "e388b86bba686fb4b692286d899744f5d067c88c3368f5425d31171fb417657a"


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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_packing_is_maximum(self, data):
        # a random graph, plus K2,s components (K2,2 is C4) whose hubs may
        # also join the random part
        n = data.draw(st.integers(0, 8))
        pool = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True)
                          if pool else st.just([]))
        for s in data.draw(st.lists(st.integers(2, 5), max_size=3)):
            hubs = (n, n + 1)
            edges += [(h, n + 2 + i) for h in hubs for i in range(s)]
            if n:
                edges += [(h, data.draw(st.integers(0, n - 1)))
                          for h in hubs if data.draw(st.booleans())]
            n += s + 2
        g = from_edges(n, edges)
        obstructions = find_obstructions(g)
        assume(len(obstructions) <= 12)
        value, family = structural_lower_bound(g)
        assert value == len(family) == max_edge_disjoint(obstructions)
        cycle_edges = [e for o in family for e in o.cycle_edges()]
        assert len(cycle_edges) == len(set(cycle_edges))

    @pytest.mark.parametrize("r", range(2, 12))
    def test_butterfly_family_is_every_binding_diamond(self, r):
        value, family = structural_lower_bound(build_butterfly(r))
        assert value == len(family) == 2 ** r
        cycle_edges = [e for o in family for e in o.cycle_edges()]
        assert len(cycle_edges) == len(set(cycle_edges))

    def test_matches_binding_diamonds_on_butterflies(self):
        # vertical diamond w joins rows 2w, 2w + 1 on levels 0 and 1,
        # horizontal diamond w rows w, w + 2^(r-1) on levels r and r - 1
        for r in (2, 3, 4):
            half = 1 << (r - 1)
            diamonds = ([((2 * w, 2 * w + 1), 0, 1) for w in range(half)]
                        + [((w, w + half), r, r - 1) for w in range(half)])
            diamond_cycles = {
                frozenset(normalize_edge(vertex_index(r, a, i),
                                         vertex_index(r, b, j))
                          for a in rows for b in rows)
                for rows, i, j in diamonds}
            g = build_butterfly(r)
            obs_cycles = {frozenset(o.cycle_edges()) for o in find_obstructions(g)}
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
        for d in find_obstructions(build_butterfly(3))[4:]:
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

    def test_each_level_builds_its_butterfly_once(self, monkeypatch):
        built = []

        def counting_build(r):
            built.append(r)
            return build_butterfly(r)

        monkeypatch.setattr(constructions, "build_butterfly", counting_build)
        construct_edge_forcing(9)
        assert built == [9, 7, 5]

    def test_each_recursive_level_checks_its_witness_once(self, monkeypatch):
        sizes = []

        def counting_check(g, edges, **kwargs):
            sizes.append(g.vertex_count)
            return is_edge_forcing_set(g, edges, **kwargs)

        monkeypatch.setattr(constructions, "is_edge_forcing_set",
                            counting_check)
        log = []
        construct_edge_forcing(9, repair_log=log)
        assert log == []
        bf5 = build_butterfly(5).vertex_count
        assert [n for n in sizes if n > bf5] == [
            build_butterfly(7).vertex_count, build_butterfly(9).vertex_count]

    def test_golden_witnesses_across_seeds(self):
        out = {}
        for seed in GOLDEN_SEEDS:
            for r in range(3, 10):
                log = []
                w = construct_edge_forcing(r, seed=seed, repair_log=log)
                out[f"{r}:{seed}"] = {"witness": [list(e) for e in w],
                                      "repairs": log}
        text = json.dumps(out, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


class TestRepair:
    """The recursive witness's repair loop, which no real seed reaches:
    BF(6)'s check is replaced by one that passes only the edge sets that
    hold a chosen replacement for horizontal diamond 5."""

    # diamond 5 binds rows 5 and 37 on levels 5 and 6: its low-row straight
    # edge, and the cross edge from the low row's binding vertex
    OLD = normalize_edge(vertex_index(6, 5, 5), vertex_index(6, 5, 6))
    NEW = normalize_edge(vertex_index(6, 37, 5), vertex_index(6, 5, 6))

    def patch(self, monkeypatch, passes):
        n = build_butterfly(6).vertex_count
        real = constructions.is_edge_forcing_set

        def check(g, edges, **kwargs):
            if g.vertex_count != n:
                return real(g, edges, **kwargs)
            return passes(edges)

        monkeypatch.setattr(constructions, "is_edge_forcing_set", check)

    def test_one_replacement_is_logged_and_returned(self, monkeypatch):
        plain = construct_edge_forcing(6)
        assert self.OLD in plain and self.NEW not in plain
        self.patch(monkeypatch, lambda edges: self.NEW in edges)
        log = []
        w = construct_edge_forcing(6, repair_log=log)
        assert log == [f"BF(6) diamond 5: replaced {self.OLD} "
                       f"with {self.NEW}"]
        assert w == sorted(set(plain) - {self.OLD} | {self.NEW})

    def test_repair_never_rechecks_the_failed_set(self, monkeypatch):
        checked = []

        def passes(edges):
            checked.append(frozenset(edges))
            return self.NEW in edges

        self.patch(monkeypatch, passes)
        construct_edge_forcing(6)
        # the failed set, the three other edges of diamonds 0..4, then
        # diamond 5's high-row straight edge and the cross edge that passes
        assert len(checked) == len(set(checked)) == 1 + 5 * 3 + 2

    def test_no_replacement_reports_unforced_count(self, monkeypatch):
        self.patch(monkeypatch, lambda edges: False)
        with pytest.raises(ConstructionError,
                           match="failed verification and repair; "
                                 "0 vertices unforced"):
            construct_edge_forcing(6)


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
