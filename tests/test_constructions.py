import hashlib
import itertools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeforce import constructions
from edgeforce.butterfly import ButterflyError, build_butterfly, subcopy_vertex
from edgeforce.certificates import CertificateError, bf2_nonexistence_counts
from edgeforce.constructions import (DEFAULT_SEED, ConstructionError,
                                     butterfly_witness,
                                     construct_edge_forcing, find_obstructions,
                                     known_bounds, recursive_upper,
                                     structural_lower_bound,
                                     zero_forcing_upper_reference)
from edgeforce.engine import closure, is_edge_forcing_set, matching_endpoints
from edgeforce.graph import from_edges, matching_diagnostic, normalize_edge

from conftest import cycle_graph, max_edge_disjoint, vertex_index

# The witnesses of construct_edge_forcing for r = 3..9 at GOLDEN_SEEDS,
# pinned as the sha256 of their sorted JSON: a refactor of the
# construction must reproduce every seed's witness, not only the default
# seed's that the fixtures hold.
GOLDEN_SEEDS = (0, 1, 2, 7919, 2 ** 31 - 1, DEFAULT_SEED)
GOLDEN_SHA256 = \
    "7319c0a4440ccdde69e3a9b1917deeb73fc8fe2d5267c78d3269a3a2fdab2fb6"


def edge_greedy(obstructions):
    """The obstructions, in order, whose cycle edges miss those of the
    ones kept before: the oracle of `structural_lower_bound`'s pass."""
    kept, family = set(), []
    for o in obstructions:
        edges = set(o.cycle_edges())
        if kept.isdisjoint(edges):
            kept |= edges
            family.append(o)
    return family


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
            assert len(g.adjacency[x]) == len(g.adjacency[y]) == 2
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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_family_is_the_edge_disjoint_greedy(self, data):
        # the pass tests cycle vertices against the kept degree-2
        # vertices; the family is the one the greedy over cycle edges
        # keeps, in order, on random graphs with K2,s parts, C4s among them
        n = data.draw(st.integers(0, 10))
        pool = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pool), unique=True)
                          if pool else st.just([]))
        for s in data.draw(st.lists(st.integers(2, 4), max_size=4)):
            hubs = (n, n + 1)
            edges += [(h, n + 2 + i) for h in hubs for i in range(s)]
            edges += [(h, data.draw(st.integers(0, n + 1 + s)))
                      for h in hubs if data.draw(st.booleans())]
            n += s + 2
        edges = [e for e in edges if e[0] != e[1]]
        g = from_edges(n, {tuple(sorted(e)) for e in edges})
        value, family = structural_lower_bound(g)
        assert family == edge_greedy(find_obstructions(g))
        assert value == len(family)

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

    def test_refuses_a_graph_with_a_forcing_matching(self):
        with pytest.raises(CertificateError) as exc:
            bf2_nonexistence_counts(from_edges(2, [(0, 1)]))
        assert type(exc.value) is CertificateError
        assert str(exc.value) == "graph admits an edge-forcing set [(0, 1)]"


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
        w = construct_edge_forcing(6)
        assert len(w) <= 160
        assert is_edge_forcing_set(build_butterfly(6), w)

    def test_deterministic(self):
        assert construct_edge_forcing(4) == construct_edge_forcing(4)
        assert construct_edge_forcing(5) == construct_edge_forcing(5)

    @pytest.mark.parametrize("r", range(3, 10))
    def test_within_bounds(self, r):
        w = construct_edge_forcing(r)
        report = known_bounds(r)
        assert matching_diagnostic(build_butterfly(r), w) is None
        assert report.lower <= len(w) <= report.upper_formula
        assert len(w) <= report.upper_recursive

    @pytest.mark.parametrize("r", range(3, 10))
    def test_subcopies_map_every_vertex(self, r):
        # the bulk map against its per-vertex definition, BF(r) into BF(r+2)
        sub = construct_edge_forcing(r)
        copies = constructions._subcopies(r + 2, sub)
        assert copies == [(subcopy_vertex(r + 2, high_bits, u),
                           subcopy_vertex(r + 2, high_bits, v))
                          for high_bits in range(4) for u, v in sub]
        assert matching_diagnostic(build_butterfly(r + 2), copies) is None

    def test_bf2_raises(self):
        with pytest.raises(ConstructionError, match="BF\\(2\\)"):
            construct_edge_forcing(2)

    def test_witness_needs_a_built_butterfly(self):
        # the same edges from outside input carry no r: one-line refusal
        g = build_butterfly(3)
        with pytest.raises(ButterflyError, match="build_butterfly") as info:
            butterfly_witness(from_edges(g.vertex_count, g.edges))
        assert "\n" not in str(info.value)
        assert butterfly_witness(g) == construct_edge_forcing(3)

    def test_each_level_builds_its_butterfly_once(self, monkeypatch):
        built = []

        def counting_build(r):
            built.append(r)
            return build_butterfly(r)

        monkeypatch.setattr(constructions, "build_butterfly", counting_build)
        construct_edge_forcing(9)
        assert built == [9, 7, 5]

    def test_each_recursive_level_checks_its_witness_once(self, monkeypatch):
        # only the witness returned is closed: BF(7)'s and BF(5)'s, and the
        # seeded greedy's, are parts of BF(9)'s, not checked apart
        checked = []

        def counting_check(g, edges, **kwargs):
            checked.append(g.butterfly)
            return is_edge_forcing_set(g, edges, **kwargs)

        monkeypatch.setattr(constructions, "is_edge_forcing_set",
                            counting_check)
        construct_edge_forcing(9)
        assert checked == [9]

    def test_golden_witnesses_across_seeds(self):
        out = {}
        for seed in GOLDEN_SEEDS:
            for r in range(3, 10):
                w = construct_edge_forcing(r, seed=seed)
                out[f"{r}:{seed}"] = [list(e) for e in w]
        text = json.dumps(out, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


class TestRepair:
    """A witness that fails its one check, on BF(r), raises at once, with
    no retry.  No seed tried fails, so the check is patched to fail on one
    BF(r)."""

    def patch(self, monkeypatch, r):
        n = build_butterfly(r).vertex_count
        real = constructions.is_edge_forcing_set
        checked = []

        def check(g, edges, **kwargs):
            if g.vertex_count != n:
                return real(g, edges, **kwargs)
            checked.append(edges)
            return False

        monkeypatch.setattr(constructions, "is_edge_forcing_set", check)
        return checked

    def test_no_replacement_reports_unforced_count(self, monkeypatch):
        checked = self.patch(monkeypatch, 6)
        with pytest.raises(ConstructionError,
                           match="^witness for BF\\(6\\) failed verification; "
                                 "0 vertices unforced$"):
            construct_edge_forcing(6)
        assert len(checked) == 1

    def test_seeded_search_makes_one_greedy_try(self, monkeypatch):
        witness = construct_edge_forcing(4)
        checked = self.patch(monkeypatch, 4)
        with pytest.raises(ConstructionError,
                           match="^witness for BF\\(4\\) failed verification; "
                                 "0 vertices unforced$"):
            construct_edge_forcing(4)
        assert checked == [witness]


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
        # the paper's 25 is the witness size, not a proven lower bound
        b = known_bounds(4)
        assert (b.lower, b.exact, b.upper_formula, b.upper_recursive) == \
            (16, None, 32, 25)

    def test_r5(self):
        # 47 is refuted as a minimum: 44 of the constructed edges force
        b = known_bounds(5)
        assert (b.lower, b.exact, b.upper_formula, b.upper_recursive) == \
            (32, None, 48, 47)

    def test_r7_recursion_from_exact(self):
        b = known_bounds(7)
        assert (b.lower, b.exact, b.upper_formula) == (128, None, 256)
        assert b.upper_recursive == 4 * 47 + 64 == 252
        assert not hasattr(b, "conjectured_exact")

    @pytest.mark.parametrize("r", range(3, 9))
    def test_lower_is_the_diamond_packing(self, r):
        b = known_bounds(r)
        assert b.lower == structural_lower_bound(build_butterfly(r))[0] \
            == 2 ** r
        # exact only where the packing meets the recursive witness size
        assert (b.exact is not None) == (r == 3)

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
