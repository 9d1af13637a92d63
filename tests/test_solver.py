import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeforce import solver
from edgeforce.butterfly import build_butterfly
from edgeforce.certificates import bf2_nonexistence_counts
from edgeforce.engine import (forces_all, is_edge_forcing_set,
                              is_zero_forcing_set, matching_endpoints)
from edgeforce.graph import (GraphError, from_edges, matching_counts,
                             matching_diagnostic, matchings_of_size)
from edgeforce.constructions import structural_lower_bound
from edgeforce.kernels import extend_closure, run_closure
from edgeforce.reduction import MAX_LIFTED_EDGES, build_gbar
from edgeforce.solver import (InstanceTooLarge, NotAFort, _Exhaustion,
                              _minimal_fort, min_edge_forcing,
                              min_zero_forcing)

from conftest import (complete_graph, cycle_graph, exhaustion_reference,
                      listed_fort_fault, minimal_fort_reference, path_graph,
                      random_graph, reference_add)


def oracle_min_zero_forcing(g):
    """Brute force over all vertex subsets, smallest first."""
    n = g.vertex_count
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            if is_zero_forcing_set(g, subset):
                return k
    return n


def oracle_min_edge_forcing(g):
    """Naive double loop over all edge subsets; None when nothing forces."""
    best = None
    for size in range(1, g.edge_count + 1):
        for combo in itertools.combinations(g.edges, size):
            if (matching_diagnostic(g, combo) is None
                    and is_edge_forcing_set(g, combo)):
                return size
    return best


def vertex_items(g):
    return [(v,) for v in range(g.vertex_count)]


def first_subset(g, k):
    """(lex-first forcing k-subset or None, number of k-subsets tested)."""
    search = _Exhaustion(g, vertex_items(g))
    found = search.first(k)
    return (None if found is None else frozenset(v for v, in found),
            search.explored)


def first_matching(g, sizes):
    """(first forcing matching or None, leaves tested) over `sizes`,
    through one search with no seeded fort."""
    search = _Exhaustion(g, g.edges)
    found = search.first_over(sizes)
    return None if found is None else frozenset(found), search.explored


def brute_first_forcing(g, candidates, vertices):
    """(first forcing candidate, number tested), one closure per candidate."""
    tested = 0
    for c in candidates:
        tested += 1
        if forces_all(g, vertices(c)):
            return c, tested
    return None, tested


class TestFirstForcing:
    """The depth-first enumerator, which closes each prefix once, against a
    loop that closes every combination from scratch."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        # edges may be empty, trailing vertices are always isolated, and k
        # may be above the maximum matching; the solvers start at k = 1
        n = data.draw(st.integers(2, 9))
        size = n + data.draw(st.integers(0, 2))
        pool = list(itertools.combinations(range(n), 2))
        g = from_edges(size, data.draw(st.lists(st.sampled_from(pool),
                                                unique=True)))
        # the same lex-first combination, after testing at least that one
        # and at most every combination up to it
        k = data.draw(st.integers(1, 6))
        matching, tested = first_matching(g, [k])
        want, count = brute_first_forcing(g, matchings_of_size(g, k),
                                          matching_endpoints)
        assert matching == want
        assert (want is not None) <= tested <= count
        subset, tested = first_subset(g, k)
        want, count = brute_first_forcing(
            g, itertools.combinations(range(size), k), set)
        assert subset == (None if want is None else frozenset(want))
        assert (want is not None) <= tested <= count

    def test_edgeless_graph(self):
        g = from_edges(3, [])
        assert _Exhaustion(g, g.edges).first(1) is None
        assert first_subset(g, 2) == (None, 3)
        assert first_subset(g, 3) == (frozenset({0, 1, 2}), 1)


def is_fort(g, fort):
    """Non-empty, and no vertex outside has exactly one neighbor inside."""
    return bool(fort) and all(
        sum(w in fort for w in g.adjacency[v]) != 1
        for v in range(g.vertex_count) if v not in fort)


def is_minimal_fort(g, fort):
    """A fort with no smaller fort inside, by brute force over subsets."""
    return is_fort(g, fort) and not any(
        is_fort(g, set(sub)) for size in range(1, len(fort))
        for sub in itertools.combinations(sorted(fort), size))


def vertex_set(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


@st.composite
def disjoint_unions(draw):
    """A renumbered disjoint union of isolated vertices, isolated edges and
    small random graphs, at most 9 vertices."""
    edges, n = [], 0
    for size in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        if n + size > 9:
            break
        if size == 2:
            edges.append((n, n + 1))
        elif size > 2:
            pairs = list(itertools.combinations(range(n, n + size), 2))
            edges += draw(st.lists(st.sampled_from(pairs), unique=True))
        n += size
    perm = draw(st.permutations(range(n)))
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def neighbour_masks(g):
    return [sum(1 << w for w in a) for a in g.adjacency]


@st.composite
def stalled_states(draw):
    """(g, black, counts): a closed state of g that leaves a vertex white.
    g is a random graph plus isolated vertices, a disjoint union, the
    lifted gadget of a random graph, or a random graph of 13-16 vertices
    and 20-32 edges (the shape of the exact searches' graphs) closed from
    at most four vertices."""
    kind = draw(st.sampled_from(["random", "union", "lifted", "search"]))
    if kind == "union":
        g = draw(disjoint_unions())
    elif kind == "search":
        n = draw(st.integers(13, 16))
        pool = list(itertools.combinations(range(n), 2))
        g = from_edges(n, draw(st.lists(st.sampled_from(pool), unique=True,
                                        min_size=20, max_size=32)))
    else:
        n = draw(st.integers(2, 12 if kind == "random" else 6))
        pool = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pool), unique=True))
        g = from_edges(n + draw(st.integers(0, 3)), edges)
        if kind == "lifted":
            g = build_gbar(g)
    n = g.vertex_count
    start = draw(st.sets(st.integers(0, n - 1),
                         max_size=4 if kind == "search" else n - 1))
    black, counts = bytearray(n), [len(a) for a in g.adjacency]
    extend_closure(g.adjacency, black, counts, sorted(start))
    assume(0 in black)
    return g, black, counts


def star_forest(sizes, perm=None):
    """Disjoint stars K1,t for t in `sizes`, each centre numbered before its
    leaves, then renumbered by `perm` when given."""
    edges, n = [], 0
    for t in sizes:
        edges += [(n, n + j) for j in range(1, t + 1)]
        n += t + 1
    perm = perm or range(n)
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def exhaustion_graphs(draw):
    """A graph of at most 12 vertices: a relabelled random graph with up to
    three isolated vertices, a disjoint union, the lifted gadget of a
    random graph, a renumbered star forest, or a relabelled random graph
    with twin pendant leaves on some vertices.  In the last two, sets of
    twin leaves are forts whose touching edges all hold the leaves'
    neighbour, the case of the exhaustion's shared-vertex bound."""
    kind = draw(st.sampled_from(["random", "union", "lifted", "stars",
                                 "twins"]))
    if kind == "union":
        return draw(disjoint_unions())
    if kind == "stars":
        sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        while sum(sizes) + len(sizes) > 12:
            sizes.pop()
        n = sum(sizes) + len(sizes)
        return star_forest(sizes, draw(st.permutations(range(n))))
    n = draw(st.integers(2, 9 if kind == "random" else 6))
    pool = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True))
    if kind == "lifted":
        return build_gbar(from_edges(n, edges))
    if kind == "twins":
        # two pendant leaves on each drawn vertex
        size = n
        for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            edges += [(v, size), (v, size + 1)]
            size += 2
    else:
        size = n + draw(st.integers(0, 3))
    perm = draw(st.permutations(range(size)))
    return from_edges(size, [(perm[u], perm[v]) for u, v in edges])


class TestExhaustionOracle:
    """The exhaustion, which picks the last item of a combination from
    bitmasks, against the loop over positions that it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(exhaustion_graphs(), st.data())
    def test_matches_the_position_loop(self, g, data):
        # sizes 1..k in turn through one pool, empty or seeded with the
        # white sets of stalled closures (forts, not always minimal): the
        # same combination and leaves tested at each size, the same harvest
        # in the same order, and the same pool
        n = g.vertex_count
        items = data.draw(st.sampled_from([g.edges, vertex_items(g)]))
        search, reference = _Exhaustion(g, items), _Exhaustion(g, items)
        for start in data.draw(st.lists(
                st.sets(st.integers(0, n - 1), max_size=n - 1), max_size=4)):
            black = run_closure(g, sorted(start))[0]
            white = sum(1 << v for v in range(n) if not black[v])
            if white:
                search.add(white)
                reference_add(reference, white)
        for k in range(1, data.draw(st.integers(1, 4)) + 1):
            assert search.first(k) == exhaustion_reference(reference, k)
            assert search.explored == reference.explored
            assert search.listed == reference.listed
            assert (search.forts, search.covers, search.touch) == (
                reference.forts, reference.covers, reference.touch)

    def test_shared_vertex_groups(self):
        # in a star forest the touching edges of every minimal fort, two
        # leaves of a star or a K1,1 whole, hold one vertex: the search
        # groups every fort it harvests and still tests the leaves the
        # position loop tests
        g = star_forest([3, 3, 2, 1], [(5 * v + 2) % 13 for v in range(13)])
        search, reference = _Exhaustion(g, g.edges), _Exhaustion(g, g.edges)
        for k in range(1, 5):
            assert search.first(k) == exhaustion_reference(reference, k)
            assert search.explored == reference.explored
            assert search.listed == reference.listed
        assert search.grouped == (1 << len(search.forts)) - 1


class TestForts:
    """The fort pool prunes the exhaustion without changing a witness."""

    @settings(max_examples=150, deadline=None)
    @given(disjoint_unions())
    def test_shared_pool_counts(self, g):
        # one search per item kind takes sizes 1, 2, ... through one pool;
        # each size finds the combination a search closing every one in
        # turn finds, after testing no more, and each leaf tested either
        # forces or harvests a new minimal fort
        n = g.vertex_count
        firsts = {}
        for kind, items, combos, vertices in (
                ("ef", g.edges, lambda k: matchings_of_size(g, k),
                 matching_endpoints),
                ("zf", vertex_items(g),
                 lambda k: itertools.combinations(range(n), k), set)):
            search = _Exhaustion(g, items)
            for k in range(1, n + 1):
                before = search.explored
                found = search.first(k)
                want, count = brute_first_forcing(g, combos(k), vertices)
                assert search.explored - before <= count
                if want is None:
                    assert found is None
                    continue
                assert vertices(want) == {v for item in found for v in item}
                break
            firsts[kind] = None if found is None else frozenset(found)
            assert all(is_minimal_fort(g, vertex_set(f))
                       for f in search.forts)
            assert len(set(search.forts)) == len(search.forts)
            assert search.explored == len(search.forts) + (found is not None)
        assert first_matching(g, range(1, n + 1))[0] == firsts["ef"]
        verdict = min_edge_forcing(g)
        assert verdict.witness == firsts["ef"]
        assert verdict.explored == len(verdict.forts) + verdict.exists
        assert min_zero_forcing(g).witness == frozenset(
            v for v, in firsts["zf"])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_minimal_fort(self, data):
        n = data.draw(st.integers(2, 8))
        pool = list(itertools.combinations(range(n), 2))
        g = from_edges(n, data.draw(st.lists(st.sampled_from(pool),
                                             unique=True)))
        start = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        black = run_closure(g, sorted(start))[0]
        closed = {v for v in range(n) if black[v]}
        if len(closed) == n:
            return
        white = sum(1 << v for v in range(n) if not black[v])
        fort = vertex_set(_minimal_fort(neighbour_masks(g), white))
        assert not fort & closed
        assert is_minimal_fort(g, fort)

    @settings(max_examples=300, deadline=None)
    @given(stalled_states())
    def test_minimal_fort_matches_kernel_trials(self, stalled):
        # the greedy on bitmasks keeps, for each vertex, the white set of
        # the closure that blackens it: the fort of the kernel trials
        g, black, counts = stalled
        before = (bytearray(black), counts[:])
        want = minimal_fort_reference(g.adjacency, black, counts)
        assert (black, counts) == before
        white = sum(1 << v for v, b in enumerate(black) if not b)
        assert _minimal_fort(neighbour_masks(g), white) == want

    def test_minimal_fort_stops_at_a_tried_vertex(self):
        # P5 all white: trying 0 empties the fort; trying 1 leaves
        # {0, 2, 3, 4}; trying 2 would remove 0, which 1 then has alone
        # inside, and 0 was tried, so the trial stops there; trying 3
        # leaves {0, 2, 4}; trying 4 stops at 2, through 3
        g = path_graph(5)
        black, counts = bytearray(5), [len(a) for a in g.adjacency]
        want = minimal_fort_reference(g.adjacency, black, counts)
        assert _minimal_fort(neighbour_masks(g), 0b11111) == want == 0b10101

    @settings(max_examples=150, deadline=None)
    @given(disjoint_unions(), st.data())
    def test_seeded_forts_change_no_result(self, g, data):
        # the white set of a closure that stalls is a fort, minimal or not;
        # seeded with such forts, both searches find the same witness after
        # the same counts and list minimal forts after the seeds, and a
        # search seeded with that whole list harvests nothing more
        n = g.vertex_count
        seeds = []
        for start in data.draw(st.lists(
                st.sets(st.integers(0, n - 1), max_size=n - 1), max_size=6)):
            black = run_closure(g, sorted(start))[0]
            seeds.append([v for v in range(n) if not black[v]])
        seeds = [fort for fort in seeds if fort]
        for solve in (min_zero_forcing, min_edge_forcing):
            unseeded = solve(g)
            seeded = solve(g, forts=seeds)
            assert seeded == unseeded
            forts = seeded.forts
            assert forts[:len(seeds)] == seeds
            assert all(is_minimal_fort(g, set(f)) for f in forts[len(seeds):])
            again = solve(g, forts=forts)
            assert again == unseeded
            assert again.forts == forts

    def test_bf2_closures(self, monkeypatch):
        # a prefix is closed only for a leaf below it that is tested, and
        # the 16 fort minimisations run on bitmasks: 24 kernel calls, where
        # minimising by kernel trials made 88 and closing every prefix 304
        calls = []
        extend = solver.extend_closure
        monkeypatch.setattr(solver, "extend_closure",
                            lambda *a: calls.append(a) or extend(*a))
        assert not min_edge_forcing(build_butterfly(2)).exists
        assert len(calls) == 24

    def test_lifted_k6(self, monkeypatch):
        # a dense case: the pool, not the kernel, decides most nodes, and
        # each leaf tested forces or harvests; seeded with its own harvest
        # the rerun stalls on no leaf, so it tests only the witness
        g = build_gbar(complete_graph(6))
        verdict = min_edge_forcing(g, MAX_LIFTED_EDGES)
        forts = verdict.forts
        assert (verdict.value, verdict.explored, len(forts)) == (5, 16, 15)
        calls = []
        minimal = solver._minimal_fort
        monkeypatch.setattr(solver, "_minimal_fort",
                            lambda *a: calls.append(a) or minimal(*a))
        again = min_edge_forcing(g, MAX_LIFTED_EDGES, forts)
        assert again == verdict
        assert again.forts == forts
        assert calls == []
        assert again.explored == 1

    def test_disjoint_edges(self):
        # k disjoint edges: k leaves stall, two of size 1 and then one of
        # each size below k, each harvesting an edge as a 2-vertex fort that
        # rules out the rest of its size; so k + 1 leaves are tested where
        # a search closing every matching would close 2^k - 1
        k = 40
        g = from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
        verdict = min_edge_forcing(g)
        assert (verdict.value, verdict.explored) == (k, k + 1)
        assert sorted(verdict.forts) == [list(e) for e in g.edges]


class TestListedForts:
    """A solver checks each fort its caller lists before it seeds the
    search: a set that is not a fort could rule out a forcing set."""

    @pytest.mark.parametrize("forts, why", [
        ([[v] for v in range(5)],
         "a vertex outside it has exactly one neighbor in it"),
        ([[7]], "it leaves [0, 5)"),
        # booleans once passed as vertices 0 and 1
        ([[False, True, 2, 3, 4]], "entry False is not a vertex")])
    def test_edge_search_refuses_non_forts(self, forts, why):
        # seeded with these, the search once ruled out every matching of
        # C5 and answered nonexistence, although one edge forces C5
        with pytest.raises(NotAFort) as exc:
            min_edge_forcing(cycle_graph(5), forts=forts)
        assert str(exc.value) == f"forts[0] is not a fort: {why}"

    @pytest.mark.parametrize("fort, entry", [(["0"], "'0'"),
                                             ([0, 1, 2, 3, 4.0], "4.0")])
    def test_vertex_search_refuses_entries_that_are_no_vertices(self, fort,
                                                                entry):
        # the engine's rule: a vertex is an integer that is not a bool
        with pytest.raises(NotAFort) as exc:
            min_zero_forcing(cycle_graph(5), forts=[fort])
        assert str(exc.value) == (
            f"forts[0] is not a fort: entry {entry} is not a vertex")

    def test_numpy_integers_are_vertices(self):
        # a numpy vertex past 63 once overflowed the fort's bit mask
        p70 = path_graph(70)
        fort = [np.int64(v) for v in range(70)]
        assert min_zero_forcing(p70, max_vertices=70,
                                forts=[fort]).witness == frozenset({0})

    @pytest.mark.parametrize("solve, g", [
        (min_zero_forcing, from_edges(
            10, [(i, (i + 1) % 5) for i in range(5)]
            + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])),
        (min_edge_forcing, build_butterfly(2))], ids=["petersen", "bf2"])
    @pytest.mark.parametrize("shape", ["empty", "tuple", "generator",
                                       "list-of-tuples"])
    def test_forts_are_read_not_written(self, solve, g, shape):
        # any iterable of vertex sequences seeds the search, which copies
        # each into its own list: the verdict is the unseeded one, its
        # forts start with the seeds as lists, and the caller's container
        # is left as it was
        unseeded = solve(g)
        seeds = [tuple(fort) for fort in unseeded.forts[:3]]
        forts = {"empty": (), "tuple": tuple(seeds),
                 "generator": (fort for fort in seeds),
                 "list-of-tuples": list(seeds)}[shape]
        verdict = solve(g, forts=forts)
        assert verdict == unseeded
        assert (unseeded.value, unseeded.exists) == (
            (5, True) if solve is min_zero_forcing else (None, False))
        if shape == "empty":
            assert verdict.forts == unseeded.forts
        else:
            assert verdict.forts[:3] == [list(fort) for fort in seeds]
        if shape == "tuple":
            assert forts == tuple(seeds)
        elif shape == "list-of-tuples":
            assert forts == seeds and all(type(f) is tuple for f in forts)

    def test_vertex_search_refuses_non_forts(self):
        with pytest.raises(NotAFort) as exc:
            min_zero_forcing(cycle_graph(5), forts=[list(range(5)), [9]])
        assert isinstance(exc.value, GraphError)
        assert str(exc.value) == "forts[1] is not a fort: it leaves [0, 5)"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_reference_rule(self, data):
        # first_over refuses exactly the lists with an entry that the
        # reference rejects, and names the first such entry
        n = data.draw(st.integers(2, 7))
        pool = list(itertools.combinations(range(n), 2))
        g = from_edges(n, data.draw(st.lists(st.sampled_from(pool),
                                             unique=True)))
        forts = data.draw(st.lists(st.one_of(
            st.lists(st.integers(-1, n) | st.booleans(), max_size=n + 1),
            st.sets(st.integers(0, n - 1)).map(sorted)), max_size=4))
        search = _Exhaustion(g, data.draw(st.sampled_from(
            [g.edges, vertex_items(g)])))
        faults = [(i, why) for i, fort in enumerate(forts)
                  if (why := listed_fort_fault(g, fort))]
        if faults:
            with pytest.raises(NotAFort) as exc:
                search.first_over((), forts)
            assert str(exc.value) == "forts[{}] is not a fort: {}".format(
                *faults[0])
        else:
            assert search.first_over((), forts) is None
            assert search.forts == [sum(1 << v for v in f) for f in forts]


class TestMinZeroForcing:
    def test_path(self):
        assert min_zero_forcing(path_graph(5)).witness == frozenset({0})

    def test_cycle(self):
        assert min_zero_forcing(cycle_graph(6)).witness == frozenset({0, 1})

    def test_k4_matches_oracle(self):
        k4 = complete_graph(4)
        verdict = min_zero_forcing(k4)
        assert verdict.value == oracle_min_zero_forcing(k4) == 3
        assert verdict.witness == frozenset({0, 1, 2})

    def test_witness_reverifies(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8), 0.4)
            verdict = min_zero_forcing(g)
            assert verdict.exists
            assert is_zero_forcing_set(g, verdict.witness)

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            min_zero_forcing(path_graph(30))
        # explicit override works
        assert min_zero_forcing(path_graph(30), max_vertices=30).value == 1


class TestMinEdgeForcing:
    def test_cycle(self):
        verdict = min_edge_forcing(cycle_graph(6))
        assert verdict.exists and verdict.value == 1
        assert verdict.witness == frozenset({(0, 1)})

    def test_k4_matches_oracle(self):
        k4 = complete_graph(4)
        verdict = min_edge_forcing(k4)
        assert verdict.value == oracle_min_edge_forcing(k4) == 2

    def test_star_not_exists(self):
        star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        verdict = min_edge_forcing(star)
        assert not verdict.exists
        # each of the three 1-matchings stalls and harvests a fort; no
        # larger matching exists
        assert (verdict.explored, len(verdict.forts)) == (3, 3)
        assert matching_counts(star) == (1, 3)

    def test_bf2_not_exists(self):
        g = build_butterfly(2)
        verdict = min_edge_forcing(g)
        assert not verdict.exists
        assert len(matching_counts(g)) - 1 == 4

    def test_witness_reverifies(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 7), 0.5)
            verdict = min_edge_forcing(g)
            if verdict.exists:
                assert is_edge_forcing_set(g, verdict.witness)
                assert len(verdict.witness) == verdict.value

    def test_oracle_agreement_random_sample(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.9))
            verdict = min_edge_forcing(g)
            expected = oracle_min_edge_forcing(g)
            if expected is None:
                assert not verdict.exists
            else:
                assert verdict.exists and verdict.value == expected

    def test_lower_bound_consistency(self):
        rng = random.Random(31)
        graphs = [build_butterfly(2)] + [
            random_graph(rng, rng.randint(2, 7), 0.5) for _ in range(15)]
        for g in graphs:
            verdict = min_edge_forcing(g)
            if verdict.exists:
                assert verdict.value >= structural_lower_bound(g)[0]

    def test_seeding_does_not_change_result(self):
        # the obstruction forts that seed min_edge_forcing change no witness
        rng = random.Random(55)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            witness, _ = first_matching(g, range(1, g.vertex_count // 2 + 1))
            assert min_edge_forcing(g).witness == witness

    def test_not_exists_counts_are_the_whole_exhaustion(self):
        # a nonexistence claim counts every matching of every size, while
        # the search tests few: the unseeded search finds nothing either,
        # and the obstruction forts rule out BF(2)'s sizes 1-3, below its
        # lower bound 4, at the root; each leaf tested stalls and harvests
        star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert bf2_nonexistence_counts(star) == {1: 3}
        for g in (star, build_butterfly(2)):
            verdict = min_edge_forcing(g)
            assert not verdict.exists
            assert first_matching(g, range(1, g.vertex_count + 1))[0] is None
            assert verdict.explored == len(verdict.forts)
            assert bf2_nonexistence_counts(g) == {
                k: sum(1 for _ in matchings_of_size(g, k))
                for k in range(1, len(matching_counts(g)))}
        assert bf2_nonexistence_counts(g) == {1: 16, 2: 88, 3: 192, 4: 136}
        assert verdict.explored == 16

    @pytest.mark.parametrize("edges, exists, explored", [
        # K_{2,6}: fifteen obstructions on one hub pair, three disjoint,
        # which rule out both sizes of its matchings
        ([(i, j) for i in range(2) for j in range(2, 8)], False, 0),
        # two disjoint C4s: each is an obstruction, so the bound is 2 and
        # the first 2-matching tested forces
        ([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)],
         True, 1),
    ])
    def test_sizes_below_the_bound_test_no_leaf(self, edges, exists,
                                                explored):
        g = from_edges(1 + max(map(max, edges)), edges)
        verdict = min_edge_forcing(g)
        assert (verdict.exists, verdict.explored) == (exists, explored)

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            min_edge_forcing(build_butterfly(3))

    def test_bf4_reaches_a_closure_in_bounded_memory(self, monkeypatch):
        # nothing is counted before a leaf is tested: BF(4), with the guard
        # raised to its 128 edges, reaches its first kernel call at once,
        # where a matching count by vertex mask overran 1.5 GB first
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(solver, "extend_closure", reached)
        g = build_butterfly(4)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(Reached):
                min_edge_forcing(g, max_edges=128)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 64 << 20

    @pytest.mark.parametrize("k, perm", [
        (11, None), (13, [(7 * v) % 52 for v in range(52)])])
    def test_star_forests_answer_at_once(self, k, perm):
        # every set of two leaves of a star is a fort whose edges all hold
        # the centre, and one edge at the centre cannot hit all three: the
        # search prunes each size after a few leaves; a search without that
        # bound tries every matching of the stars, 22 s for 11 of them
        g = star_forest([3] * k, perm)
        start = time.perf_counter()
        verdict = min_edge_forcing(g)
        elapsed = time.perf_counter() - start
        assert verdict.witness is None
        assert all(is_minimal_fort(g, set(f)) for f in verdict.forts)
        again = min_edge_forcing(g, forts=verdict.forts)
        assert again == verdict
        assert again.forts == verdict.forts
        assert elapsed < 1.0

    def test_one_fort_pool_for_both_passes(self, monkeypatch):
        # BF(2)'s 4 obstruction forts seed the pool, which rules out sizes
        # 1-3 at the root; the search harvests 16 more
        add, forts = _Exhaustion.add, []
        monkeypatch.setattr(_Exhaustion, "add",
                            lambda self, fort: forts.append(fort)
                            or add(self, fort))
        g = build_butterfly(2)
        verdict = min_edge_forcing(g)
        assert len(forts) == 20
        assert forts[:4] == [1 << x | 1 << y for x, y in (
            o.blocked_pair for o in structural_lower_bound(g)[1])]
        assert all(is_minimal_fort(g, vertex_set(f)) for f in forts)
        assert verdict.explored == 16


class TestNoSmaller:
    """Sizes 1 to k - 1 through one search find no witness iff no matching
    of size below k is edge-forcing."""

    def test_vacuous(self):
        assert first_matching(cycle_graph(4), range(1, 1)) == (None, 0)

    def test_k4(self):
        assert first_matching(complete_graph(4), range(1, 2))[0] is None
        assert first_matching(complete_graph(4), range(1, 3))[0] is not None

    def test_monotone_failure_recount(self):
        # removing the largest-index edge never flips an all-fail verdict
        rng = random.Random(13)
        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 6), 0.6)
            k = 2
            if first_matching(g, range(1, k + 1))[0] is not None:
                continue
            if g.edge_count < 2:
                continue
            reduced = from_edges(g.vertex_count, g.edges[:-1])
            assert first_matching(reduced, range(1, k + 1))[0] is None
            dropped = g.edges[-1]
            with_e = sum(1 for m in matchings_of_size(g, k) if dropped in m)
            without = sum(1 for _ in matchings_of_size(reduced, k))
            assert with_e + without == sum(1 for _ in matchings_of_size(g, k))
