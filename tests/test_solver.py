import itertools
import random

import pytest

from edgeforce.butterfly import build_butterfly
from edgeforce.engine import is_edge_forcing_set, is_zero_forcing_set
from edgeforce.graph import from_edges, is_matching, matchings_of_size
from edgeforce.constructions import structural_lower_bound
from edgeforce.certificates import bf2_nonexistence_counts
from edgeforce.solver import (InstanceTooLarge, exhaust_matchings,
                              min_edge_forcing, min_zero_forcing)

from conftest import complete_graph, cycle_graph, path_graph, random_graph


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
            if is_matching(g, combo) and is_edge_forcing_set(g, combo):
                return size
    return best


class TestMinZeroForcing:
    def test_path(self):
        assert min_zero_forcing(path_graph(5)) == (1, frozenset({0}))

    def test_cycle(self):
        assert min_zero_forcing(cycle_graph(6)) == (2, frozenset({0, 1}))

    def test_k4_matches_oracle(self):
        k4 = complete_graph(4)
        value, witness = min_zero_forcing(k4)
        assert value == oracle_min_zero_forcing(k4) == 3
        assert witness == frozenset({0, 1, 2})

    def test_witness_reverifies(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8), 0.4)
            value, witness = min_zero_forcing(g)
            assert len(witness) == value
            assert is_zero_forcing_set(g, witness)

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            min_zero_forcing(path_graph(30))
        # explicit override works
        assert min_zero_forcing(path_graph(30), max_vertices=30)[0] == 1


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
        verdict = min_edge_forcing(from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert not verdict.exists
        assert verdict.max_matching_size_searched == 1

    def test_bf2_not_exists(self):
        verdict = min_edge_forcing(build_butterfly(2))
        assert not verdict.exists
        assert verdict.max_matching_size_searched == 4

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
        rng = random.Random(55)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            verdict = min_edge_forcing(g)
            witness, counts = exhaust_matchings(g, 1)
            assert verdict.witness == witness
            if witness is None:
                assert verdict.matchings_tested_per_size == counts

    def test_not_exists_counts_are_the_whole_exhaustion(self):
        star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        for g in (star, build_butterfly(2)):
            verdict = min_edge_forcing(g)
            assert not verdict.exists
            assert verdict.matchings_tested_per_size == \
                bf2_nonexistence_counts(g)
        # BF(2) searches from its lower bound 4; sizes 1-3 are filled in
        assert verdict.explored == 136

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            min_edge_forcing(build_butterfly(3))


class TestNoSmaller:
    """exhaust_matchings(g, 1, k) finds no witness iff no matching of size
    below k is edge-forcing."""

    def test_vacuous(self):
        assert exhaust_matchings(cycle_graph(4), 1, 1) == (None, {})

    def test_k4(self):
        assert exhaust_matchings(complete_graph(4), 1, 2)[0] is None
        assert exhaust_matchings(complete_graph(4), 1, 3)[0] is not None

    def test_monotone_failure_recount(self):
        # removing the largest-index edge never flips an all-fail verdict
        rng = random.Random(13)
        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 6), 0.6)
            k = 2
            if exhaust_matchings(g, 1, k + 1)[0] is not None:
                continue
            if g.edge_count < 2:
                continue
            reduced = from_edges(g.vertex_count, g.edges[:-1])
            assert exhaust_matchings(reduced, 1, k + 1)[0] is None
            dropped = g.edges[-1]
            with_e = sum(1 for m in matchings_of_size(g, k) if dropped in m)
            without = sum(1 for _ in matchings_of_size(reduced, k))
            assert with_e + without == sum(1 for _ in matchings_of_size(g, k))
