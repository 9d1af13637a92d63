"""Exact zero-forcing and edge-forcing numbers at desk scale."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .constructions import structural_lower_bound
from .engine import forces_all, matching_endpoints
from .graph import Edge, Graph, matchings_of_size

DEFAULT_MAX_VERTICES = 24
DEFAULT_MAX_EDGES = 40


class InstanceTooLarge(RuntimeError):
    """Explicit refusal for instances beyond the configured exhaustive-search guard."""


@dataclass(frozen=True)
class EdgeForcingVerdict:
    """Outcome of the exact edge-forcing search.

    kind is "exists" (with optimal value and a witness) or "not-exists"
    (no matching of any size forces; max_matching_size_searched documents
    how far the exhaustion went).  `explored` counts the candidate
    matchings the search tested, from the lower bound up.
    `matchings_tested_per_size` maps each size to its count of matchings
    tested; for a not-exists verdict it covers every size from 1, the
    sizes below the lower bound included, so it is the whole exhaustion.
    """

    kind: str
    value: Optional[int] = None
    witness: Optional[frozenset[Edge]] = None
    max_matching_size_searched: int = 0
    explored: int = 0
    matchings_tested_per_size: dict[int, int] = field(default_factory=dict)

    @property
    def exists(self) -> bool:
        return self.kind == "exists"


def min_zero_forcing(g: Graph,
                     max_vertices: int = DEFAULT_MAX_VERTICES
                     ) -> tuple[int, frozenset[int]]:
    """Smallest zero-forcing set size with its lex-first witness.

    Searches k ascending from max(1, min degree); min degree is a valid
    lower bound because the first vertex of each forcing chain needs all
    its other neighbors black.
    """
    n = g.vertex_count
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if n > max_vertices:
        raise InstanceTooLarge(
            f"{n} vertices exceed the exhaustive-search guard {max_vertices}; "
            f"raise max_vertices explicitly to proceed")
    for k in range(max(1, g.min_degree()), n + 1):
        for subset in itertools.combinations(range(n), k):
            if forces_all(g, subset):
                return k, frozenset(subset)
    raise AssertionError("unreachable: V itself is always zero-forcing")


def exhaust_matchings(g: Graph, start: int = 1, stop: Optional[int] = None
                      ) -> tuple[Optional[frozenset[Edge]], dict[int, int]]:
    """Test every matching of size start, start+1, ... (below `stop`).

    Sizes rise until a matching forces the whole graph or a size has no
    matching at all.  Returns the first forcing matching in lexicographic
    edge order (None if there is none) and the number of matchings tested
    at each size that had any.
    """
    counts: dict[int, int] = {}
    k = start
    while stop is None or k < stop:
        tested = 0
        for m in matchings_of_size(g, k):
            tested += 1
            # the enumerator only yields valid matchings, so the membership
            # test reduces to a closure coverage check
            if forces_all(g, matching_endpoints(m)):
                counts[k] = tested
                return m, counts
        if not tested:
            break
        counts[k] = tested
        k += 1
    return None, counts


def min_edge_forcing(g: Graph,
                     max_edges: int = DEFAULT_MAX_EDGES) -> EdgeForcingVerdict:
    """Exact edge-forcing number, or NotExists after full exhaustion.

    k starts at the obstruction lower bound, since smaller matchings
    provably fail.  A not-exists verdict also counts the matchings below
    that bound, so its per-size counts cover the whole exhaustion.
    """
    if g.edge_count > max_edges:
        raise InstanceTooLarge(
            f"{g.edge_count} edges exceed the exhaustive-search guard "
            f"{max_edges}; raise max_edges explicitly to proceed")
    bound, _ = structural_lower_bound(g)
    start = max(1, bound)
    witness, counts = exhaust_matchings(g, start)
    explored = sum(counts.values())
    if witness is not None:
        return EdgeForcingVerdict(
            kind="exists", value=len(witness), witness=witness,
            max_matching_size_searched=len(witness), explored=explored,
            matchings_tested_per_size=counts)
    below, below_counts = exhaust_matchings(g, 1, start)
    if below is not None:
        raise AssertionError(
            f"matching {sorted(below)} forces below the lower bound {bound}")
    return EdgeForcingVerdict(
        kind="not-exists",
        max_matching_size_searched=max(counts, default=start - 1),
        explored=explored,
        matchings_tested_per_size={**below_counts, **counts})
