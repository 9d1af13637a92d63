"""Exact zero-forcing and edge-forcing numbers at desk scale."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .constructions import structural_lower_bound
from .graph import Edge, Graph, GraphError
from .kernels import extend_closure

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


def require_vertex(g: Graph) -> None:
    """ValueError for a graph with no vertex: the empty set forces it, while
    the exact searches and their certificates start at size 1."""
    if g.vertex_count < 1:
        raise ValueError("graph must have at least one vertex")


def _first_forcing(g: Graph, items: Sequence[tuple[int, ...]], k: int
                   ) -> tuple[Optional[tuple[tuple[int, ...], ...]], int]:
    """First forcing k-combination of pairwise disjoint `items`, and the
    number of combinations tested up to it (all of them if none forces).

    An item is a tuple of one vertex (zero forcing) or of an edge's two
    endpoints (edge forcing).  Combinations go in lexicographic order of
    item positions, as itertools.combinations and graph.matchings_of_size
    list them.  The search is depth first and keeps each prefix's closed
    state; a child extends a copy of it by one item, since
    cl(S | T) = cl(cl(S) | T).  An item whose vertices are all black adds
    nothing, so its state is its parent's, and a leaf of that kind is
    tested without a kernel call.
    """
    if k < 0:
        raise GraphError(f"combination size must be non-negative, got {k}")
    if k == 0:
        return ((), 1) if g.vertex_count == 0 else (None, 1)
    adj = g.adjacency
    used = bytearray(g.vertex_count)
    chosen: list[tuple[int, ...]] = []
    tested = 0

    def search(start: int, need: int, black: bytearray, counts: list[int]
               ) -> bool:
        nonlocal tested
        # stop where too few items are left to complete the combination
        for i in range(start, len(items) - need + 1):
            item = items[i]
            first, last = item[0], item[-1]  # equal for a vertex item
            if used[first] or used[last]:
                continue
            state, cnt = black, counts
            if not (black[first] and black[last]):
                state, cnt = bytearray(black), counts[:]
                extend_closure(adj, state, cnt, item)
            if need == 1:
                tested += 1
                if 0 not in state:
                    chosen.append(item)
                    return True
                continue
            used[first] = used[last] = 1
            chosen.append(item)
            if search(i + 1, need - 1, state, cnt):
                return True
            chosen.pop()
            used[first] = used[last] = 0
        return False

    if search(0, k, bytearray(g.vertex_count), [len(a) for a in adj]):
        return tuple(chosen), tested
    return None, tested


def first_forcing_subset(g: Graph, k: int
                         ) -> tuple[Optional[frozenset[int]], int]:
    """The lex-first zero-forcing set of k vertices (None if none forces)
    and the number of k-subsets tested."""
    found, tested = _first_forcing(g, [(v,) for v in range(g.vertex_count)],
                                   k)
    return (None if found is None
            else frozenset(v for v, in found)), tested


def min_zero_forcing(g: Graph,
                     max_vertices: int = DEFAULT_MAX_VERTICES
                     ) -> tuple[int, frozenset[int]]:
    """Smallest zero-forcing set size with its lex-first witness.

    Searches k ascending from max(1, min degree); min degree is a valid
    lower bound because the first vertex of each forcing chain needs all
    its other neighbors black.
    """
    require_vertex(g)
    n = g.vertex_count
    if n > max_vertices:
        raise InstanceTooLarge(
            f"{n} vertices exceed the exhaustive-search guard {max_vertices}; "
            f"raise max_vertices explicitly to proceed")
    for k in range(max(1, g.min_degree()), n + 1):
        witness, _ = first_forcing_subset(g, k)
        if witness is not None:
            return k, witness
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
        found, tested = _first_forcing(g, g.edges, k)
        if not tested:
            break
        counts[k] = tested
        if found is not None:
            return frozenset(found), counts
        k += 1
    return None, counts


def min_edge_forcing(g: Graph,
                     max_edges: int = DEFAULT_MAX_EDGES) -> EdgeForcingVerdict:
    """Exact edge-forcing number, or NotExists after full exhaustion.

    k starts at the obstruction lower bound, since smaller matchings
    provably fail.  A not-exists verdict also counts the matchings below
    that bound, so its per-size counts cover the whole exhaustion.
    """
    require_vertex(g)
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
