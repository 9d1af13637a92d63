"""Zero-forcing -> edge-forcing hardness gadget.

From a base graph G, the lifted graph has a primed twin x' for every
vertex x (dense index x + |V|).  Its edges fall into three classes, and a
lifted edge (a, b), a < b, tells its class by its indices alone:

* E  - the original edges (x, y): b < |V|,
* E' - the twin matching (x, x'): b == a + |V|,
* E''- for every edge (x, y): (y, x') and (x, y'): any other b.

What is proven is one direction: a zero-forcing set S of G lifts to the
twin matching {(x, x') : x in S} of the same size, which forces the
lifted graph (`lift_zero_forcing`), so ef(lifted) <= Z(G).  The converse
fails, so the gadget does not preserve cardinality: the 7-vertex graph
with edges 0-1, 0-3, 0-4, 0-6, 1-2, 2-3, 2-4, 2-5, 5-6 has Z(G) = 4,
while the 3 lifted edges (0,1), (2,10), (4,7) force its lifted graph.
So `normalize_and_project` cannot map every minimum lifted witness to a
zero-forcing set of G of the same size, and `reduce --verify` reports
both numbers with `equal` false there.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

from .engine import is_edge_forcing_set
from .graph import Edge, Graph, matching_diagnostic, normalize_edge

log = logging.getLogger(__name__)

# normalize_and_project refuses to search more twin-replacement candidates
MAX_PROJECTION_CANDIDATES = 2 ** 20
# edge guard of the exact edge-forcing search on a lifted graph
MAX_LIFTED_EDGES = 120


@dataclass(frozen=True)
class ReductionMap:
    base: Graph
    lifted: Graph

    def prime(self, x: int) -> int:
        return x + self.base.vertex_count


def build_gbar(g: Graph) -> ReductionMap:
    """The lifted graph with 2|V| vertices and 3|E| + |V| edges.  Each class
    emits canonical edges and no two share one, so one sort suffices."""
    n = g.vertex_count
    edges = [*g.edges, *((x, x + n) for x in range(n))]
    for x, y in g.edges:
        edges += ((y, x + n), (x, y + n))
    return ReductionMap(base=g, lifted=Graph(2 * n, tuple(sorted(edges))))


def lift_zero_forcing(m: ReductionMap, s: set[int] | frozenset[int]) -> frozenset[Edge]:
    """S -> {(x, x')}: a matching of the lifted graph; edge-forcing iff S is
    zero-forcing on the base graph."""
    for x in s:
        if not (0 <= x < m.base.vertex_count):
            raise ValueError(f"vertex {x} not in the base graph")
    return frozenset(normalize_edge(x, m.prime(x)) for x in s)


def normalize_and_project(m: ReductionMap, x: set[Edge] | frozenset[Edge]
                          ) -> frozenset[int]:
    """Replace E/E'' edges by twin edges, then project to base vertices.

    Each non-twin edge offers two candidate base vertices: an E edge
    (a, b) can stand in for a or b, an E'' edge (u, v') for v or u.  No
    fixed per-edge choice preserves the forcing property on every input,
    so when the input is edge-forcing the candidates are searched (in a
    deterministic order, primed endpoint first for E'' edges and lower
    index first for E edges) for a same-size twin matching that still
    forces the lifted graph.  Non-forcing inputs take the first choice
    for every edge, with any collision de-duplicated and logged.  A search
    over more than MAX_PROJECTION_CANDIDATES choices raises ValueError.
    """
    edges = sorted(normalize_edge(u, v) for u, v in x)
    diag = matching_diagnostic(m.lifted, edges)
    if diag is not None:
        raise ValueError(f"input is not a matching of the lifted graph: {diag}")
    n = m.base.vertex_count
    # the edge's class from its indices (module docstring)
    candidates = [(a, b) if b < n else (a,) if b == a + n else (b - n, a)
                  for a, b in edges]
    if is_edge_forcing_set(m.lifted, edges):
        count = math.prod(map(len, candidates))
        if count > MAX_PROJECTION_CANDIDATES:
            raise ValueError(
                f"{count} twin-replacement candidates exceed the limit "
                f"{MAX_PROJECTION_CANDIDATES}")
        for combo in itertools.product(*candidates):
            chosen = set(combo)
            if len(chosen) < len(edges):
                continue
            twins = [normalize_edge(v, m.prime(v)) for v in chosen]
            if is_edge_forcing_set(m.lifted, twins):
                return frozenset(chosen)
        raise ValueError("no twin replacement preserves forcing")
    chosen = {c[0] for c in candidates}
    if len(chosen) < len(edges):
        log.warning("replacement collapsed %d edges to %d (non-minimal input)",
                    len(edges), len(chosen))
    return frozenset(chosen)
