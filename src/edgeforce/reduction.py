"""Zero-forcing -> edge-forcing hardness gadget.

From a base graph G, the lifted graph has a primed twin x' for every
vertex x (dense index x + |V|).  Its edges fall into three classes, and a
lifted edge (a, b), a < b, tells its class by its indices alone:

* E  - the original edges (x, y): b < |V|,
* E' - the twin matching (x, x'): b == a + |V|,
* E''- for every edge (x, y): (y, x') and (x, y'): any other b.

What is proven is one direction: a zero-forcing set S of G lifts to the
twin matching {(x, x') : x in S} of the same size, which forces the
lifted graph (`lift_zero_forcing`), so ef(lifted) <= Z(G).
`normalize_and_project` is the exact inverse of that map and nothing
more: it takes twin edges back to their base vertices and refuses any E
or E'' edge.  The converse inequality fails, so the gadget does not
preserve cardinality: the 7-vertex graph with edges 0-1, 0-3, 0-4, 0-6,
1-2, 2-3, 2-4, 2-5, 5-6 has Z(G) = 4, while the 3 lifted edges (0,1),
(2,10), (4,7) force its lifted graph, and `reduce --verify` reports both
numbers with `equal` false there.

`build_gbar` returns the lifted graph itself, and the two maps take it
and read the base graph's vertex count as half of its own.
"""

from __future__ import annotations

from .graph import Edge, Graph, is_vertex

# edge guard of the exact edge-forcing search on a lifted graph
MAX_LIFTED_EDGES = 120


def build_gbar(g: Graph) -> Graph:
    """The lifted graph with 2|V| vertices and 3|E| + |V| edges.  Each class
    emits canonical edges and no two share one, so one sort suffices."""
    n = g.vertex_count
    edges = [*g.edges, *((x, x + n) for x in range(n))]
    for x, y in g.edges:
        edges += ((y, x + n), (x, y + n))
    return Graph(2 * n, tuple(sorted(edges)))


def lift_zero_forcing(lifted: Graph, s: set[int] | frozenset[int]
                      ) -> frozenset[Edge]:
    """S -> {(x, x')}: a matching of `lifted`, the graph `build_gbar` made
    of a base graph with n = |V(lifted)| / 2 vertices; edge-forcing iff S
    is zero-forcing on the base graph."""
    n = lifted.vertex_count // 2
    for x in s:
        if not (is_vertex(x) and 0 <= x < n):
            raise ValueError(f"vertex {x!r} not in the base graph")
    return frozenset((x, x + n) for x in s)


def normalize_and_project(lifted: Graph, x: set[Edge] | frozenset[Edge]
                          ) -> frozenset[int]:
    """{(v, v')} -> {v}: the inverse of `lift_zero_forcing` on `lifted`.
    Any edge that is not a twin edge (v, v + n), 0 <= v < n, raises
    ValueError naming it."""
    n = lifted.vertex_count // 2
    base = set()
    for u, v in x:
        if not (is_vertex(u) and is_vertex(v) and 0 <= min(u, v) < n
                and abs(u - v) == n):
            raise ValueError(f"edge {(u, v)} is not a twin edge (v, v + {n})")
        base.add(min(u, v))
    return frozenset(base)
