"""Canonical immutable graph representation and matching enumeration."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from numbers import Integral
from typing import Iterable, Iterator, Optional

Edge = tuple[int, int]


class GraphError(ValueError):
    """Raised when a graph or edge set violates a structural precondition."""


def is_vertex(v: object) -> bool:
    """The package's rule for a vertex: an integer (numpy integer scalars
    included) that is not a bool, which would pass as 0 or 1."""
    return type(v) is int or isinstance(v, Integral) and not isinstance(v, bool)


def normalize_edge(u: int, v: int) -> Edge:
    """Return the (min, max) orientation of an edge."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with dense integer vertices.

    Vertices are 0..vertex_count-1.  `edges` are canonical: sorted (u, v)
    pairs with u < v, no duplicates, built by `from_edges` from outside
    input or by a generator that emits them so (`build_butterfly`,
    `build_gbar`); the constructor does not check.  An edge's position in
    the list is its canonical identity (used by certificates and
    enumeration order).  `butterfly` is r when `build_butterfly(r)` made
    the graph: it names the graph BF(r) in certificates and gives its
    vertices their "[row,level]" labels.  It takes no part in equality.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    butterfly: Optional[int] = field(default=None, compare=False)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbors, ascending; `build_butterfly` fills it in.

        The sorted edge list appends a vertex's smaller neighbors first
        (edges (u, x), u < x, precede every edge (x, v)), each run in
        ascending order, so no list needs sorting."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Each edge's position in `edges`.  The package finds positions
        by bisection instead; the tests use this dict as an oracle, and
        perfbench's tracer times it by name."""
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def csr(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Adjacency in CSR form (indptr, indices): vertex v's neighbors,
        ascending as in `adjacency`, are indices[indptr[v]:indptr[v + 1]].

        No closure reads it: it is kept only for perfbench's tracer, which
        times it by name, and for `test_csr_lists_adjacency`."""
        adj = self.adjacency
        return (0, *accumulate(map(len, adj))), tuple(chain.from_iterable(adj))

    @cached_property
    def directed_pairs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Both orientations of every edge as (src, dst) tuples.

        Like `csr`, it is kept only for perfbench's tracer and for
        `test_csr_lists_adjacency`."""
        src, dst = tuple(zip(*self.edges)) or ((), ())
        return src + dst, dst + src

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def min_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return min(len(a) for a in self.adjacency)

    def vertex_label(self, v: int) -> str:
        """The label "[row,level]" of a vertex of BF(r), else str(v).
        Vertex level * 2^r + row keeps its row in the low r bits."""
        r = self.butterfly
        if r is not None and is_vertex(v) and 0 <= v < self.vertex_count:
            return f"[{v & ((1 << r) - 1)},{v >> r}]"
        return str(v)

    def to_json_dict(self) -> dict:
        return {"n": self.vertex_count, "edges": [list(e) for e in self.edges]}


def from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a canonical Graph from outside input (JSON, tests), rejecting
    loops, duplicates and bad indices.  Input edge order and orientation do
    not affect the result."""
    if vertex_count < 0:
        raise GraphError(f"vertex_count must be non-negative, got {vertex_count}")
    seen: set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"edge ({u},{v}) has endpoint out of range [0,{vertex_count})")
        e = normalize_edge(u, v)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(e)
    return Graph(vertex_count, tuple(sorted(seen)))


def matching_diagnostic(g: Graph, edges: Iterable[tuple[int, int]]) -> Optional[str]:
    """Why `edges` is not a matching of g, or None if it is one.

    Distinguishes a non-edge from a shared endpoint.  Reads the adjacency,
    which every closure builds, rather than the larger `edge_index` dict.
    """
    adj = g.adjacency
    used: set[int] = set()
    for u, v in edges:
        e = normalize_edge(u, v)
        if not (0 <= e[0] and e[1] < g.vertex_count and e[1] in adj[e[0]]):
            return f"non-edge: {e} is not an edge of the graph"
        if e[0] in used or e[1] in used:
            shared = e[0] if e[0] in used else e[1]
            return f"shares endpoint: vertex {shared} appears in two edges"
        used.update(e)
    return None


def matchings_of_size(g: Graph, k: int) -> Iterator[frozenset[Edge]]:
    """Yield every k-edge matching exactly once, lexicographic in edge ids.

    The stream is empty when k exceeds the maximum matching size.  Two runs
    produce identical sequences.  The exhaustive searches in `solver` walk
    the same order themselves, closing a prefix only when a matching below
    it is tested; this generator is the tests' oracle for them, and
    perfbench's tracer wraps it by name.
    """
    if k < 0:
        raise GraphError(f"matching size must be non-negative, got {k}")
    m = g.edge_count
    edges = g.edges
    if k == 0:
        yield frozenset()
        return

    chosen: list[Edge] = []
    used: set[int] = set()

    def extend(start: int, need: int) -> Iterator[frozenset[Edge]]:
        # prune: not enough edges left to reach the target size
        if m - start < need:
            return
        for i in range(start, m):
            u, v = edges[i]
            if u in used or v in used:
                continue
            chosen.append(edges[i])
            used.add(u)
            used.add(v)
            if need == 1:
                yield frozenset(chosen)
            else:
                yield from extend(i + 1, need - 1)
            chosen.pop()
            used.discard(u)
            used.discard(v)

    yield from extend(0, k)
