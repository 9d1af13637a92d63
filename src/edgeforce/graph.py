"""Canonical immutable graph representation, matching enumeration and counts."""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, islice
from numbers import Integral
from operator import index, lt
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


class Frozen:
    """A record whose fields `__init__` writes into its instance dict, where
    `cached_property` also keeps its values; assigning or deleting an
    attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {type(self).__name__}.{name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class Graph(Frozen):
    """Simple undirected graph with dense integer vertices.

    Vertices are 0..vertex_count-1.  `edges` are canonical: sorted (u, v)
    pairs with u < v, no duplicates, built by `from_edges` from outside
    input or by a generator that emits them so (`build_butterfly`,
    `build_gbar`); the constructor does not check.  An edge's position in
    the list is its canonical identity (used by certificates and
    enumeration order).  `butterfly` is r when `build_butterfly(r)` made
    the graph: it names the graph BF(r) in certificates and gives its
    vertices their "[row,level]" labels.  It takes no part in equality
    or the hash.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    butterfly: Optional[int]

    def __init__(self, vertex_count: int, edges: tuple[Edge, ...],
                 butterfly: Optional[int] = None) -> None:
        d = self.__dict__
        d["vertex_count"], d["edges"], d["butterfly"] = (
            vertex_count, edges, butterfly)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Graph:
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return (f"Graph(vertex_count={self.vertex_count!r}, "
                f"edges={self.edges!r}, butterfly={self.butterfly!r})")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbors, ascending.  `from_edges` and
        `build_butterfly` fill it in as they build; it is computed here
        only for a graph made directly from canonical edges (`build_gbar`).

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
        with a forward scan of `edges` instead (`certificates.edge_witness`);
        the tests use this dict as an oracle, and perfbench's tracer times
        it by name."""
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
        # plain ints skip the call, as in `engine._vertex_set`
        if (r is not None and (type(v) is int or is_vertex(v))
                and 0 <= v < self.vertex_count):
            return f"[{v & ((1 << r) - 1)},{v >> r}]"
        return str(v)

    def to_json_dict(self) -> dict:
        return {"n": self.vertex_count, "edges": [list(e) for e in self.edges]}


def from_edges(vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a canonical Graph from outside input (JSON, tests), rejecting
    endpoints that are not vertices (`is_vertex`), loops, bad indices and
    duplicates; the GraphError names the first faulty edge in input order.
    Numpy integers are stored as plain ints.  Input edge order and
    orientation do not affect the result.

    One pass appends each edge to its endpoints' neighbor lists.  Sorted,
    they are the adjacency, and reading each vertex's larger neighbors in
    vertex order gives the canonical edges already sorted, so no edge is
    normalized, hashed or sorted.  A duplicate lands next to its copy
    there.  Only when the pass meets a fault is the input scanned again,
    in order, to name it."""
    if vertex_count < 0:
        raise GraphError(f"vertex_count must be non-negative, got {vertex_count}")
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)  # a fault is named by reading it again
    adj = _neighbor_lists(vertex_count, edges)
    if adj is None:
        raise _first_fault(vertex_count, edges)
    for a in adj:
        a.sort()
    adjacency = tuple(map(tuple, adj))
    del adj  # freed before the edges are made, which lowers the peak
    # Each vertex is named by the int object a lower neighbor lists for
    # it (`zip` reads `names` after that neighbor's loop has run), so the
    # edges share the input's ints instead of holding a new one per
    # vertex; a vertex with no lower neighbor keeps its `range` int.
    names = list(range(vertex_count))
    canonical = []
    for a, u in zip(adjacency, names):
        for v in a:
            if v > u:
                canonical.append((u, v))
                names[v] = v
    canonical = tuple(canonical)
    if not all(map(lt, canonical, islice(canonical, 1, None))):
        raise _first_fault(vertex_count, edges)
    g = Graph(vertex_count, canonical)
    g.__dict__["adjacency"] = adjacency  # fills the cached_property
    return g


def _neighbor_lists(n: int, edges: Iterable) -> Optional[list[list[int]]]:
    """Each vertex's neighbors in input order, or None at the first entry
    that is not a pair of distinct vertices in [0, n)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in edges:
            # plain ints skip the calls, as in `engine._vertex_set`
            if not (type(u) is int and type(v) is int):
                if not (is_vertex(u) and is_vertex(v)):
                    return None
                u, v = index(u), index(v)
            if u == v or not (0 <= u < n and 0 <= v < n):
                return None
            adj[u].append(v)
            adj[v].append(u)
    except (TypeError, ValueError):  # an entry that is not a pair
        return None
    return adj


def _first_fault(n: int, edges: Iterable) -> GraphError:
    """The error naming the first faulty edge of `edges`, which holds one.
    An entry that is not a pair raises here as it does in the pass."""
    seen: set[Edge] = set()
    for u, v in edges:
        if not (is_vertex(u) and is_vertex(v)):
            return GraphError(
                f"edge ({u!r},{v!r}) has an endpoint that is not an integer")
        u, v = index(u), index(v)
        if u == v:
            return GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            return GraphError(f"edge ({u},{v}) has endpoint out of range [0,{n})")
        e = normalize_edge(u, v)
        if e in seen:
            return GraphError(f"duplicate edge {e}")
        seen.add(e)
    raise AssertionError("the pass met a fault that the scan did not")


def matching_diagnostic(g: Graph, edges: Iterable[tuple[int, int]]) -> Optional[str]:
    """Why `edges` is not a matching of g, or None if it is one.

    Distinguishes a non-edge from a shared endpoint.  Reads the adjacency,
    which every closure builds, rather than the larger `edge_index` dict.
    """
    adj, n = g.adjacency, g.vertex_count
    used: set[int] = set()
    for u, v in edges:
        if not u < v:  # `normalize_edge`, inline
            u, v = v, u
        if not (0 <= u and v < n and v in adj[u]):
            return f"non-edge: {(u, v)} is not an edge of the graph"
        if u in used or v in used:
            shared = u if u in used else v
            return f"shares endpoint: vertex {shared} appears in two edges"
        used.add(u)
        used.add(v)
    return None


def matching_counts(g: Graph) -> tuple[int, ...]:
    """The number of k-edge matchings of g for k = 0, 1, ..., up to the
    maximum matching size ν(g), which is the length less one.

    The matchings of a vertex set S that holds an edge are those without
    its lowest such vertex v and, for each neighbour w of v in S, those of
    S less v and w with vw added; the counts of each S are memoised by its
    bitmask, and vertices with no neighbour in S are dropped first.  A
    nonexistence certificate's claim is these counts.
    """
    nbr = [sum(1 << w for w in a) for a in g.adjacency]
    memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def counts(mask: int) -> tuple[int, ...]:
        while mask:
            low = mask & -mask
            if nbr[low.bit_length() - 1] & mask:
                break
            mask ^= low
        got = memo.get(mask)
        if got is None:
            rest = mask ^ low
            sizes = list(counts(rest))
            partners = nbr[low.bit_length() - 1] & rest
            while partners:
                w = partners & -partners
                partners ^= w
                for s, c in enumerate(counts(rest ^ w), 1):
                    if s < len(sizes):
                        sizes[s] += c
                    else:
                        sizes.append(c)
            got = memo[mask] = tuple(sizes)
        return got

    return counts(sum(1 << v for v, a in enumerate(g.adjacency) if a))


def matchings_of_size(g: Graph, k: int) -> Iterator[frozenset[Edge]]:
    """Yield every k-edge matching exactly once, lexicographic in edge ids.

    The stream is empty when k exceeds the maximum matching size.  Two runs
    produce identical sequences.  The exhaustive searches in `solver` walk
    the same order themselves, closing a prefix only when a matching below
    it is tested; this generator is the tests' oracle for them and for
    `matching_counts`, and perfbench's tracer wraps it by name.
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
