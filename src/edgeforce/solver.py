"""Exact zero-forcing and edge-forcing numbers at desk scale, both from one
exhaustion routine, `_Exhaustion`, which copies the caller's forts into
its own list and checks them: a listed set that is not a fort could rule
out a forcing set.  Both searches return a `Verdict`."""

from __future__ import annotations

from operator import index
from typing import Iterable, NamedTuple, Optional, Sequence

from .constructions import structural_lower_bound
from .graph import Graph, GraphError, is_vertex
from .kernels import extend_closure

DEFAULT_MAX_VERTICES = 24
DEFAULT_MAX_EDGES = 40
_WHITE = bytes.maketrans(b"\0\1", b"10")  # black byte -> white-set digit


class InstanceTooLarge(RuntimeError):
    """Explicit refusal for instances beyond the configured exhaustive-search guard."""


class NotAFort(GraphError):
    """A listed fort that is not one: "forts[1] is not a fort: it is empty"."""


def check_guard(n: int, count: int, limit: int, what: str) -> None:
    """The refusals of an exact search, in its order, from the counts of a
    graph with n vertices, built or not: ValueError when n is 0 (the empty
    set forces that graph, while the searches and their certificates start
    at size 1), then InstanceTooLarge when `count` `what` ("vertices" or
    "edges") exceed the guard `limit` of the search that takes
    max_<what>."""
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if count > limit:
        raise InstanceTooLarge(
            f"{count} {what} exceed the exhaustive-search guard {limit}; "
            f"raise max_{what} explicitly to proceed")


class Verdict(NamedTuple):
    """Outcome of an exact search: what it found, what it did, and the forts
    it knew.

    `witness` is the lex-first forcing set of least size (vertices for
    zero forcing, edges for edge forcing), or None when no combination of
    any size forces.  `explored` is the number of combinations the search
    tested, all sizes together: the leaves it closed, or found black
    already, once the forts had ruled out the rest unclosed.  `forts`
    lists the forts the caller seeded, then those the search harvested,
    as ascending vertex lists; it is the verdict's own list.  `explored`
    and `forts` describe the run, not the answer, so they take no part in
    equality or the hash, which read only `witness`: a search seeded with
    more forts tests fewer leaves.
    """

    witness: Optional[frozenset]
    explored: int
    forts: list[list[int]]

    def __eq__(self, other: object) -> bool:
        if type(other) is not Verdict:
            return NotImplemented
        return self.witness == other.witness

    def __ne__(self, other: object) -> bool:
        # tuple's own __ne__ would compare every field
        if type(other) is not Verdict:
            return NotImplemented
        return self.witness != other.witness

    def __hash__(self) -> int:
        return hash(self.witness)

    @property
    def exists(self) -> bool:
        return self.witness is not None

    @property
    def value(self) -> Optional[int]:
        return None if self.witness is None else len(self.witness)


class _Exhaustion:
    """The search for the first forcing k-combination of pairwise disjoint
    `items`, for each k asked, with one pool of forts for all of them.

    An item is a tuple of one vertex (zero forcing) or of an edge's two
    endpoints (edge forcing); `items` is either every vertex of g in
    ascending order or `g.edges`.  Combinations go in lexicographic order
    of item positions, as itertools.combinations and
    graph.matchings_of_size list them.  The search is depth first, and a
    prefix is closed only when a leaf below it is tested: most subtrees
    are pruned whole, so their prefixes need no closure.  A node carries
    the closed state of its nearest closed ancestor and the vertices
    chosen since; the first tested leaf closes its prefix from that state
    in one kernel call when one of them is white there, since cl(S | T) =
    cl(cl(S) | T), and its sibling leaves reuse the result.  A leaf
    extends a copy of its prefix's state by its item; an item whose
    vertices are all black adds nothing, so such a leaf is tested without
    a kernel call.

    Forts prune the search.  A fort is a non-empty vertex set F such that
    no vertex outside F has exactly one neighbor in F; a fort disjoint
    from S stays disjoint from cl(S), so every forcing set meets every
    fort (Fast & Hicks 2018).  `forts` holds forts of g as vertex
    bitmasks: the caller may seed it through `add` with forts it does not
    list, then through `first_over` with the forts it lists, which are
    checked, and each leaf whose closure leaves a vertex white adds a
    minimal one, for this size and the later ones.  `listed` holds the
    listed forts and then the harvest, each as an ascending list of plain
    ints; the caller's own containers are only read.  `_minimal_fort`
    shrinks the stall's white set to that fort on the neighbour bitmasks
    `nbr`, with no kernel call, so the only kernel calls are the
    prefixes' and the leaves' closures.  A
    search seeded with every fort an earlier search of g harvested tests
    no leaf that stalled there, so it runs no `_minimal_fort` and closes
    only the witness and its prefix.

    The traversal runs on bitmasks over item positions: `holds` gives
    each vertex's items, `clash` each item's overlapping items, and
    `covers` each fort's touching items.  Call a fort unhit when no
    chosen item touches it, and a node's items free when they come later
    and share no vertex with a chosen item.  The search skips
    - a node where more unhit forts than items still to choose meet
      pairwise disjoint sets of the node's free items;
    - a node where the unhit forts whose touching items all hold one
      vertex x (`shared`, found once in `add`: in an edge search, twin
      pendant leaves of x) have no free item in common: at most one
      chosen item holds x, so that one must hit them all;
    - the rest of a node's loop once some unhit fort, one harvested below
      the node included, meets no later free item;
    - every leaf outside the AND of the free items and the cover of each
      unhit fort, the fort each stall harvests included: only those
      leaves are tested, in ascending order, and `explored` counts them.
    So the search tests, in lexicographic order, exactly the combinations
    that meet every fort of the pool when they are reached, and the pool
    grows only at tested leaves.  A skip is allowed only where it drops
    subtrees that hold no such combination: then the tested leaves, and
    with them the witness, `explored` and the harvest, stay the same.
    Nothing is counted in the subtrees it skips, so the order of the search
    is its own; the per-size matching counts of a nonexistence claim come
    from `graph.matching_counts`.
    """

    def __init__(self, g: Graph, items: Sequence[tuple[int, ...]]):
        self.g, self.items = g, items
        self.nbr = [sum(1 << w for w in a) for a in g.adjacency]
        holds = [0] * g.vertex_count  # vertex -> positions of items on it
        for i, item in enumerate(items):
            for v in item:
                holds[v] |= 1 << i
        self.holds = holds
        # item position -> positions of the items sharing a vertex with it
        self.clash = [holds[item[0]] | holds[item[-1]] for item in items]
        self.ends = [1 << item[0] | 1 << item[-1] for item in items]
        self.forts: list[int] = []
        self.touch = [0] * len(items)  # item position -> forts it touches
        self.covers: list[int] = []  # fort -> positions of items touching it
        self.shared: list[int] = []  # fort -> x as a bit, or 0 (see `packs`)
        self.grouped = 0  # the forts with a shared vertex x
        self.listed: list[list[int]] = []  # listed forts, then the harvest
        self.explored = 0  # leaves tested, over every size searched

    def add(self, fort: int) -> None:
        """Put the vertex bitmask `fort` in the pool."""
        bit = 1 << len(self.forts)
        self.forts.append(fort)
        cover = 0
        while fort:
            low = fort & -fort
            fort ^= low
            cover |= self.holds[low.bit_length() - 1]
        self.covers.append(cover)
        both = -1 if cover else 0  # the vertices all its items hold
        while cover:
            low = cover & -cover
            cover ^= low
            i = low.bit_length() - 1
            self.touch[i] |= bit
            both &= self.ends[i]
        self.shared.append(both & -both)
        if both:
            self.grouped |= bit

    def first(self, k: int) -> Optional[tuple[tuple[int, ...], ...]]:
        """The first forcing k-combination, k >= 1, or None if none forces."""
        g, items = self.g, self.items
        clash, touch, covers, forts, shared = (
            self.clash, self.touch, self.covers, self.forts, self.shared)
        adj = g.adjacency
        m = len(items)
        chosen: list[tuple[int, ...]] = []  # the witness, last item first

        def packs(free: int, need: int, unhit: int) -> int:
            # -1 when `need` of the free items cannot hit every unhit fort:
            # more than `need` unhit forts meet pairwise disjoint sets of
            # them, or the forts whose items all hold one vertex x share no
            # free item, while at most one chosen item holds x; else the
            # first position from which some unhit fort meets no free item
            group = unhit & self.grouped
            if group:
                at: dict[int, int] = {}  # x -> free items of all its forts
                while group:
                    low = group & -group
                    group ^= low
                    j = low.bit_length() - 1
                    at[shared[j]] = at.get(shared[j], free) & covers[j]
                if not all(at.values()):
                    return -1
            taken = packed = 0
            least = (1 << m) - 1  # the cover of lowest bit_length
            while unhit:
                low = unhit & -unhit
                unhit ^= low
                cover = covers[low.bit_length() - 1] & free
                if cover < least:
                    least = cover
                if not cover & taken:
                    taken |= cover
                    packed += 1
                    if packed > need:
                        return -1
            return least.bit_length()

        def search(start: int, need: int, hit: int, blocked: int,
                   black: bytearray, counts: list[int],
                   pending: tuple[int, ...]) -> bool:
            # (black, counts) is the closed state of the nearest closed
            # ancestor and `pending` the vertices chosen since; `blocked`
            # holds the positions of the items that share a vertex with a
            # chosen one
            unhit = ~hit & ((1 << len(forts)) - 1)
            free = ~blocked & ((1 << m) - (1 << start))
            if need == 1:
                # the leaves that meet every unhit fort, in ascending order
                live = free
                while unhit and live:
                    low = unhit & -unhit
                    unhit ^= low
                    live &= covers[low.bit_length() - 1]
                while live:
                    low = live & -live
                    live ^= low
                    item = items[low.bit_length() - 1]
                    self.explored += 1
                    if pending:
                        # close the prefix once, for this leaf and its
                        # siblings
                        if any(not black[v] for v in pending):
                            black, counts = bytearray(black), counts[:]
                            extend_closure(adj, black, counts, pending)
                        pending = ()
                    state = black
                    if not (black[item[0]] and black[item[-1]]):
                        state = bytearray(black)
                        extend_closure(adj, state, counts[:], item)
                    if 0 not in state:
                        chosen.append(item)
                        return True
                    fort = _minimal_fort(
                        self.nbr, int(state[::-1].translate(_WHITE), 2))
                    self.add(fort)
                    self.listed.append(
                        [v for v in range(fort.bit_length()) if fort >> v & 1])
                    live &= covers[-1]
                return False
            stop = packs(free, need, unhit)
            # stop where some unhit fort meets no later free item (at once
            # when `packs` rules the node out) or too few items are left to
            # complete the combination
            free &= (1 << max(min(m - need + 1, stop), 0)) - 1
            while free:
                low = free & -free
                free ^= low
                i = low.bit_length() - 1
                if i >= stop:
                    return False
                item = items[i]
                harvested = len(forts)
                if search(i + 1, need - 1, hit | touch[i], blocked | clash[i],
                          black, counts, pending + item):
                    chosen.append(item)
                    return True
                if len(forts) > harvested:
                    # a fort harvested below meets no chosen item
                    stop = min(stop, min(covers[harvested:]).bit_length())
            return False

        if search(0, k, 0, 0, bytearray(g.vertex_count),
                  [len(a) for a in adj], ()):
            return tuple(reversed(chosen))
        return None

    def first_over(self, sizes: Iterable[int],
                   forts: Iterable[Sequence[int]] = ()
                   ) -> Optional[tuple[tuple[int, ...], ...]]:
        """`first` for each of `sizes` in turn: the first forcing
        combination, or None if none forces.  Each of `forts` (vertex
        sequences) joins the pool, and a copy of plain ints joins `listed`;
        NotAFort names the first that is not a fort of g."""
        for i, fort in enumerate(forts):
            self.add(self._fort_mask(i, fort))
            self.listed.append(list(map(index, fort)))
        for k in sizes:
            found = self.first(k)
            if found is not None:
                return found
        return None

    def _fort_mask(self, i: int, fort: Sequence[int]) -> int:
        """The bitmask of `fort`, entry i of the caller's forts, which must
        be non-empty vertices (`is_vertex`), strictly ascending, inside
        [0, n) and a fort."""
        nbr, n = self.nbr, len(self.nbr)
        where = f"forts[{i}] is not a fort:"
        if not fort:
            raise NotAFort(f"{where} it is empty")
        for v in fort:
            if not is_vertex(v):
                raise NotAFort(f"{where} entry {v!r} is not a vertex")
        if any(a >= b for a, b in zip(fort, fort[1:])):
            raise NotAFort(f"{where} it is not strictly ascending")
        if fort[0] < 0 or fort[-1] >= n:
            raise NotAFort(f"{where} it leaves [0, {n})")
        inside = once = twice = 0
        for v in map(index, fort):
            inside |= 1 << v
            twice |= once & nbr[v]
            once |= nbr[v]
        if once & ~twice & ~inside:
            raise NotAFort(f"{where} a vertex outside it has exactly one "
                           f"neighbor in it")
        return inside


def _minimal_fort(nbr: list[int], white: int) -> int:
    """A minimal fort inside the fort `white`, both vertex bitmasks;
    `nbr` holds each vertex's neighbours as a bitmask.

    For each vertex w of `white` in ascending order that is still in the
    fort, shrinks the fort less w to the largest fort inside it, and keeps
    that when it is not empty.  The largest fort inside a set S is what
    stays after removing, while some vertex outside S has exactly one
    neighbour in S, that neighbour: the white set of the closure of the
    complement of S.  So a trial gives the fort that blackening w in the
    closed state of the fort's complement leaves white, with no kernel
    call.  That state is closed, so only w, the removed vertices and
    their neighbours outside the set can have exactly one neighbour left
    inside, and only those are examined.  Each vertex of the result left
    no fort when it was tried, so no fort inside the result leaves it
    out: the fort is minimal.

    A trial stops, as one that leaves no fort, when it would remove a
    vertex tried already: that vertex is still in the fort because its
    trial left no fort, so every fort inside the fort holds it.
    """
    fort = white
    while white:
        low = white & -white
        white ^= low
        if not fort & low:
            continue
        rest = fort ^ low
        # vertices outside rest still to examine; rest only shrinks, so
        # they stay outside
        check = low | nbr[low.bit_length() - 1] & ~rest
        while check:
            v = check & -check
            check ^= v
            inside = nbr[v.bit_length() - 1] & rest
            if inside and not inside & (inside - 1):
                if not inside & white:
                    rest = 0
                    break
                rest ^= inside
                check |= inside | nbr[inside.bit_length() - 1] & ~rest
        if rest:
            fort = rest
    return fort


def min_zero_forcing(g: Graph,
                     max_vertices: int = DEFAULT_MAX_VERTICES,
                     forts: Iterable[Sequence[int]] = ()) -> Verdict:
    """Smallest zero-forcing set with its lex-first witness, as a Verdict,
    from a search over the sizes max(1, min degree) to n.

    Min degree is a valid lower bound because the first vertex of each
    forcing chain needs all its other neighbors black.  `forts`, when
    given, lists forts of g as vertex sequences: they seed the search's
    pool, and the verdict's `forts` lists them, then the forts the search
    harvested.  A fort rules out no forcing set, so the witness is the
    same with any forts; a listed set that is not a fort raises NotAFort
    before the search starts.
    """
    n = g.vertex_count
    check_guard(n, n, max_vertices, "vertices")
    search = _Exhaustion(g, [(v,) for v in range(n)])
    found = search.first_over(range(max(1, g.min_degree()), n + 1), forts)
    return Verdict(frozenset(v for v, in found), search.explored,
                   search.listed)


def min_edge_forcing(g: Graph,
                     max_edges: int = DEFAULT_MAX_EDGES,
                     forts: Iterable[Sequence[int]] = ()) -> Verdict:
    """The exact edge-forcing number as a Verdict, which does not exist
    when full exhaustion finds no forcing matching.

    One search over the sizes 1 to min(m, n // 2): no matching is larger.
    The blocked pair of each obstruction in `structural_lower_bound`'s
    family is a fort, and the family's cycles are edge-disjoint, so those
    forts seed the pool with disjoint covers: every size below the bound
    is ruled out at the root, with no leaf tested.  `forts` seeds the pool
    after them, as in `min_zero_forcing`; the obstruction forts, derived
    again on every run, are not listed in the verdict.
    """
    check_guard(g.vertex_count, g.edge_count, max_edges, "edges")
    search = _Exhaustion(g, g.edges)
    for o in structural_lower_bound(g)[1]:
        x, y = o.blocked_pair
        search.add(1 << x | 1 << y)
    found = search.first_over(
        range(1, min(g.edge_count, g.vertex_count // 2) + 1), forts)
    return Verdict(None if found is None else frozenset(found),
                   search.explored, search.listed)
