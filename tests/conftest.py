import bisect
import itertools
import operator
import random
from numbers import Integral
from typing import Optional

from edgeforce.graph import (Graph, GraphError, from_edges, is_vertex,
                             normalize_edge)
from edgeforce.kernels import extend_closure
from edgeforce.solver import _minimal_fort


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edges(n, list(itertools.combinations(range(n), 2)))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return from_edges(n, edges)


def from_edges_reference(vertex_count: int, edges) -> Graph:
    """`from_edges` as a set-and-sort loop over the input, raising at the
    first faulty edge; its graph's adjacency is left to the cached
    property.  The oracle of the one-pass build."""
    if vertex_count < 0:
        raise GraphError(
            f"vertex_count must be non-negative, got {vertex_count}")
    seen = set()
    for u, v in edges:
        if not (is_vertex(u) and is_vertex(v)):
            raise GraphError(
                f"edge ({u!r},{v!r}) has an endpoint that is not an integer")
        u, v = operator.index(u), operator.index(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphError(f"edge ({u},{v}) has endpoint out of range "
                             f"[0,{vertex_count})")
        e = normalize_edge(u, v)
        if e in seen:
            raise GraphError(f"duplicate edge {e}")
        seen.add(e)
    return Graph(vertex_count, tuple(sorted(seen)))


def edge_witness_reference(g: Graph, edges) -> dict:
    """`certificates.edge_witness` with each id found by bisection of the
    sorted `g.edges` and each label by `Graph.vertex_label`'s rule written
    out.  The oracle of the one-scan record."""
    es = sorted(normalize_edge(*e) for e in edges)
    r, n = g.butterfly, g.vertex_count

    def label(v):
        if r is not None and is_vertex(v) and 0 <= v < n:
            return f"[{v & ((1 << r) - 1)},{v >> r}]"
        return str(v)

    return {
        "edge_ids": [bisect.bisect_left(g.edges, e) for e in es],
        "edges": [list(e) for e in es],
        "labels": [[label(u), label(v)] for u, v in es],
    }


def vertex_index(r: int, row: int, level: int) -> int:
    """The dense index of BF(r)'s vertex (row, level)."""
    return level * (1 << r) + row


def vertex_coord(r: int, index: int) -> tuple[int, int]:
    """Inverse of vertex_index: dense index -> (row, level)."""
    rows = 1 << r
    return index % rows, index // rows


def coord_label(row: int, level: int) -> str:
    """The display label of BF(r)'s vertex (row, level)."""
    return f"[{row},{level}]"


def reference_closure(g: Graph, initial) -> tuple[set[int], list[tuple]]:
    """The reference schedule as a plain loop: (final set, events).

    Each round scans vertices in ascending index; a black vertex with one
    white neighbor forces it unless a smaller forcer already claimed it
    this round; the round's forces are applied together at its end.
    Events are (round, forcer, forced).
    """
    black = set(initial)
    events = []
    rnd = 0
    while True:
        rnd += 1
        claimed = {}
        for v in sorted(black):
            whites = [u for u in g.adjacency[v] if u not in black]
            if len(whites) == 1 and whites[0] not in claimed:
                claimed[whites[0]] = v
        if not claimed:
            return black, events
        events += sorted((rnd, v, w) for w, v in claimed.items())
        black |= claimed.keys()


def closure_sequential(g: Graph, initial, rng=None) -> frozenset[int]:
    """One-force-at-a-time closure, optionally in random order.

    Independent of the kernel; the schedule-independence oracle.
    """
    black = set(initial)
    while True:
        candidates = []
        for v in black:
            whites = [u for u in g.adjacency[v] if u not in black]
            if len(whites) == 1:
                candidates.append((v, whites[0]))
        if not candidates:
            return frozenset(black)
        if rng is None:
            v, w = min(candidates)
        else:
            v, w = candidates[rng.randrange(len(candidates))]
        black.add(w)


def minimal_fort_reference(adj, black: bytearray, counts: list[int]) -> int:
    """A minimal fort among the white vertices of the closed state
    (black, counts), as a vertex bitmask, by kernel trials; the state is
    left as it is.  The oracle of `solver._minimal_fort`.

    Blackens the white vertices in ascending order, each on a copy that is
    kept when its closure leaves a vertex white.  What stays white is the
    white set of a closed state, so a fort.  Each vertex of it closed a
    smaller black set to all black when it was tried, so no fort inside
    the white set leaves that vertex out: the fort is minimal.
    """
    for w in range(len(black)):
        if not black[w]:
            trial, trial_counts = bytearray(black), counts[:]
            extend_closure(adj, trial, trial_counts, (w,))
            if 0 in trial:
                black, counts = trial, trial_counts
    return sum(1 << v for v, b in enumerate(black) if not b)


def reference_add(search, fort: int) -> None:
    """Put the vertex bitmask `fort` in the pool of the exhaustion
    `search`, scanning every item for the cover: the oracle of
    `_Exhaustion.add`."""
    bit = 1 << len(search.forts)
    search.forts.append(fort)
    cover = 0
    for i, item in enumerate(search.items):
        if any(fort >> v & 1 for v in item):
            search.touch[i] |= bit
            cover |= 1 << i
    search.covers.append(cover)


def exhaustion_reference(search, k: int):
    """`search.first(k)` as a loop over item positions: the first forcing
    k-combination or None.  The oracle of `_Exhaustion.first`, which
    decides the last item from bitmasks.

    It reads and grows the pool of `search` (`forts`, `covers`, `touch`,
    `listed`) through `reference_add`, and adds the leaves it tests to
    `search.explored`.  A table `below` holds, for each position, the
    forts that no item from there on touches; a node's loop stops at the
    first position where one of them is unhit.  Each leaf is visited in
    turn: skipped when it misses an unhit fort, else counted and closed,
    and a stall harvests a minimal fort.
    """
    g, items = search.g, search.items
    touch, covers, forts, nbr = (
        search.touch, search.covers, search.forts, search.nbr)
    masks = [sum(1 << v for v in item) for item in items]
    adj = g.adjacency
    m = len(items)
    below = [0] * m

    def note(j):
        for i in range(covers[j].bit_length(), m):
            below[i] |= 1 << j

    for j in range(len(forts)):
        note(j)
    chosen = []

    def packs(start, need, unhit):
        # more than `need` unhit forts met by pairwise disjoint item sets
        later = -1 << start
        taken = packed = 0
        while unhit:
            low = unhit & -unhit
            unhit ^= low
            cover = covers[low.bit_length() - 1] & later
            if not cover & taken:
                taken |= cover
                packed += 1
                if packed > need:
                    return True
        return False

    def search_from(start, need, hit, used, black, counts, pending):
        if packs(start, need, ~hit & ((1 << len(forts)) - 1)):
            return False
        for i in range(start, m - need + 1):
            if below[i] & ~hit:
                return False
            mask = masks[i]
            if mask & used:
                continue
            item = items[i]
            if need > 1:
                chosen.append(item)
                if search_from(i + 1, need - 1, hit | touch[i], used | mask,
                               black, counts,
                               pending + tuple(v for v in item
                                               if not black[v])):
                    return True
                chosen.pop()
                continue
            if ~(hit | touch[i]) & ((1 << len(forts)) - 1):
                continue
            search.explored += 1
            if pending:
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
                nbr, sum(1 << v for v, b in enumerate(state) if not b))
            reference_add(search, fort)
            note(len(forts) - 1)
            search.listed.append(
                [v for v in range(fort.bit_length()) if fort >> v & 1])
        return False

    if search_from(0, k, 0, 0, bytearray(g.vertex_count),
                   [len(a) for a in adj], ()):
        return tuple(chosen)
    return None


def listed_fort_fault(g: Graph, fort: list[int]) -> Optional[str]:
    """Why the vertex list `fort` is not a fort of g, else None: it must
    be non-empty, hold integers that are not bools, be strictly ascending
    and inside [0, n), and no vertex outside it may have exactly one
    neighbor in it.  The reference of the check a solver makes of each
    fort its caller lists, on sets instead of bitmasks."""
    n = g.vertex_count
    if not fort:
        return "it is empty"
    for v in fort:
        if isinstance(v, bool) or not isinstance(v, Integral):
            return f"entry {v!r} is not a vertex"
    if any(a >= b for a, b in zip(fort, fort[1:])):
        return "it is not strictly ascending"
    if fort[0] < 0 or fort[-1] >= n:
        return f"it leaves [0, {n})"
    inside = set(fort)
    if any(sum(w in inside for w in g.adjacency[v]) == 1
           for v in range(n) if v not in inside):
        return "a vertex outside it has exactly one neighbor in it"
    return None


def max_edge_disjoint(family) -> int:
    """Size of a largest pairwise edge-disjoint subfamily, by brute force.

    Tries every subfamily from the largest down; meant for at most a
    dozen obstructions.
    """
    edge_sets = [set(o.cycle_edges()) for o in family]
    for size in range(len(edge_sets), 0, -1):
        for combo in itertools.combinations(edge_sets, size):
            if sum(map(len, combo)) == len(set().union(*combo)):
                return size
    return 0
