"""Bound formulas, obstruction lower bounds and explicit edge-forcing sets.

An obstruction is a 4-cycle whose two degree-2 vertices share both
neighbors; `find_obstructions` lists them by neighbor pair.  For r >= 3
BF(r)'s obstructions are exactly its 2^r binding diamonds: the 2^(r-1)
vertical ones (binding pair on level 0, rows 2w and 2w + 1), then the
2^(r-1) horizontal ones (binding pair on level r, rows w and w + 2^(r-1)).
`Obstruction.cycle_edges()` lists a diamond's edges as the low row's
straight edge, the high row's, the cross edge from the low row's binding
vertex, the cross edge from the high row's.  Each construction level
takes `find_obstructions` of its BF(r) once and picks every skeleton edge
by position in that order.  The vertical skeleton takes each vertical
diamond's high-row straight edge; the horizontal skeleton takes one edge
per horizontal diamond, the low row's straight edge (`STRAIGHT_LOW`) or,
in `CROSS_MIX`, the low row's cross edge in the first half of the
diamonds and the high row's after.

The butterfly witnesses come in two flavors, each built once with no
retry or fallback.  Only the witness returned is verified, by one closure
on BF(r); the witnesses of BF(r-2), BF(r-4), ... and the seeded greedy's
result are parts of it, not checked apart.  A witness that fails raises
ConstructionError:

* BF(3), BF(4), BF(5): a pattern-seeded search.  The skeleton (one edge
  per binding diamond) is fixed, then one seeded greedy completion over
  middle-level edges is run to the size in `SEEDED_SEARCHES`.  The
  witnesses are recomputed, never hard-coded.  Only
  BF(3)'s size is proven least (it meets the obstruction bound 2^r); 25
  and 47 are the sizes these searches reach, upper bounds only.  BF(3)
  needs no middle edge, so its witness is the vertical plus the
  `CROSS_MIX` horizontal skeleton.
* BF(r), r >= 6: recursion.  The BF(r-2) witness is copied into the four
  sub-copies on levels 0..r-2 (`butterfly.subcopy_vertex`, inline in
  `_subcopies`) and the `STRAIGHT_LOW` horizontal skeleton is added.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple, Optional

from .butterfly import MAX_DIMENSION, ButterflyError, build_butterfly
from .engine import closure, is_edge_forcing_set, matching_endpoints
from .graph import Edge, Graph
from .kernels import extend_closure

# the horizontal skeleton's picks: cycle_edges() positions in the first
# and second half of the horizontal diamonds
STRAIGHT_LOW = (0, 0)
CROSS_MIX = (2, 3)

# each seeded search by r: the witness size it completes to, its horizontal
# skeleton picks and the middle level pairs its greedy completion draws
# edges from
SEEDED_SEARCHES = {3: (8, CROSS_MIX, []), 4: (25, CROSS_MIX, [1, 2]),
                   5: (47, STRAIGHT_LOW, [2, 3])}

DEFAULT_SEED = 12345


class ConstructionError(RuntimeError):
    """Raised when a witness cannot be built or verified."""


# ---------------------------------------------------------------------------
# obstruction lower bound
# ---------------------------------------------------------------------------

class Obstruction(NamedTuple):
    """A 4-cycle whose two degree-2 vertices share both neighbors.

    If an edge set avoids all four cycle edges, the blocked pair can never
    be forced, so any edge-forcing set must intersect the cycle.
    """

    cycle: tuple[int, int, int, int]  # x, u, y, v in cycle order

    @property
    def blocked_pair(self) -> tuple[int, int]:
        """The two degree-2 vertices, x and y."""
        return self.cycle[0], self.cycle[2]

    def cycle_edges(self) -> tuple[Edge, Edge, Edge, Edge]:
        """The four edges in one fixed order: x-u, y-v, x-v, y-u, each
        normalized inline (`graph.normalize_edge`'s rule)."""
        x, u, y, v = self.cycle
        return ((x, u) if x < u else (u, x), (y, v) if y < v else (v, y),
                (x, v) if x < v else (v, x), (y, u) if y < u else (u, y))


def find_obstructions(g: Graph) -> list[Obstruction]:
    """All obstruction 4-cycles: pairs x<y of degree-2 vertices with N(x)=N(y),
    ordered by their neighbor pair, then by x and y."""
    by_nbrs: dict[tuple[int, int], list[int]] = {}
    for v, nbrs in enumerate(g.adjacency):
        if len(nbrs) == 2:
            by_nbrs.setdefault(nbrs, []).append(v)
    return [Obstruction((x, u, y, w))
            for (u, w), verts in sorted(by_nbrs.items())
            for x, y in itertools.combinations(verts, 2)]


def structural_lower_bound(g: Graph) -> tuple[int, list[Obstruction]]:
    """Edge-forcing lower bound from edge-disjoint obstruction 4-cycles.

    Each selected cycle must contribute at least one edge to any
    edge-forcing set, and the cycles share no edges, so the family size is
    a valid lower bound.  Returns (0, []) when no obstruction exists.

    One pass keeps each obstruction whose cycle edges miss those already
    kept, and this is a maximum packing.  Each cycle edge joins a degree-2
    vertex to a hub (one of its two neighbors), so two obstructions share
    an edge only if they have the same hubs and share a degree-2 vertex,
    or are the two (equal-edged) obstructions of an isolated C4.  The s
    degree-2 vertices on one hub pair give the pairs of K_s, where any
    maximal set of disjoint pairs has the maximum floor(s/2) pairs; an
    isolated C4 allows one.  Maximal within each group, the pass is
    maximum overall, in time linear in the number of obstructions.

    The pass builds no edges: an obstruction's cycle edges meet the kept
    ones exactly when one of its four vertices is a degree-2 vertex of a
    kept obstruction.  Every kept edge has such an endpoint, so a shared
    edge puts one on the cycle.  Conversely, such a vertex p on the cycle
    has both its neighbors on the cycle (the hubs, or the cycle's two
    degree-2 vertices when p is a hub), and p's kept obstruction holds the
    edges from p to both.
    """
    kept: set[int] = set()  # the kept obstructions' degree-2 vertices
    family = []
    for o in find_obstructions(g):
        if kept.isdisjoint(o.cycle):
            kept.update(o.blocked_pair)
            family.append(o)
    return len(family), family


# ---------------------------------------------------------------------------
# skeletons and witnesses
# ---------------------------------------------------------------------------

def _vertical_skeleton(diamonds: list[Obstruction]) -> list[Edge]:
    """Each vertical diamond's high-row (odd-row) straight edge."""
    return [d.cycle_edges()[1] for d in diamonds[:len(diamonds) // 2]]


def _horizontal_skeleton(diamonds: list[Obstruction],
                         picks: tuple[int, int]) -> list[Edge]:
    """One edge per horizontal diamond (levels r-1, r), by `picks`."""
    first, second = picks
    horizontal = diamonds[len(diamonds) // 2:]
    half = len(horizontal) // 2
    return [d.cycle_edges()[first if w < half else second]
            for w, d in enumerate(horizontal)]


def _middle_candidates(g: Graph, r: int, level_pairs: list[int]) -> list[Edge]:
    """All edges of g = BF(r) on the given (i, i+1) level pairs, ascending.

    `build_butterfly` emits BF(r)'s edges sorted by lower endpoint, and each
    vertex below level r has exactly two edges up, so level i's edges up
    are one slice."""
    per_level = 2 << r  # edges from one level up to the next
    return [e for i in level_pairs
            for e in g.edges[i * per_level:(i + 1) * per_level]]


def _greedy_complete(g: Graph, base: list[Edge], candidates: list[Edge],
                     extra: int, rng: random.Random) -> list[Edge]:
    """`base` and `extra` disjoint edges added greedily, each maximizing
    closure growth; unchecked, since only the witness returned is closed.

    The closure of the base and the edges taken so far is kept as a closed
    state and extended once per step by the edge taken; a candidate is
    scored by extending a copy of it by the candidate's endpoints."""
    adj = g.adjacency
    black, counts = bytearray(g.vertex_count), list(map(len, adj))
    points = set(matching_endpoints(base))
    extend_closure(adj, black, counts, points)
    chosen: list[Edge] = []
    for _ in range(extra):
        current = black.count(1)
        best_gain, best = -1, []
        for e in candidates:
            if e[0] in points or e[1] in points:
                continue
            gain = 0
            if not (black[e[0]] and black[e[1]]):
                trial = bytearray(black)
                extend_closure(adj, trial, counts[:], e)
                gain = trial.count(1) - current
            if gain > best_gain:
                best_gain, best = gain, [e]
            elif gain == best_gain:
                best.append(e)
        if not best:
            raise ConstructionError(
                f"greedy completion for BF({g.butterfly}) ran out of "
                f"candidate edges after {len(chosen)} of {extra}")
        e = rng.choice(best)
        chosen.append(e)
        points.update(e)
        extend_closure(adj, black, counts, e)
    return base + chosen


def _subcopies(r: int, sub: list[Edge]) -> list[Edge]:
    """The edges `sub` of BF(r-2) in each of BF(r)'s four sub-copies, copy
    by copy: `butterfly.subcopy_vertex` on every endpoint, written inline
    with the copy's top row bits shifted once per copy."""
    s = r - 2
    mask = (1 << s) - 1
    return [(u >> s << r | top | u & mask, v >> s << r | top | v & mask)
            for top in (0, 1 << s, 2 << s, 3 << s) for u, v in sub]


def _witness(g: Graph, seed: int) -> list[Edge]:
    """The unchecked, unsorted witness of g = BF(r): the seeded search for
    r in `SEEDED_SEARCHES`, else BF(r-2)'s in the four sub-copies plus the
    `STRAIGHT_LOW` horizontal skeleton."""
    r = g.butterfly
    diamonds = find_obstructions(g)
    if r in SEEDED_SEARCHES:
        target, picks, level_pairs = SEEDED_SEARCHES[r]
        base = (_vertical_skeleton(diamonds)
                + _horizontal_skeleton(diamonds, picks))
        return _greedy_complete(g, base, _middle_candidates(g, r, level_pairs),
                                target - len(diamonds), random.Random(seed))
    return (_subcopies(r, _witness(build_butterfly(r - 2), seed))
            + _horizontal_skeleton(diamonds, STRAIGHT_LOW))


def construct_edge_forcing(r: int, seed: int = DEFAULT_SEED) -> list[Edge]:
    """A verified edge-forcing matching of BF(r), r >= 3.

    Sizes: `SEEDED_SEARCHES` for r = 3, 4, 5; for r >= 6 the recursive set of
    size u(r) = 4*u(r-2) + 2^(r-1), within the parity upper bound.  BF(r)
    is built once, before the recursion, so a dimension above the
    butterfly guard fails at once; only BF(r)'s witness is verified.
    """
    _require_dimension(r)
    return butterfly_witness(build_butterfly(r), seed)


def _require_dimension(r: int) -> None:
    if r == 2:
        raise ConstructionError("no edge-forcing set exists for BF(2)")
    if r < 2:
        raise ButterflyError(f"construction needs r >= 3, got {r}")


def butterfly_witness(g: Graph, seed: int = DEFAULT_SEED) -> list[Edge]:
    """`construct_edge_forcing(r)` on g = BF(r) as `build_butterfly(r)`
    made it, so that a caller that also needs the graph builds it once.
    The sorted witness is closed once, on g; ConstructionError names the
    vertices it leaves unforced."""
    r = g.butterfly
    if r is None:
        raise ButterflyError(
            "butterfly_witness needs a graph made by build_butterfly")
    _require_dimension(r)
    witness = sorted(_witness(g, seed))
    if not is_edge_forcing_set(g, witness):
        forced = closure(g, matching_endpoints(witness)).final
        raise ConstructionError(
            f"witness for BF({r}) failed verification; "
            f"{g.vertex_count - len(forced)} vertices unforced")
    return witness


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

class BoundsReport(NamedTuple):
    r: int
    exists: bool
    lower: Optional[int]
    exact: Optional[int]
    upper_formula: Optional[int]
    upper_recursive: Optional[int]
    zero_forcing_upper_reference: int


def _upper_formula(r: int) -> int:
    if r % 2 == 1:
        return math.ceil(r / 2) * (1 << (r - 1))
    return (r // 2 + 2) * (1 << (r - 1))


def recursive_upper(r: int) -> int:
    """u(r) = 4*u(r-2) + 2^(r-1), seeded with the witness sizes for r=3,4,5."""
    if r in SEEDED_SEARCHES:
        return SEEDED_SEARCHES[r][0]
    return 4 * recursive_upper(r - 2) + (1 << (r - 1))


def zero_forcing_upper_reference(r: int) -> int:
    """Cited zero-forcing (vertex) upper bound for BF(r); documentation only."""
    return math.ceil(((3 * r + 7) * (1 << r) + 2 * (-1) ** r) / 9)


def known_bounds(r: int) -> BoundsReport:
    """Edge-forcing bounds for BF(r), 2 <= r <= MAX_DIMENSION, each proven
    here: `lower` is the 2^r edge-disjoint binding diamonds
    (`structural_lower_bound`), `upper_recursive` the size of the witness
    `construct_edge_forcing` verifies, `upper_formula` a closed form no
    smaller, and `exact` is set only where `lower` meets `upper_recursive`,
    which is r = 3 alone.  `zero_forcing_upper_reference` is cited."""
    if not 2 <= r <= MAX_DIMENSION:
        raise ButterflyError(f"bounds need 2 <= r <= {MAX_DIMENSION}, got {r}")
    if r == 2:
        return BoundsReport(r=2, exists=False, lower=None, exact=None,
                            upper_formula=None, upper_recursive=None,
                            zero_forcing_upper_reference=zero_forcing_upper_reference(2))
    lower, upper_rec = 1 << r, recursive_upper(r)
    return BoundsReport(
        r=r, exists=True, lower=lower,
        exact=lower if lower == upper_rec else None,
        upper_formula=_upper_formula(r),
        upper_recursive=upper_rec,
        zero_forcing_upper_reference=zero_forcing_upper_reference(r))
