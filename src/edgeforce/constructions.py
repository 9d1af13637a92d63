"""Bound formulas, obstruction lower bounds and explicit edge-forcing sets.

An obstruction is a 4-cycle whose two degree-2 vertices share both
neighbors; `find_obstructions` lists them by neighbor pair.  For r >= 3
BF(r)'s obstructions are exactly its 2^r binding diamonds: the 2^(r-1)
vertical ones (binding pair on level 0, rows 2w and 2w + 1), then the
2^(r-1) horizontal ones (binding pair on level r, rows w and w + 2^(r-1)).
`Obstruction.cycle_edges()` lists a diamond's edges as the low row's
straight edge, the high row's, the cross edge from the low row's binding
vertex, the cross edge from the high row's.  Each construction level
takes `find_obstructions` of its BF(r) once and picks every skeleton and
repair edge by position in that order.  The vertical skeleton takes each
vertical diamond's high-row straight edge; the horizontal skeleton takes
one edge per horizontal diamond, a straight edge ("straight_low",
"straight_high") or, in "cross_mix", the low row's cross edge in the
first half of the diamonds and the high row's after.

The butterfly witnesses come in two flavors:

* BF(3), BF(4), BF(5): a pattern-seeded search.  The skeleton (one edge
  per binding diamond) is fixed, then a seeded greedy completion over
  middle-level edges is run to the size in `EXACT_VALUES` and verified.
  Only those sizes are treated as ground truth; the witnesses are
  recomputed, never hard-coded.  BF(3) needs no middle edge, so its
  witness is the vertical plus the "cross_mix" horizontal skeleton.
* BF(r), r >= 6: recursion.  The BF(r-2) witness is copied into the four
  sub-copies on levels 0..r-2 (`butterfly.subcopy_vertex`) and the
  "straight_low" horizontal skeleton is added; the result is verified by
  closure, and if it fails, each horizontal diamond's edge in turn is
  tried as each other edge of its diamond.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .butterfly import (MAX_DIMENSION, ButterflyError, build_butterfly,
                        subcopy_vertex)
from .engine import closure, is_edge_forcing_set, matching_endpoints
from .graph import Edge, Graph, normalize_edge
from .kernels import extend_closure

EXACT_VALUES = {3: 8, 4: 25, 5: 47}

# each seeded search's horizontal skeleton modes, in the order tried, and
# the middle level pairs its greedy completion draws edges from
_SEARCHES = {3: (["cross_mix"], []),
             4: (["cross_mix", "straight_low", "straight_high"], [1, 2]),
             5: (["straight_low", "cross_mix", "straight_high"], [2, 3])}

DEFAULT_SEED = 12345
# greedy completions tried per skeleton before the seeded search gives up
RESTARTS = 200


class ConstructionError(RuntimeError):
    """Raised when a witness cannot be built or verified."""


# ---------------------------------------------------------------------------
# obstruction lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Obstruction:
    """A 4-cycle whose two degree-2 vertices share both neighbors.

    If an edge set avoids all four cycle edges, the blocked pair can never
    be forced, so any edge-forcing set must intersect the cycle.
    """

    cycle: tuple[int, int, int, int]  # x, u, y, v in cycle order
    blocked_pair: tuple[int, int]

    def cycle_edges(self) -> tuple[Edge, Edge, Edge, Edge]:
        """The four edges in one fixed order: x-u, y-v, x-v, y-u."""
        x, u, y, v = self.cycle
        return (normalize_edge(x, u), normalize_edge(y, v),
                normalize_edge(x, v), normalize_edge(y, u))


def find_obstructions(g: Graph) -> list[Obstruction]:
    """All obstruction 4-cycles: pairs x<y of degree-2 vertices with N(x)=N(y),
    ordered by their neighbor pair, then by x and y."""
    by_nbrs: dict[tuple[int, int], list[int]] = {}
    for v, nbrs in enumerate(g.adjacency):
        if len(nbrs) == 2:
            by_nbrs.setdefault(nbrs, []).append(v)
    return [Obstruction((x, u, y, w), (x, y))
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
    """
    kept: set[Edge] = set()
    family = []
    for o in find_obstructions(g):
        edges = o.cycle_edges()
        if kept.isdisjoint(edges):
            kept.update(edges)
            family.append(o)
    return len(family), family


# ---------------------------------------------------------------------------
# skeletons and witnesses
# ---------------------------------------------------------------------------

def _vertical_skeleton(diamonds: list[Obstruction]) -> list[Edge]:
    """Each vertical diamond's high-row (odd-row) straight edge."""
    return [d.cycle_edges()[1] for d in diamonds[:len(diamonds) // 2]]


# each mode's cycle_edges() position in the first and second half of the
# horizontal diamonds
_HORIZONTAL_PICKS = {"straight_low": (0, 0), "straight_high": (1, 1),
                     "cross_mix": (2, 3)}


def _horizontal_skeleton(diamonds: list[Obstruction], mode: str) -> list[Edge]:
    """One edge per horizontal diamond (levels r-1, r)."""
    first, second = _HORIZONTAL_PICKS[mode]
    horizontal = diamonds[len(diamonds) // 2:]
    half = len(horizontal) // 2
    return [d.cycle_edges()[first if w < half else second]
            for w, d in enumerate(horizontal)]


def _middle_candidates(g: Graph, r: int, level_pairs: list[int]) -> list[Edge]:
    """All edges of g = BF(r) on the given (i, i+1) level pairs, ascending.

    BF(r)'s sorted edges go by lower endpoint, two per vertex
    (`butterfly.edge_id`), so level i's edges up are one slice."""
    per_level = 2 << r  # edges from one level up to the next
    return [e for i in level_pairs
            for e in g.edges[i * per_level:(i + 1) * per_level]]


def _greedy_complete(g: Graph, base: list[Edge], candidates: list[Edge],
                     extra: int, rng: random.Random) -> Optional[list[Edge]]:
    """Greedily add `extra` disjoint edges maximizing closure growth.

    The closure of the base and the edges taken so far is kept as a closed
    state and extended once per step by the edge taken; a candidate is
    scored by extending a copy of it by the candidate's endpoints."""
    adj = g.adjacency
    black, counts = bytearray(g.vertex_count), [len(a) for a in adj]
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
            return None
        e = rng.choice(best)
        chosen.append(e)
        points.update(e)
        extend_closure(adj, black, counts, e)
    full = base + chosen
    return full if is_edge_forcing_set(g, full) else None


def _seeded_search(g: Graph, r: int, diamonds: list[Obstruction],
                   target: int, h_modes: list[str], level_pairs: list[int],
                   seed: int) -> list[Edge]:
    candidates = _middle_candidates(g, r, level_pairs)
    extra = target - len(diamonds)
    rng = random.Random(seed)
    for mode in h_modes:
        base = (_vertical_skeleton(diamonds)
                + _horizontal_skeleton(diamonds, mode))
        for _ in range(RESTARTS):
            full = _greedy_complete(g, base, candidates, extra, rng)
            if full is not None:
                return sorted(full)
    raise ConstructionError(
        f"seeded search failed to complete a size-{target} witness for BF({r})")


def _recursive_witness(g: Graph, r: int, diamonds: list[Obstruction],
                       seed: int,
                       repairs: Optional[list[str]] = None) -> list[Edge]:
    if repairs is None:
        repairs = []
    sub = construct_edge_forcing(r - 2, seed=seed, repair_log=repairs)
    core = [(subcopy_vertex(r, high_bits, u), subcopy_vertex(r, high_bits, v))
            for high_bits in range(4) for u, v in sub]
    h_edges = _horizontal_skeleton(diamonds, "straight_low")
    edges = core + h_edges
    if is_edge_forcing_set(g, edges):
        return sorted(edges)
    # bounded local repair: re-choose horizontal diamond edges one at a time
    for w, diamond in enumerate(diamonds[len(diamonds) // 2:]):
        for opt in diamond.cycle_edges():
            if opt == h_edges[w]:
                continue  # the set that just failed
            trial = core + h_edges[:w] + [opt] + h_edges[w + 1:]
            if is_edge_forcing_set(g, trial):
                repairs.append(
                    f"BF({r}) diamond {w}: replaced {h_edges[w]} with {opt}")
                return sorted(trial)
    forced = closure(g, matching_endpoints(edges)).final
    raise ConstructionError(
        f"recursive witness for BF({r}) failed verification and repair; "
        f"{g.vertex_count - len(forced)} vertices unforced")


def construct_edge_forcing(r: int, seed: int = DEFAULT_SEED,
                           repair_log: Optional[list[str]] = None) -> list[Edge]:
    """A verified edge-forcing matching of BF(r), r >= 3.

    Sizes: `EXACT_VALUES` for r = 3, 4, 5; for r >= 6 the recursive set of
    size u(r) = 4*u(r-2) + 2^(r-1), within the parity upper bound.  Any
    local repairs applied to the recursive set are appended to repair_log.
    BF(r) is built once, before the recursion, so a dimension above the
    butterfly guard fails at once; each level verifies its own witness.
    """
    _require_dimension(r)
    return butterfly_witness(build_butterfly(r), r, seed, repair_log)


def _require_dimension(r: int) -> None:
    if r == 2:
        raise ConstructionError("no edge-forcing set exists for BF(2)")
    if r < 2:
        raise ButterflyError(f"construction needs r >= 3, got {r}")


def butterfly_witness(g: Graph, r: int, seed: int = DEFAULT_SEED,
                      repair_log: Optional[list[str]] = None) -> list[Edge]:
    """`construct_edge_forcing(r)` on g = BF(r), already built, so that a
    caller that also needs the graph builds it once."""
    _require_dimension(r)
    diamonds = find_obstructions(g)
    if r in _SEARCHES:
        return _seeded_search(g, r, diamonds, EXACT_VALUES[r], *_SEARCHES[r],
                              seed)
    return _recursive_witness(g, r, diamonds, seed, repairs=repair_log)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    r: int
    exists: bool
    lower: Optional[int]
    exact: Optional[int]
    upper_formula: Optional[int]
    upper_recursive: Optional[int]
    conjectured_exact: Optional[int]
    zero_forcing_upper_reference: int


def _upper_formula(r: int) -> int:
    if r % 2 == 1:
        return math.ceil(r / 2) * (1 << (r - 1))
    return (r // 2 + 2) * (1 << (r - 1))


def recursive_upper(r: int) -> int:
    """u(r) = 4*u(r-2) + 2^(r-1), seeded with the exact values for r=3,4,5."""
    if r in EXACT_VALUES:
        return EXACT_VALUES[r]
    return 4 * recursive_upper(r - 2) + (1 << (r - 1))


def zero_forcing_upper_reference(r: int) -> int:
    """Cited zero-forcing (vertex) upper bound for BF(r); documentation only."""
    return math.ceil(((3 * r + 7) * (1 << r) + 2 * (-1) ** r) / 9)


def known_bounds(r: int) -> BoundsReport:
    """Edge-forcing bounds ledger for BF(r), 2 <= r <= MAX_DIMENSION."""
    if not 2 <= r <= MAX_DIMENSION:
        raise ButterflyError(f"bounds need 2 <= r <= {MAX_DIMENSION}, got {r}")
    if r == 2:
        return BoundsReport(r=2, exists=False, lower=None, exact=None,
                            upper_formula=None, upper_recursive=None,
                            conjectured_exact=None,
                            zero_forcing_upper_reference=zero_forcing_upper_reference(2))
    lower = EXACT_VALUES.get(r, 1 << r)
    exact = EXACT_VALUES.get(r)
    upper_rec = recursive_upper(r)
    return BoundsReport(
        r=r, exists=True, lower=lower, exact=exact,
        upper_formula=_upper_formula(r),
        upper_recursive=upper_rec,
        conjectured_exact=upper_rec if r >= 6 else None,
        zero_forcing_upper_reference=zero_forcing_upper_reference(r))
