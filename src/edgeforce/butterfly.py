"""Butterfly network BF(r): construction, edge classes, binding structure.

BF(r) has vertices (row, level) with row in [0, 2^r) and level in [0, r].
Between levels i and i+1 every row w carries a straight edge (same row) and
a cross edge to row w XOR 2^i.  The dense index of (row, level) is
level * 2^r + row; the display label is "[row,level]".
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Literal

from .graph import Edge, Graph, GraphError, from_edges, normalize_edge

MAX_DIMENSION = 16  # memory guard: BF(16) already has >1M vertices


class ButterflyError(ValueError):
    pass


def vertex_index(r: int, row: int, level: int) -> int:
    return level * (1 << r) + row


def vertex_coord(r: int, index: int) -> tuple[int, int]:
    """Inverse of vertex_index: dense index -> (row, level)."""
    rows = 1 << r
    return index % rows, index // rows


def coord_label(row: int, level: int) -> str:
    return f"[{row},{level}]"


class ButterflyLabels(Mapping):
    """The "[row,level]" display labels of BF(r), computed on lookup.

    Holds no per-vertex data: a stored dict of labels would cost more
    memory than BF(r)'s adjacency for the one lookup per witness vertex
    that certificates and DOT output make.
    """

    def __init__(self, r: int) -> None:
        self._r = r

    def __getitem__(self, v: int) -> str:
        try:
            level, row = divmod(operator.index(v), 1 << self._r)
        except TypeError:
            raise KeyError(v) from None
        if not 0 <= level <= self._r:
            raise KeyError(v)
        return coord_label(row, level)

    def __len__(self) -> int:
        return (self._r + 1) << self._r

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))


def build_butterfly(r: int) -> Graph:
    """BF(r) with (r+1)*2^r vertices and r*2^(r+1) edges."""
    if r < 1:
        raise ButterflyError(f"butterfly dimension must be >= 1, got {r}")
    if r > MAX_DIMENSION:
        raise ButterflyError(f"butterfly dimension {r} exceeds guard {MAX_DIMENSION}")
    rows = 1 << r
    edges = []
    for i in range(r):
        bit = 1 << i
        for w in range(rows):
            a = vertex_index(r, w, i)
            edges.append((a, vertex_index(r, w, i + 1)))
            edges.append((a, vertex_index(r, w ^ bit, i + 1)))
    return from_edges((r + 1) * rows, edges, labels=ButterflyLabels(r))


def edge_kind(r: int, a: tuple[int, int], b: tuple[int, int]) -> Literal["straight", "cross"]:
    """Classify a BF(r) edge given as two (row, level) coordinates."""
    (w1, i1), (w2, i2) = a, b
    if i1 > i2:
        (w1, i1), (w2, i2) = (w2, i2), (w1, i1)
    if i2 != i1 + 1:
        raise ButterflyError(
            f"not an edge: levels {i1} and {i2} are not consecutive")
    if not (0 <= w1 < (1 << r) and 0 <= w2 < (1 << r) and 0 <= i1 and i2 <= r):
        raise ButterflyError(f"coordinate out of range for BF({r})")
    if w1 == w2:
        return "straight"
    if w1 ^ w2 == 1 << i1:
        return "cross"
    raise ButterflyError(
        f"not an edge: rows {w1} and {w2} differ in bit weight {w1 ^ w2}, "
        f"but the level pair ({i1},{i2}) flips weight {1 << i1}")


def edge_id(r: int, u: int, v: int) -> int:
    """Position of the BF(r) edge {u, v} in `build_butterfly(r).edges`.

    The sorted edges go by lower endpoint, and each vertex below level r
    has exactly two edges up, so vertex u's are 2u and 2u + 1; the second
    ends in the row whose bit for u's level is set.  Raises ButterflyError
    for a pair that is not an edge.
    """
    u, v = normalize_edge(u, v)
    (row, level), upper = vertex_coord(r, u), vertex_coord(r, v)
    edge_kind(r, (row, level), upper)
    return 2 * u + (upper[0] >> level & 1)


@dataclass(frozen=True)
class Diamond:
    """A binding 4-cycle of BF(r).

    Vertical diamonds sit on levels (0, 1); horizontal on (r-1, r).  The two
    degree-2 vertices (level 0, resp. level r) are the binding pair; both
    are adjacent to the same two degree-4 vertices of the opposite level.
    """

    kind: Literal["vertical", "horizontal"]
    levels: tuple[int, int]
    rows: tuple[int, int]
    vertices: tuple[int, int, int, int]  # dense indices

    def cycle_edges(self) -> tuple[Edge, Edge, Edge, Edge]:
        """The four edges in one fixed order: the low row's straight edge,
        the high row's, the cross edge from the low row's binding vertex,
        the cross edge from the high row's."""
        # the binding pair's low and high rows, then theirs on the other level
        a, b, c, d = self.vertices
        return (normalize_edge(a, c), normalize_edge(b, d),
                normalize_edge(a, d), normalize_edge(b, c))


def binding_diamonds(r: int) -> list[Diamond]:
    """All 2^r binding diamonds: 2^(r-1) vertical plus 2^(r-1) horizontal.

    Vertical diamond w binds rows 2w and 2w + 1; horizontal diamond w, at
    position 2^(r-1) + w, binds rows w and w + 2^(r-1)."""
    if r < 2:
        raise ButterflyError(
            f"binding diamonds need r >= 2 (BF(1) is a single 4-cycle), got {r}")
    out: list[Diamond] = []
    half = 1 << (r - 1)
    for w in range(half):
        lo, hi = 2 * w, 2 * w + 1
        out.append(Diamond(
            "vertical", (0, 1), (lo, hi),
            (vertex_index(r, lo, 0), vertex_index(r, hi, 0),
             vertex_index(r, lo, 1), vertex_index(r, hi, 1))))
    for w in range(half):
        lo, hi = w, w + half
        out.append(Diamond(
            "horizontal", (r - 1, r), (lo, hi),
            (vertex_index(r, lo, r), vertex_index(r, hi, r),
             vertex_index(r, lo, r - 1), vertex_index(r, hi, r - 1))))
    return out


def subcopy_vertex(r: int, high_bits: int, v: int) -> int:
    """The BF(r) vertex that vertex v of BF(r-2) is in sub-copy high_bits.

    Levels 0..r-2 of BF(r) split into four copies of BF(r-2), one for each
    value 0..3 of the two top row bits; a copy keeps the level and the low
    r-2 row bits.  The map is increasing, so it keeps edges normalized.
    """
    row, level = vertex_coord(r - 2, v)
    return vertex_index(r, high_bits << (r - 2) | row, level)
