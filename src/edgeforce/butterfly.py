"""Butterfly network BF(r): construction, coordinates, labels, sub-copies.

BF(r) has vertices (row, level) with row in [0, 2^r) and level in [0, r].
Between levels i and i+1 every row w carries a straight edge (same row) and
a cross edge to row w XOR 2^i.  The dense index of (row, level) is
level * 2^r + row; the display label is "[row,level]".  BF(r)'s binding
diamonds are its obstruction 4-cycles (`constructions.find_obstructions`).
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from itertools import chain
from typing import Iterator

from .graph import Graph

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
        self.r = r
        self.mask = (1 << r) - 1

    def __getitem__(self, v: int) -> str:
        try:
            i = v if type(v) is int else operator.index(v)
        except TypeError:
            raise KeyError(v) from None
        if not 0 <= i < (self.r + 1) << self.r:
            raise KeyError(v)
        return f"[{i & self.mask},{i >> self.r}]"

    def __len__(self) -> int:
        return (self.r + 1) << self.r

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))


def build_butterfly(r: int) -> Graph:
    """BF(r) with (r+1)*2^r vertices and r*2^(r+1) edges, emitted canonical.

    Lower vertices a = i*2^r + w ascend, each with its two edges up, to rows
    w and w XOR 2^i of level i+1, smaller first: the sorted order whose
    per-level slices `constructions._middle_candidates` reads.  The same
    loop writes the adjacency, each vertex's rows below then rows above,
    so no second pass over the edges builds it."""
    if r < 1:
        raise ButterflyError(f"butterfly dimension must be >= 1, got {r}")
    if r > MAX_DIMENSION:
        raise ButterflyError(f"butterfly dimension {r} exceeds guard {MAX_DIMENSION}")
    rows = 1 << r
    level, down = list(range(rows)), []
    edges: list[tuple[int, int]] = []
    adjacency: list[tuple[int, ...]] = []
    for i in range(r):
        bit = 1 << i
        above = list(range((i + 1) * rows, (i + 2) * rows))
        up = _columns(above, bit)
        edges += chain.from_iterable(zip(zip(level, up[0]), zip(level, up[1])))
        adjacency += zip(*down, *up)  # level i: rows below, then rows above
        down, level = _columns(level, bit), above
    adjacency += zip(*down)
    g = Graph((r + 1) * rows, tuple(edges), ButterflyLabels(r))
    g.__dict__["adjacency"] = tuple(adjacency)  # fills the cached_property
    return g


def _columns(level: list[int], bit: int) -> list[list[int]]:
    """For each row w, the vertices of rows w & ~bit and w | bit of `level`:
    the ascending neighbours of row w on the adjacent level across `bit`.
    Indexing `level` shares its int objects with every edge and column."""
    rows = range(len(level))
    return [[level[w & ~bit] for w in rows], [level[w | bit] for w in rows]]


def subcopy_vertex(r: int, high_bits: int, v: int) -> int:
    """The BF(r) vertex that vertex v of BF(r-2) is in sub-copy high_bits.

    Levels 0..r-2 of BF(r) split into four copies of BF(r-2), one for each
    value 0..3 of the two top row bits; a copy keeps the level and the low
    r-2 row bits.  The map is increasing, so it keeps edges normalized.
    """
    return v >> (r - 2) << r | high_bits << (r - 2) | v & ((1 << (r - 2)) - 1)
