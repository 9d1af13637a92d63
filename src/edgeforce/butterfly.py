"""Butterfly network BF(r): construction and sub-copies.

BF(r) has vertices (row, level) with row in [0, 2^r) and level in [0, r].
Between levels i and i+1 every row w carries a straight edge (same row) and
a cross edge to row w XOR 2^i.  The dense index of (row, level) is
level * 2^r + row.  The graph records its r in `Graph.butterfly`, from
which `Graph.vertex_label` writes the display label "[row,level]".  BF(r)'s
binding diamonds are its obstruction 4-cycles
(`constructions.find_obstructions`).
"""

from __future__ import annotations

from itertools import chain

from .graph import Graph

MAX_DIMENSION = 16  # memory guard: BF(16) already has >1M vertices


class ButterflyError(ValueError):
    pass


def butterfly_size(r: int) -> tuple[int, int]:
    """BF(r)'s vertex and edge counts, (r+1)*2^r and r*2^(r+1), without
    building it; ButterflyError for an r outside [1, MAX_DIMENSION]."""
    if r < 1:
        raise ButterflyError(f"butterfly dimension must be >= 1, got {r}")
    if r > MAX_DIMENSION:
        raise ButterflyError(f"butterfly dimension {r} exceeds guard {MAX_DIMENSION}")
    return (r + 1) << r, r << (r + 1)


def build_butterfly(r: int) -> Graph:
    """BF(r) with (r+1)*2^r vertices and r*2^(r+1) edges, emitted canonical.

    Lower vertices a = i*2^r + w ascend, each with its two edges up, to rows
    w and w XOR 2^i of level i+1, smaller first: the sorted order whose
    per-level slices `constructions._middle_candidates` reads.  The same
    loop writes the adjacency, each vertex's rows below then rows above,
    so no second pass over the edges builds it."""
    vertex_count, _ = butterfly_size(r)
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
    g = Graph(vertex_count, tuple(edges), butterfly=r)
    g.__dict__["adjacency"] = tuple(adjacency)  # fills the cached_property
    return g


def _columns(level: list[int], bit: int) -> list[list[int]]:
    """For each row w, the vertices of rows w & ~bit and w | bit of `level`:
    the ascending neighbours of row w on the adjacent level across `bit`.

    Each block of 2*bit rows from j has the column w & ~bit equal to
    `level[j:j + bit]` twice and w | bit equal to `level[j + bit:j + 2*bit]`
    twice, so a column is joined from slices, one step per block.  Slicing
    `level` shares its int objects with every edge and column."""
    low: list[int] = []
    high: list[int] = []
    for j in range(0, len(level), 2 * bit):
        below, above = level[j:j + bit], level[j + bit:j + 2 * bit]
        low += below
        low += below
        high += above
        high += above
    return [low, high]


def subcopy_vertex(r: int, high_bits: int, v: int) -> int:
    """The BF(r) vertex that vertex v of BF(r-2) is in sub-copy high_bits.

    Levels 0..r-2 of BF(r) split into four copies of BF(r-2), one for each
    value 0..3 of the two top row bits; a copy keeps the level and the low
    r-2 row bits.  The map is increasing, so it keeps edges normalized.
    """
    return v >> (r - 2) << r | high_bits << (r - 2) | v & ((1 << (r - 2)) - 1)
