"""Closure propagation kernel.

The kernel replays the round-synchronous reference schedule: each round
scans the active black vertices (those with exactly one white neighbor)
in ascending index, each claims its white neighbor unless a smaller
forcer already did this round, and the round's forces apply together.
White-neighbor counts are seeded once; after that a round touches only
its frontier and the neighbors of the vertices it forces.  An active
vertex's count drops to zero in its round, so no vertex is active twice
and a closure costs O((n + m) log n), the log for sorting each frontier.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the closure kernel, for environment stamps."""
    return "frontier"


def run_closure(graph, black: np.ndarray):
    """Closure of `black` under the reference schedule.

    `black` is a uint8 array of length vertex_count; returns
    (final_black, ev_round, ev_forcer, ev_forced), events sorted by round
    then forcer.
    """
    src, dst = graph.directed_pairs
    final = black.astype(bool).view(np.uint8)
    counts = np.bincount(src[final[dst] == 0], minlength=black.shape[0])
    frontier = np.flatnonzero((counts == 1) & (final == 1)).tolist()
    ptr, nbr = map(memoryview, graph.csr)
    state, cnt = memoryview(final), counts.tolist()
    rounds: list[int] = []
    forcers: list[int] = []
    forced: list[int] = []
    rnd = 0
    while frontier:
        rnd += 1
        claimed: dict[int, int] = {}  # forced -> forcer, in forcer order
        for v in frontier:
            for w in nbr[ptr[v]:ptr[v + 1]]:
                if not state[w]:
                    break
            if w not in claimed:
                claimed[w] = v
        touched = list(claimed)
        for w in claimed:
            state[w] = 1
            for u in nbr[ptr[w]:ptr[w + 1]]:
                cnt[u] -= 1
                touched.append(u)
        rounds += [rnd] * len(claimed)
        forcers += claimed.values()
        forced += claimed
        frontier = sorted({u for u in touched if cnt[u] == 1 and state[u]})
    return (final, np.array(rounds, dtype=np.int32),
            np.array(forcers, dtype=np.int32), np.array(forced, dtype=np.int32))
