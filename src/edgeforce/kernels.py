"""Closure propagation kernel.

The kernel replays the round-synchronous reference schedule: each round
scans the active black vertices (those with exactly one white neighbor)
in ascending index, each claims its white neighbor unless a smaller
forcer already did this round, and the round's forces apply together.
White-neighbor counts are seeded once; after that a round touches only
its frontier and the neighbors of the vertices it forces.  An active
vertex's count drops to zero in its round, so no vertex is active twice
and a closure costs O((n + m) log n), the log for sorting each frontier.

The kernel walks the graph's cached adjacency tuples and keeps the black
set in a bytearray, so a call does no numpy work until it packs its
result: exhaustive searches make tens of thousands of closures on graphs
of a few dozen vertices, where fixed per-call setup would dominate.
"""

from __future__ import annotations

from itertools import compress

import numpy as np


def backend_name() -> str:
    """Name of the closure kernel, for environment stamps."""
    return "frontier"


def run_closure(graph, black):
    """Closure of `black` under the reference schedule.

    `black` is a 0/1 byte buffer of length vertex_count (a bytearray or a
    uint8 array), left unchanged; returns (final_black, ev_round,
    ev_forcer, ev_forced): the final black set as a uint8 array and the
    events as int32 arrays, sorted by round then forcer.
    """
    adj = graph.adjacency
    state = bytearray(black)
    cnt = [len(a) for a in adj]
    initial = list(compress(range(len(state)), state))
    for v in initial:
        for u in adj[v]:
            cnt[u] -= 1
    frontier = [v for v in initial if cnt[v] == 1]
    rounds: list[int] = []
    forcers: list[int] = []
    forced: list[int] = []
    rnd = 0
    while frontier:
        rnd += 1
        claimed: dict[int, int] = {}  # forced -> forcer, in forcer order
        for v in frontier:
            for w in adj[v]:
                if not state[w]:
                    break
            if w not in claimed:
                claimed[w] = v
        touched = list(claimed)
        for w in claimed:
            state[w] = 1
            for u in adj[w]:
                cnt[u] -= 1
                touched.append(u)
        rounds += [rnd] * len(claimed)
        forcers += claimed.values()
        forced += claimed
        frontier = sorted({u for u in touched if cnt[u] == 1 and state[u]})
    return (np.frombuffer(state, np.uint8), np.array(rounds, dtype=np.int32),
            np.array(forcers, dtype=np.int32), np.array(forced, dtype=np.int32))
