"""Closure propagation kernel.

A vectorized numpy kernel computes the round-synchronous closure under the
reference schedule: each round scans vertices in ascending index, collects
every black vertex whose unique white neighbor is still unclaimed this
round (smallest-index forcer wins a tie), then applies all collected
forces at once.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the closure kernel, for environment stamps."""
    return "numpy"


def run_closure(graph, black: np.ndarray):
    """Closure of `black` under the reference schedule.

    `black` is a uint8 array of length vertex_count; returns
    (final_black, ev_round, ev_forcer, ev_forced).
    """
    src, dst = graph.directed_pairs
    n = black.shape[0]
    state = black.astype(bool).copy()
    rounds: list[np.ndarray] = []
    forcers: list[np.ndarray] = []
    forced: list[np.ndarray] = []
    rnd = 0
    while True:
        rnd += 1
        white = ~state
        if src.size:
            cnt = np.bincount(src, weights=white[dst].astype(np.float64),
                              minlength=n)
        else:
            cnt = np.zeros(n)
        active = state & (cnt == 1)
        if src.size:
            mask = active[src] & white[dst]
        else:
            mask = np.zeros(0, dtype=bool)
        if not mask.any():
            break
        # smallest-index forcer per target
        chosen = np.full(n, n, dtype=np.int64)
        np.minimum.at(chosen, dst[mask], src[mask])
        new = np.nonzero(chosen < n)[0]
        rounds.append(np.full(new.size, rnd, dtype=np.int32))
        forcers.append(chosen[new].astype(np.int32))
        forced.append(new.astype(np.int32))
        state[new] = True
    if rounds:
        ev_round = np.concatenate(rounds)
        ev_forcer = np.concatenate(forcers)
        ev_forced = np.concatenate(forced)
        order = np.lexsort((ev_forcer, ev_round))
        ev_round, ev_forcer, ev_forced = (ev_round[order], ev_forcer[order],
                                          ev_forced[order])
    else:
        ev_round = np.empty(0, dtype=np.int32)
        ev_forcer = np.empty(0, dtype=np.int32)
        ev_forced = np.empty(0, dtype=np.int32)
    return state.astype(np.uint8), ev_round, ev_forcer, ev_forced
