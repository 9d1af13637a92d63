"""Closure propagation kernel.

The kernel replays the round-synchronous reference schedule: each round
scans the active black vertices (those with exactly one white neighbor)
in ascending index, each claims its white neighbor unless a smaller
forcer already did this round, and the round's forces apply together.
An active vertex's count drops to zero in its round, so no vertex is
active twice and a closure costs O((n + m) log n), the log for sorting
each frontier.

There is one propagation routine, `extend_closure`.  It works on a closed
state: the black set as a bytearray and every vertex's count of white
neighbors, with no black vertex left at count one.  It blackens a few
more vertices in place and runs the rounds again, each touching only its
frontier (the black vertices whose count just fell to one) and the
neighbors of the vertices it forces.  `run_closure` starts it from the
all-white state, whose counts are the degrees.  Since the closure is a
closure operator, cl(S | T) = cl(cl(S) | T): the exhaustive searches and
the greedy completion close each prefix once and extend a copy of its
state by one candidate, instead of closing every candidate from scratch.

The kernel walks the graph's cached adjacency tuples and keeps its state
in a bytearray and a list, so a call does no numpy work until
`run_closure` packs its three event lists as int32 arrays: exhaustive
searches test tens of thousands of candidates on graphs of a few dozen
vertices, where fixed per-call setup would dominate.  This is the one
module of the package that imports numpy.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """Name of the closure kernel, for environment stamps."""
    return "frontier"


def extend_closure(adj, black, counts, vertices):
    """Blacken `vertices` in the closed state (black, counts) and close it.

    `adj` is the graph's adjacency, `black` a 0/1 bytearray and `counts`
    the list of white-neighbor counts; both are updated in place.
    `vertices` must be distinct; those already black are skipped.  Returns
    the events (rounds, forcers, forced) as lists, sorted by round then
    forcer, rounds counted from 1.
    """
    rounds: list[int] = []
    forcers: list[int] = []
    forced: list[int] = []
    new = [v for v in vertices if not black[v]]
    rnd = 0
    while True:
        touched = list(new)
        for w in new:
            black[w] = 1
            for u in adj[w]:
                counts[u] -= 1
                touched.append(u)
        frontier = sorted({u for u in touched if counts[u] == 1 and black[u]})
        if not frontier:
            return rounds, forcers, forced
        rnd += 1
        new = {}  # forced -> forcer, in forcer order
        for v in frontier:
            for w in adj[v]:
                if not black[w]:
                    break
            if w not in new:
                new[w] = v
        rounds += [rnd] * len(new)
        forcers += new.values()
        forced += new


def run_closure(graph, vertices):
    """Closure of the distinct vertex ints `vertices` under the reference
    schedule.

    Returns (final, ev_round, ev_forcer, ev_forced): the final black set as
    the kernel's 0/1 bytearray of length vertex_count, and the events as
    int32 arrays, sorted by round then forcer.
    """
    adj = graph.adjacency
    final = bytearray(len(adj))
    events = extend_closure(adj, final, [len(a) for a in adj], vertices)
    return (final, *(np.array(e, dtype=np.int32) for e in events))
