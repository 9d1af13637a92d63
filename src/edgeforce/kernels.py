"""Closure propagation kernel.

The kernel replays the round-synchronous reference schedule: each round
scans the active black vertices (those with exactly one white neighbor)
in ascending index, each claims its white neighbor unless a smaller
forcer already did this round, and the round's forces apply together.

A force is claimed in place: the forced vertex turns black as soon as
its forcer claims it, so a later forcer of the same round that shared it
finds no white neighbor and forces nothing.  The counts of the claimed
vertices' neighbors fall at the start of the next round, which gives the
same schedule as applying the round's forces together at its end.  The
next frontier is collected as the counts fall: a vertex joins it when it
is claimed with count one, or when a decrement brings a black vertex's
count to exactly one.  Counts only fall, so no vertex is listed twice;
an entry whose count has fallen to zero by its round is skipped.  An
active vertex's count drops to zero by the next round, so no vertex is
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
the greedy completion extend a copy of a closed prefix's state by one
candidate, instead of closing every candidate from scratch, and the
searches close a prefix from its nearest closed ancestor, in one call,
only once a candidate below it is tested.  The searches' fort
minimisation (`solver._minimal_fort`) calls no kernel: it shrinks a
stall's white set on vertex bitmasks, and produces no closed state and
no events.

The kernel walks the graph's cached adjacency tuples and keeps its state
in a bytearray and a list, so a call does no numpy work until
`run_closure` packs its three event lists as int32 arrays: exhaustive
searches test tens of thousands of candidates on graphs of a few dozen
vertices, where fixed per-call setup would dominate.  This is the one
module of the package that imports numpy, and it does so inside
`run_closure`: importing the package, and every command that packs no
events, never loads numpy, which is most of a process's start-up.
"""

from __future__ import annotations

from itertools import chain, repeat


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
    forcers: list[int] = []
    forced: list[int] = []
    sizes: list[int] = []  # forces per round
    new: list[int] = []  # blackened, their neighbors' counts not yet cut
    frontier: list[int] = []
    for w in vertices:
        if not black[w]:
            black[w] = 1
            new.append(w)
            if counts[w] == 1:
                frontier.append(w)
    while True:
        for w in new:
            for u in adj[w]:
                counts[u] -= 1
                if counts[u] == 1 and black[u]:
                    frontier.append(u)
        if not frontier:
            rounds = list(chain.from_iterable(
                map(repeat, range(1, len(sizes) + 1), sizes)))
            return rounds, forcers, forced
        frontier.sort()
        new = []
        claimed_at_one = []
        for v in frontier:
            if counts[v]:
                for w in adj[v]:
                    if not black[w]:
                        black[w] = 1
                        forcers.append(v)
                        new.append(w)
                        if counts[w] == 1:
                            claimed_at_one.append(w)
                        break
        forced += new
        sizes.append(len(new))
        frontier = claimed_at_one


def run_closure(graph, vertices):
    """Closure of the distinct vertex ints `vertices` under the reference
    schedule.

    Returns (final, ev_round, ev_forcer, ev_forced): the final black set as
    the kernel's 0/1 bytearray of length vertex_count, and the events as
    int32 arrays, sorted by round then forcer.
    """
    import numpy as np

    adj = graph.adjacency
    final = bytearray(len(adj))
    events = extend_closure(adj, final, list(map(len, adj)), vertices)
    return (final, *(np.array(e, dtype=np.int32) for e in events))
