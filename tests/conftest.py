import itertools
import random

from edgeforce.graph import Graph, from_edges


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edges(n, list(itertools.combinations(range(n), 2)))


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < p]
    return from_edges(n, edges)


def reference_closure(g: Graph, initial) -> tuple[set[int], list[tuple]]:
    """The reference schedule as a plain loop: (final set, events).

    Each round scans vertices in ascending index; a black vertex with one
    white neighbor forces it unless a smaller forcer already claimed it
    this round; the round's forces are applied together at its end.
    Events are (round, forcer, forced).
    """
    black = set(initial)
    events = []
    rnd = 0
    while True:
        rnd += 1
        claimed = {}
        for v in sorted(black):
            whites = [u for u in g.adjacency[v] if u not in black]
            if len(whites) == 1 and whites[0] not in claimed:
                claimed[whites[0]] = v
        if not claimed:
            return black, events
        events += sorted((rnd, v, w) for w, v in claimed.items())
        black |= claimed.keys()
