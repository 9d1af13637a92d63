"""Color change rule, closure process and forcing-set membership tests.

The engine checks the vertex sets it is given, for every caller: an entry
that is not an integer in [0, n) raises ValueError."""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress
from operator import index
from typing import Iterable, NamedTuple, Optional

from .graph import Edge, Frozen, Graph, is_vertex, matching_diagnostic
from .kernels import run_closure


class ForceEvent(NamedTuple):
    round: int
    forcer: int
    forced: int


class ForcingTrace(NamedTuple):
    """Ordered record of force events from a fixed reference schedule."""

    initial: frozenset[int]
    events: tuple[ForceEvent, ...]

    def replay(self, g: Graph) -> frozenset[int]:
        """Re-apply the events one by one, checking each precondition.

        Raises AssertionError if any event fires against an invalid state,
        also under ``python -O``; returns the resulting black set.
        """
        black = set(self.initial)
        for ev in self.events:
            if ev.forcer not in black:
                raise AssertionError(f"forcer {ev.forcer} not black")
            if ev.forced in black:
                raise AssertionError(f"{ev.forced} forced twice")
            whites = [u for u in g.adjacency[ev.forcer] if u not in black]
            if whites != [ev.forced]:
                raise AssertionError(f"forcer {ev.forcer} whites {whites}, "
                                     f"expected [{ev.forced}]")
            black.add(ev.forced)
        return frozenset(black)


class ClosureResult(Frozen):
    """Final black set of a closure, with the kernel's three int32 event
    arrays (round, forcer, forced) as `run_closure` returns them; `trace`
    builds the ForceEvents on first read.  The events take no part in
    equality, the hash or the repr."""

    final: frozenset[int]
    initial: frozenset[int]
    events: tuple

    def __init__(self, final: frozenset[int], initial: frozenset[int],
                 events: tuple) -> None:
        d = self.__dict__
        d["final"], d["initial"], d["events"] = final, initial, events

    def __eq__(self, other: object) -> bool:
        if type(other) is not ClosureResult:
            return NotImplemented
        return self.final == other.final and self.initial == other.initial

    def __hash__(self) -> int:
        return hash((self.final, self.initial))

    def __repr__(self) -> str:
        return f"ClosureResult(final={self.final!r}, initial={self.initial!r})"

    @cached_property
    def trace(self) -> ForcingTrace:
        return ForcingTrace(self.initial, tuple(
            map(ForceEvent, *(a.tolist() for a in self.events))))


def _vertex_set(g: Graph, vertices: Iterable[int]) -> set[int]:
    """`vertices` as the set of distinct ints the kernel takes.

    Python ints and numpy integer scalars pass through `operator.index`.
    Raises ValueError for a vertex that is not an integer in [0, n), which
    indexing would otherwise wrap (-1), reject with an IndexError (n) or
    accept as 1 (True), before duplicates go: False is refused next to 0.
    """
    n = g.vertex_count
    black = set()
    for v in vertices:
        # plain ints skip the call, which would double this loop's time
        if not (type(v) is int or is_vertex(v)) or not 0 <= v < n:
            raise ValueError(f"vertex {v!r} is not an integer in [0, {n})")
        black.add(index(v))
    return black


def closure(g: Graph, initial: Iterable[int]) -> ClosureResult:
    """Closure of the initial black set under the color change rule.

    A black vertex with exactly one white neighbor forces that neighbor.
    The final set is schedule-independent; the trace follows the
    round-synchronous reference schedule (ascending-index scan per round,
    smallest-index forcer on ties, forces applied together at round end).
    """
    init = _vertex_set(g, initial)
    final, *events = run_closure(g, init)
    black = compress(range(g.vertex_count), final)
    return ClosureResult(frozenset(black), frozenset(init), tuple(events))


def is_zero_forcing_set(g: Graph, t: Iterable[int]) -> bool:
    """True iff the closure of t is the whole vertex set."""
    return forces_all(g, t)


def is_edge_forcing_set(g: Graph, k: Iterable[Edge],
                        diagnostics: Optional[list[str]] = None) -> bool:
    """True iff k is a matching of g whose endpoint set is zero-forcing.

    When k is not a matching, returns False; if a `diagnostics` list is
    supplied, the reason ("shares endpoint" vs "non-edge") is appended.

    A matching `matching_diagnostic` accepts has its endpoints in [0, n),
    so when they are all plain ints their set goes to the kernel as it is.
    Any other endpoint (a bool, a numpy integer) takes `forces_all`, which
    meets each endpoint in edge order and refuses the first bad one.
    """
    edges = list(k)
    diag = matching_diagnostic(g, edges)
    if diag is not None:
        if diagnostics is not None:
            diagnostics.append(diag)
        return False
    black = set(chain.from_iterable(edges))
    if set(map(type, black)) != {int}:
        return forces_all(g, chain.from_iterable(edges))
    final, _, _, _ = run_closure(g, black)
    return 0 not in final


def matching_endpoints(k: Iterable[Edge]) -> frozenset[int]:
    return frozenset(v for e in k for v in e)


def forces_all(g: Graph, vertices: Iterable[int]) -> bool:
    """Fast-path membership test: does the closure of `vertices` cover V?

    Skips trace construction.
    """
    final, _, _, _ = run_closure(g, _vertex_set(g, vertices))
    return 0 not in final
