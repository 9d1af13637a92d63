"""Color change rule, closure process and forcing-set membership tests."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from numbers import Integral
from operator import index
from typing import Iterable, Optional

from .graph import Edge, Graph, matching_diagnostic
from .kernels import run_closure


@dataclass(frozen=True)
class ForceEvent:
    round: int
    forcer: int
    forced: int


@dataclass(frozen=True)
class ForcingTrace:
    """Ordered record of force events from a fixed reference schedule."""

    initial: frozenset[int]
    events: tuple[ForceEvent, ...]

    def replay(self, g: Graph) -> frozenset[int]:
        """Re-apply the events one by one, checking each precondition.

        Raises AssertionError if any event fires against an invalid state;
        returns the resulting black set.
        """
        black = set(self.initial)
        for ev in self.events:
            assert ev.forcer in black, f"forcer {ev.forcer} not black"
            assert ev.forced not in black, f"{ev.forced} forced twice"
            whites = [u for u in g.adjacency[ev.forcer] if u not in black]
            assert whites == [ev.forced], (
                f"forcer {ev.forcer} whites {whites}, expected [{ev.forced}]")
            black.add(ev.forced)
        return frozenset(black)


@dataclass(frozen=True)
class ClosureResult:
    """Final black set of a closure, with the kernel's three int32 event
    arrays (round, forcer, forced) as `run_closure` returns them; `trace`
    builds the ForceEvents on first read."""

    final: frozenset[int]
    initial: frozenset[int]
    events: tuple = field(compare=False, repr=False)

    @cached_property
    def trace(self) -> ForcingTrace:
        return ForcingTrace(self.initial, tuple(
            map(ForceEvent, *(a.tolist() for a in self.events))))


def _vertex_set(g: Graph, vertices: Iterable[int]) -> set[int]:
    """`vertices` as the set of distinct ints the kernel takes.

    Python ints and numpy integer scalars pass through `operator.index`.
    Raises ValueError for a vertex that is not an integer in [0, n), which
    indexing would otherwise wrap (-1), reject with an IndexError (n) or
    accept as 1 (True).
    """
    n = g.vertex_count
    black = set()
    for v in vertices:
        if not (type(v) is int or isinstance(v, Integral)
                and not isinstance(v, bool)) or not 0 <= v < n:
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
    init = frozenset(initial)
    final, *events = run_closure(g, _vertex_set(g, init))
    black = compress(range(g.vertex_count), final)
    return ClosureResult(frozenset(black), init, tuple(events))


def closure_sequential(g: Graph, initial: Iterable[int],
                       rng=None) -> frozenset[int]:
    """One-force-at-a-time closure, optionally in random order.

    Independent of the kernels; used as the schedule-independence oracle.
    """
    black = set(initial)
    while True:
        candidates = []
        for v in black:
            whites = [u for u in g.adjacency[v] if u not in black]
            if len(whites) == 1:
                candidates.append((v, whites[0]))
        if not candidates:
            return frozenset(black)
        if rng is None:
            v, w = min(candidates)
        else:
            v, w = candidates[rng.randrange(len(candidates))]
        black.add(w)


def is_zero_forcing_set(g: Graph, t: Iterable[int]) -> bool:
    """True iff the closure of t is the whole vertex set."""
    return forces_all(g, t)


def is_edge_forcing_set(g: Graph, k: Iterable[Edge],
                        diagnostics: Optional[list[str]] = None) -> bool:
    """True iff k is a matching of g whose endpoint set is zero-forcing.

    When k is not a matching, returns False; if a `diagnostics` list is
    supplied, the reason ("shares endpoint" vs "non-edge") is appended.
    """
    edges = list(k)
    diag = matching_diagnostic(g, edges)
    if diag is not None:
        if diagnostics is not None:
            diagnostics.append(diag)
        return False
    return is_zero_forcing_set(g, matching_endpoints(edges))


def matching_endpoints(k: Iterable[Edge]) -> frozenset[int]:
    return frozenset(v for e in k for v in e)


def forces_all(g: Graph, vertices: Iterable[int]) -> bool:
    """Fast-path membership test: does the closure of `vertices` cover V?

    Skips trace construction.
    """
    final, _, _, _ = run_closure(g, _vertex_set(g, vertices))
    return 0 not in final
