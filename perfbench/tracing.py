"""Span tracing of edgeforce's layers, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that opens
a span, in every edgeforce module that holds a reference to it (so the
`from .x import f` bindings such as `engine.run_closure` or
`solver.forces_all` are wrapped too), and `uninstall()` puts the originals
back.  Spans live in three parallel lists (parent id, name id, duration)
and are reduced when a pass ends: a span's self time is its duration minus
the durations of its child spans.  Counters are added at the same
boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

from edgeforce import (butterfly, certificates, cli, constructions, engine,
                       graph, kernels, reduction, solver)

MODULES = [graph, kernels, engine, butterfly, constructions, solver,
           reduction, certificates, cli, sys.modules["edgeforce"]]

# Counts are made when a span of the first name opens while a span of the
# second name is open.
NESTED_COUNTS = {
    ("engine.closure", "constructions.construct"):
        "constructions.construct.closure_calls",
    ("engine.forces_all", "solver.zf"): "solver.zf.subsets",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent: list[int] = []
        self.name: list[int] = []
        self.dur: list[float] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.parent)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.dur.append(0.0)
        self._stack.append(sid)
        self._open[name] += 1
        for (child, ancestor), key in NESTED_COUNTS.items():
            if name == child and self._open[ancestor]:
                self.counts[key] += 1
        return sid

    def close(self, sid: int, elapsed: float) -> None:
        self._stack.pop()
        self.dur[sid] += elapsed
        self._open[self.names[self.name[sid]]] -= 1

    def span(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid, time.perf_counter() - t0)
            if count is not None:
                count(self, args, result)
            return result
        return wrapper

    def generator_span(self, name: str, fn: Callable, counter: str) -> Callable:
        """A span whose duration is the time spent inside next() calls."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            sid = None
            while True:
                if sid is None:
                    sid = self.open(name)
                else:
                    self._stack.append(sid)
                    self._open[name] += 1
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(sid, time.perf_counter() - t0)
                self.counts[counter] += 1
                yield item
        return wrapper

    def reset(self) -> None:
        self.parent.clear()
        self.name.clear()
        self.dur.clear()
        self.counts.clear()

    # -- install ----------------------------------------------------------

    def _replace(self, original: object, wrapper: object) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_property(self, cls: type, attr: str, name: str) -> None:
        prop = cls.__dict__[attr]
        new = functools.cached_property(self.span(name, prop.func))
        new.__set_name__(cls, attr)
        self._saved.append((cls, attr, prop))
        setattr(cls, attr, new)

    def install(self) -> None:
        def closure_counts(tracer, args, result):
            g, (_, ev_round, _, _) = args[0], result
            rounds = int(ev_round[-1]) + 1 if ev_round.size else 1
            tracer.counts["kernels.rounds"] += rounds
            tracer.counts["kernels.forces"] += int(ev_round.size)
            tracer.counts["kernels.pair_scans"] += rounds * 2 * g.edge_count

        def obstruction_counts(tracer, args, result):
            k = len(result)
            tracer.counts["constructions.obstructions"] += k
            tracer.counts["constructions.conflict_pairs"] += k * (k - 1)
            tracer.counts["constructions.packing_greedy"] += k > 64

        def construct_counts(tracer, args, result):
            if not tracer._open["constructions.construct"]:
                tracer.counts["constructions.construct.edges_kept"] += len(result)

        def search_counts(tracer, args, result):
            tracer.counts["solver.candidates"] += result.explored
            tracer.counts["solver.witnesses"] += result.exists

        def emit_counts(tracer, args, result):
            tracer.counts["certificates.emit_bytes"] += len(result)

        plain = [
            (cli.main, "cli", None),
            (graph.from_edges, "graph.from_edges", None),
            (butterfly.build_butterfly, "butterfly.build", None),
            (kernels.run_closure, "kernels.run_closure", closure_counts),
            (engine.closure, "engine.closure", None),
            (engine.forces_all, "engine.forces_all", None),
            (engine.is_zero_forcing_set, "engine.membership", None),
            (engine.is_edge_forcing_set, "engine.membership", None),
            (constructions.structural_lower_bound, "constructions.lower_bound",
             None),
            (constructions.find_obstructions, "constructions.lower_bound",
             obstruction_counts),
            (constructions.construct_edge_forcing, "constructions.construct",
             construct_counts),
            (solver.min_edge_forcing, "solver.ef", search_counts),
            (solver.min_zero_forcing, "solver.zf", None),
            (reduction.build_gbar, "reduction.build_gbar", None),
            (certificates.emit_certificate, "certificates.emit", emit_counts),
            (certificates.parse_certificate, "certificates.parse", None),
            (certificates.parse_graph, "certificates.parse", None),
            (certificates.verify_certificate, "certificates.verify", None),
            (certificates.bf2_nonexistence_counts,
             "certificates.nonexistence_recount", None),
            (certificates.construction_certificate, "certificates.build", None),
            (certificates.bounds_certificate, "certificates.build", None),
            (certificates.edge_witness, "certificates.build", None),
            (certificates.vertex_witness, "certificates.build", None),
        ]
        for fn, name, count in plain:
            self._replace(fn, self.span(name, fn, count))
        self._replace(graph.matchings_of_size,
                      self.generator_span("graph.matchings",
                                          graph.matchings_of_size,
                                          "graph.matchings.yielded"))
        for attr in ("csr", "directed_pairs"):
            self._replace_property(graph.Graph, attr, "graph.csr")
        for attr in ("adjacency", "edge_index"):
            self._replace_property(graph.Graph, attr, "graph.adjacency")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reduction --------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Self seconds by span name, and by (root span name, span name)."""
        child = [0.0] * len(self.dur)
        root = list(range(len(self.dur)))
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.dur[sid]
                root[sid] = root[parent]
        total: dict = defaultdict(float)
        by_root: dict = defaultdict(float)
        for sid, nid in enumerate(self.name):
            own = self.dur[sid] - child[sid]
            total[self.names[nid]] += own
            by_root[self.names[self.name[root[sid]]], self.names[nid]] += own
        return total, by_root

    def calls(self) -> Counter:
        return Counter(self.names[nid] for nid in self.name)

    def total(self, name: str) -> float:
        """Summed duration of the spans called `name` (not nested in one
        another for the names this is used on)."""
        nid = self._name_ids.get(name)
        return sum(d for n, d in zip(self.name, self.dur) if n == nid)
