"""Self-contained, re-verifiable certificates and their JSON serialization.

A certificate carries everything needed to re-check its claim: the graph
(inline or as a "butterfly:r" descriptor), the claimed value(s), the
witness by canonical edge identity and by display label, and search
metadata, including the guard an exact search ran under.  Each claim kind
has one builder here, which the CLI emits.  ``verify_certificate`` rebuilds
a closure, zfs-check, efs-check, nonexistence, bounds or
reduction-equivalence certificate from its inputs with the same builder and
compares claim, graph and trace; a zf-number or ef-number claim is
re-checked by its witness and by minimality, within the recorded search
guard.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Iterable, Optional, Union

from . import __version__
from .butterfly import MAX_DIMENSION, build_butterfly
from .constructions import known_bounds, structural_lower_bound
from .engine import closure, is_edge_forcing_set, is_zero_forcing_set
from .graph import Edge, Graph, GraphError, from_edges, normalize_edge
from .reduction import solve_equivalence
from .solver import (DEFAULT_MAX_EDGES, DEFAULT_MAX_VERTICES, exhaust_matchings,
                     first_forcing_subset, min_edge_forcing, min_zero_forcing,
                     require_vertex)

SCHEMA_VERSION = "efc-1"
# vertex count of BF(MAX_DIMENSION), the largest graph the tool builds
MAX_GRAPH_VERTICES = (MAX_DIMENSION + 1) << MAX_DIMENSION

CLAIM_KINDS = ("closure", "zfs-check", "efs-check", "zf-number", "ef-number",
               "nonexistence", "bounds", "reduction-equivalence")


class CertificateError(ValueError):
    pass


class EdgeForcingSetFound(CertificateError):
    """Exhaustion found an edge-forcing set where none was expected."""


def _is_int(value: Any) -> bool:
    """An int that is not a bool: JSON's true and false load as Python
    bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_field(doc: Any, key: str, kind: type, where: str) -> Any:
    """doc[key], which must be a `kind` (an int field refuses bools);
    CertificateError otherwise."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise CertificateError(
            f'{where} needs a field "{key}" of type {kind.__name__}')
    return value


@dataclass(frozen=True)
class Certificate:
    kind: str
    graph: Union[str, dict]  # "butterfly:r" or {"n":..., "edges":[...]}
    claim: dict
    witness: Optional[dict] = None
    trace: Optional[list] = None
    obstructions: Optional[list] = None
    search: Optional[dict] = None
    schema_version: str = SCHEMA_VERSION
    tool: dict = field(default_factory=lambda: {"name": "edgeforce",
                                                "version": __version__})


# ---------------------------------------------------------------------------
# graph parsing / description
# ---------------------------------------------------------------------------

def parse_graph(text: Union[str, dict]) -> Graph:
    """Parse {"n": int, "edges": [[u,v], ...]} (JSON text or dict)."""
    if isinstance(text, str):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"malformed JSON: {exc}") from None
    else:
        doc = text
    n = require_field(doc, "n", int, "graph document")
    if n > MAX_GRAPH_VERTICES:
        raise CertificateError(
            f"graph has {n} vertices, above the limit {MAX_GRAPH_VERTICES}")
    edges = parse_edges(require_field(doc, "edges", list, "graph document"))
    try:
        return from_edges(n, edges)
    except GraphError as exc:
        raise CertificateError(str(exc)) from None


def resolve_graph(descriptor: Union[str, dict]) -> Graph:
    if isinstance(descriptor, str):
        if descriptor.startswith("butterfly:"):
            return build_butterfly(int(descriptor.split(":", 1)[1]))
        raise CertificateError(f"unknown graph descriptor {descriptor!r}")
    return parse_graph(descriptor)


def edge_witness(g: Graph, edges: Iterable[Edge]) -> dict:
    """Witness record with canonical ids, endpoint pairs and labels.

    An id is the edge's position in the sorted `g.edges`, found by
    bisection: no `edge_index` dict is built for a witness of a few edges.
    """
    es = sorted(normalize_edge(*e) for e in edges)
    return {
        "edge_ids": [bisect.bisect_left(g.edges, e) for e in es],
        "edges": [list(e) for e in es],
        "labels": [[g.vertex_label(u), g.vertex_label(v)] for u, v in es],
    }


def vertex_witness(g: Graph, vertices: Iterable[int]) -> dict:
    vs = sorted(vertices)
    return {"vertices": vs, "labels": [g.vertex_label(v) for v in vs]}


def parse_edges(edges: list) -> list[Edge]:
    """[[u, v], ...] as (u, v) pairs; CertificateError on a malformed entry."""
    pairs = []
    for i, e in enumerate(edges):
        if (not isinstance(e, list) or len(e) != 2
                or not all(map(_is_int, e))):
            raise CertificateError(
                f'edges[{i}] must be a 2-element integer array, got {e!r}')
        pairs.append((e[0], e[1]))
    return pairs


def _vertex_list(doc: Any, key: str, where: str) -> list[int]:
    value = require_field(doc, key, list, where)
    if not all(map(_is_int, value)):
        raise CertificateError(f'{where} field "{key}" must hold integers')
    return value


def _witness_edges(witness: Any) -> list[Edge]:
    return parse_edges(require_field(witness, "edges", list, "witness"))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def emit_certificate(c: Certificate) -> str:
    """Deterministic JSON: sorted keys, stable indentation."""
    if c.kind not in CLAIM_KINDS:
        raise CertificateError(f"unknown claim kind {c.kind!r}")
    return json.dumps(vars(c), sort_keys=True, indent=2) + "\n"


def parse_certificate(doc: Union[str, dict]) -> Certificate:
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise CertificateError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise CertificateError(
            f"schema mismatch: expected {SCHEMA_VERSION!r}, "
            f"got {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    if kind not in CLAIM_KINDS:
        raise CertificateError(f"unknown claim kind {kind!r}")
    if "graph" not in doc:
        raise CertificateError('certificate needs a "graph" field')
    if not isinstance(doc.get("claim", {}), dict):
        raise CertificateError('certificate field "claim" must be an object')
    return Certificate(
        kind=kind, graph=doc["graph"], claim=doc.get("claim", {}),
        witness=doc.get("witness"), trace=doc.get("trace"),
        obstructions=doc.get("obstructions"), search=doc.get("search"),
        schema_version=doc["schema_version"],
        tool=doc.get("tool", {}))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

WITNESS_DIFFERS = "witness recomputed differs from the certificate's"


def _guard(c: Certificate, key: str, default: int) -> int:
    """The search guard recorded as search[key], else the solver default."""
    search = c.search if isinstance(c.search, dict) else {}
    return require_field(search, key, int, "search") if key in search else default


def verify_certificate(doc: Union[str, dict, Certificate]
                       ) -> tuple[bool, str]:
    """Re-check a certificate from its own contents; (ok, details)."""
    c = doc if isinstance(doc, Certificate) else parse_certificate(doc)
    kind = c.kind
    # a bounds certificate is rebuilt from claim.r alone, graph field included
    g = None if kind == "bounds" else resolve_graph(c.graph)
    if kind in ("zf-number", "ef-number", "nonexistence"):
        require_vertex(g)

    if kind == "zf-number":
        vs = _vertex_list(c.witness, "vertices", "witness")
        value = require_field(c.claim, "value", int, "claim")
        if not is_zero_forcing_set(g, vs):
            return False, "witness is not a zero-forcing set"
        if len(vs) != value:
            return False, f"witness size {len(vs)} != value {value}"
        if g.vertex_count > _guard(c, "max_n", DEFAULT_MAX_VERTICES):
            return False, "minimality re-verification limited to small graphs"
        smaller = None
        if value:
            # a superset of a forcing set forces, so size value - 1 decides
            smaller, _ = first_forcing_subset(g, value - 1)
        if smaller is not None:
            return False, (f"smaller zero-forcing set {sorted(smaller)} "
                           f"of size {value - 1}")
        if c.witness != vertex_witness(g, vs):
            return False, WITNESS_DIFFERS
        return True, "zero-forcing witness verifies; no smaller set forces"

    if kind == "ef-number":
        edges = _witness_edges(c.witness)
        value = require_field(c.claim, "value", int, "claim")
        if not is_edge_forcing_set(g, edges):
            return False, "witness is not an edge-forcing set"
        if len(edges) != value:
            return False, f"witness size {len(edges)} != value {value}"
        if g.edge_count > _guard(c, "max_edges", DEFAULT_MAX_EDGES):
            return False, "minimality re-verification limited to small graphs"
        bound, _ = structural_lower_bound(g)
        smaller, _ = exhaust_matchings(g, max(1, bound), value)
        if smaller is not None:
            return False, (f"smaller edge-forcing set {sorted(smaller)} "
                           f"of size {len(smaller)}")
        if c.witness != edge_witness(g, edges):
            return False, WITNESS_DIFFERS
        return True, "edge-forcing witness verifies; no smaller matching forces"

    if kind == "closure":
        rebuilt = closure_certificate(
            g, _vertex_list(c.claim, "initial", "claim"), c.graph)
    elif kind == "zfs-check":
        rebuilt = zfs_check_certificate(
            g, _vertex_list(c.claim, "set", "claim"), c.graph)
    elif kind == "efs-check":
        edges = _witness_edges(c.witness)
        rebuilt = efs_check_certificate(g, edges, c.graph)
        if isinstance(c.search, dict) and c.search.get("mode") == "construction":
            # construction_certificate's edge_witness record, from g
            rebuilt = replace(rebuilt, witness=edge_witness(g, edges))
    elif kind == "nonexistence":
        require_field(c.claim, "matchings_tested_per_size", dict, "claim")
        if g.edge_count > _guard(c, "max_edges", DEFAULT_MAX_EDGES):
            return False, "nonexistence re-verification limited to small graphs"
        try:
            counts = bf2_nonexistence_counts(g)
        except EdgeForcingSetFound as found:
            return False, str(found)
        rebuilt = nonexistence_certificate(c.graph, counts)
    elif kind == "bounds":
        rebuilt = bounds_certificate(require_field(c.claim, "r", int, "claim"))
    elif kind == "reduction-equivalence":
        rebuilt = reduction_certificate(g, c.graph)
    else:
        return False, f"unknown claim kind {kind!r}"
    if rebuilt.claim != c.claim:
        return False, f"claim recomputed as {rebuilt.claim}"
    if rebuilt.graph != c.graph:
        return False, f"graph recomputed as {rebuilt.graph}"
    if rebuilt.trace != c.trace:
        return False, "trace recomputed differs from the certificate's"
    if rebuilt.witness != c.witness:
        return False, WITNESS_DIFFERS
    return True, f"{kind} claim and trace recomputed from the inputs"


def bf2_nonexistence_counts(g: Graph) -> dict[int, int]:
    """Exhaustion counts for a small graph with no edge-forcing set
    (EdgeForcingSetFound, naming the set, if it has one)."""
    witness, counts = exhaust_matchings(g)
    if witness is not None:
        raise EdgeForcingSetFound(
            f"graph admits an edge-forcing set {sorted(witness)}")
    return counts


# ---------------------------------------------------------------------------
# certificate builders, one per claim kind; verify passes the `graph` field
# ---------------------------------------------------------------------------

def closure_certificate(g: Graph, initial: list[int],
                        graph: Union[str, dict, None] = None) -> Certificate:
    result = closure(g, initial)
    return Certificate(
        kind="closure", graph=g.to_json_dict() if graph is None else graph,
        claim={"initial": sorted(initial), "final": sorted(result.final),
               "covers_all": len(result.final) == g.vertex_count},
        trace=[list(ev) for ev in zip(*(a.tolist() for a in result.events))])


def zfs_check_certificate(g: Graph, vertices: list[int],
                          graph: Union[str, dict, None] = None) -> Certificate:
    ok = is_zero_forcing_set(g, vertices)
    return Certificate(kind="zfs-check",
                       graph=g.to_json_dict() if graph is None else graph,
                       claim={"set": sorted(vertices), "result": ok})


def efs_check_certificate(g: Graph, edges: list[Edge],
                          graph: Union[str, dict, None] = None) -> Certificate:
    diagnostics: list[str] = []
    ok = is_edge_forcing_set(g, edges, diagnostics=diagnostics)
    claim = {"size": len(edges), "result": ok}
    if diagnostics:
        claim["diagnostic"] = diagnostics[0]
    return Certificate(kind="efs-check",
                       graph=g.to_json_dict() if graph is None else graph,
                       claim=claim, witness={"edges": [list(e) for e in edges]})


def zf_number_certificate(g: Graph, max_n: int) -> Certificate:
    value, witness = min_zero_forcing(g, max_vertices=max_n)
    return Certificate(kind="zf-number", graph=g.to_json_dict(),
                       claim={"value": value}, search={"max_n": max_n},
                       witness=vertex_witness(g, witness))


def ef_number_certificate(g: Graph, max_edges: int) -> Certificate:
    """The ef-number certificate, or nonexistence when no matching forces."""
    verdict = min_edge_forcing(g, max_edges=max_edges)
    search = {"explored": verdict.explored, "max_edges": max_edges,
              "max_matching_size_searched": verdict.max_matching_size_searched}
    if not verdict.exists:
        return nonexistence_certificate(
            g.to_json_dict(), verdict.matchings_tested_per_size, search)
    return Certificate(kind="ef-number", graph=g.to_json_dict(),
                       claim={"value": verdict.value},
                       witness=edge_witness(g, sorted(verdict.witness)),
                       search=search)


def nonexistence_certificate(graph: Union[str, dict], counts: dict[int, int],
                             search: Optional[dict] = None) -> Certificate:
    tested = {str(k): v for k, v in sorted(counts.items())}
    return Certificate(kind="nonexistence", graph=graph, search=search, claim={
        "matchings_tested_per_size": tested, "verdict": "not-exists"})


def bf2_nonexistence() -> Certificate:
    """Exhaustive nonexistence certificate for BF(2)."""
    counts = bf2_nonexistence_counts(build_butterfly(2))
    return nonexistence_certificate("butterfly:2", counts, {
        "mode": "exhaustive", "explored": sum(counts.values())})


def reduction_certificate(g: Graph, graph: Union[str, dict, None] = None
                          ) -> Certificate:
    zf, zf_witness, verdict = solve_equivalence(g)
    return Certificate(
        kind="reduction-equivalence",
        graph=g.to_json_dict() if graph is None else graph,
        claim={"zero_forcing_number": zf,
               "lifted_edge_forcing_number": verdict.value,
               "equal": verdict.exists and verdict.value == zf},
        witness={"base_vertices": sorted(zf_witness),
                 "lifted_edges": [list(e) for e in sorted(verdict.witness)]
                 if verdict.witness else None})


def construction_certificate(g: Graph, r: int, witness: list[Edge],
                             seed: int) -> Certificate:
    """The efs-check record of a constructed witness on g = BF(r)."""
    return Certificate(
        kind="efs-check",
        graph=f"butterfly:{r}",
        claim={"size": len(witness), "result": True},
        witness=edge_witness(g, witness),
        search={"mode": "construction", "seed": seed})


def bounds_certificate(r: int) -> Certificate:
    return Certificate(kind="bounds", graph=f"butterfly:{r}",
                       claim=asdict(known_bounds(r)))
