"""Self-contained, re-verifiable certificates and their JSON serialization.

A certificate carries everything needed to re-check its claim: the graph
(inline or as a "butterfly:r" descriptor), the claimed value(s), the
witness by canonical edge identity and by display label, and search
metadata.  ``verify_certificate`` rebuilds the graph and re-runs the claim:
closure or membership, the exhaustion behind a nonexistence claim or the
minimality of a zf-/ef-number (on graphs within the solver guards), or the
bounds arithmetic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional, Union

from . import __version__
from .butterfly import build_butterfly
from .constructions import BoundsReport, known_bounds, structural_lower_bound
from .engine import closure, is_edge_forcing_set, is_zero_forcing_set
from .graph import Edge, Graph, GraphError, from_edges, normalize_edge
from .solver import DEFAULT_MAX_EDGES, DEFAULT_MAX_VERTICES, exhaust_matchings

SCHEMA_VERSION = "efc-1"

CLAIM_KINDS = ("closure", "zfs-check", "efs-check", "zf-number", "ef-number",
               "nonexistence", "bounds", "reduction-equivalence")


class CertificateError(ValueError):
    pass


class EdgeForcingSetFound(CertificateError):
    """Exhaustion found an edge-forcing set where none was expected."""


def require_field(doc: Any, key: str, kind: type, where: str) -> Any:
    """doc[key], which must be a `kind`; CertificateError otherwise."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kind):
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
    """Witness record with canonical ids, endpoint pairs and labels."""
    es = sorted(normalize_edge(*e) for e in edges)
    return {
        "edge_ids": [g.edge_index[e] for e in es],
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
                or not all(isinstance(x, int) for x in e)):
            raise CertificateError(
                f'edges[{i}] must be a 2-element integer array, got {e!r}')
        pairs.append((e[0], e[1]))
    return pairs


def _vertex_list(doc: Any, key: str, where: str) -> list[int]:
    value = require_field(doc, key, list, where)
    if not all(isinstance(v, int) for v in value):
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
    return json.dumps(asdict(c), sort_keys=True, indent=2) + "\n"


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

def verify_certificate(doc: Union[str, dict, Certificate]
                       ) -> tuple[bool, str]:
    """Re-check a certificate from its own contents; (ok, details)."""
    c = doc if isinstance(doc, Certificate) else parse_certificate(doc)
    g = resolve_graph(c.graph)
    kind = c.kind

    if kind == "closure":
        final = closure(g, _vertex_list(c.claim, "initial", "claim")).final
        expected = set(_vertex_list(c.claim, "final", "claim"))
        if final != frozenset(expected):
            return False, (f"closure mismatch: recomputed {sorted(final)}, "
                           f"certificate says {sorted(expected)}")
        return True, "closure reproduces the recorded final set"

    if kind == "zfs-check":
        got = is_zero_forcing_set(g, _vertex_list(c.claim, "set", "claim"))
        if got != require_field(c.claim, "result", bool, "claim"):
            return False, f"zfs membership recomputed as {got}"
        return True, "zero-forcing membership reproduced"

    if kind == "efs-check":
        edges = _witness_edges(c.witness)
        size = require_field(c.claim, "size", int, "claim")
        if not is_edge_forcing_set(g, edges):
            return False, "witness is not an edge-forcing set"
        if len(edges) != size:
            return False, f"witness size {len(edges)} != claimed {size}"
        return True, f"witness of size {len(edges)} verifies"

    if kind == "zf-number":
        vs = _vertex_list(c.witness, "vertices", "witness")
        value = require_field(c.claim, "value", int, "claim")
        if not is_zero_forcing_set(g, vs):
            return False, "witness is not a zero-forcing set"
        if len(vs) != value:
            return False, f"witness size {len(vs)} != value {value}"
        if g.vertex_count > DEFAULT_MAX_VERTICES:
            return False, "minimality re-verification limited to small graphs"
        smaller = None
        if value:
            # a superset of a forcing set forces, so size value - 1 decides
            smaller = next((s for s in itertools.combinations(
                range(g.vertex_count), value - 1)
                if is_zero_forcing_set(g, s)), None)
        if smaller is not None:
            return False, (f"smaller zero-forcing set {list(smaller)} "
                           f"of size {value - 1}")
        return True, "zero-forcing witness verifies; no smaller set forces"

    if kind == "ef-number":
        edges = _witness_edges(c.witness)
        value = require_field(c.claim, "value", int, "claim")
        if not is_edge_forcing_set(g, edges):
            return False, "witness is not an edge-forcing set"
        if len(edges) != value:
            return False, f"witness size {len(edges)} != value {value}"
        bound, _ = structural_lower_bound(g)
        lower = c.claim.get("lower_bound")
        if lower is not None and bound != lower:
            return False, (f"lower bound recomputed as {bound}, "
                           f"certificate says {lower}")
        if g.edge_count > DEFAULT_MAX_EDGES:
            return False, "minimality re-verification limited to small graphs"
        smaller, _ = exhaust_matchings(g, max(1, bound), value)
        if smaller is not None:
            return False, (f"smaller edge-forcing set {sorted(smaller)} "
                           f"of size {len(smaller)}")
        return True, "edge-forcing witness verifies; no smaller matching forces"

    if kind == "nonexistence":
        claimed = require_field(c.claim, "matchings_tested_per_size", dict,
                                "claim")
        if g.edge_count > DEFAULT_MAX_EDGES:
            return False, "nonexistence re-verification limited to small graphs"
        try:
            counts = bf2_nonexistence_counts(g)
        except EdgeForcingSetFound as found:
            return False, str(found)
        counts = {str(k): v for k, v in counts.items()}
        if counts != claimed:
            return False, (f"exhaustion counts {counts} differ from "
                           f"certificate {claimed}")
        return True, "exhaustive re-run confirms nonexistence"

    if kind == "bounds":
        report = known_bounds(require_field(c.claim, "r", int, "claim"))
        expected = bounds_claim(report)
        if expected != c.claim:
            return False, f"bounds recomputed as {expected}"
        return True, "bounds arithmetic re-validated"

    if kind == "reduction-equivalence":
        from .reduction import verify_equivalence
        ok = verify_equivalence(g)
        if not ok:
            return False, "equivalence no longer holds on re-run"
        return True, "reduction equivalence re-verified"

    return False, f"unknown claim kind {kind!r}"


def bf2_nonexistence_counts(g: Graph) -> dict[int, int]:
    """Exhaustion counts for a small graph with no edge-forcing set
    (EdgeForcingSetFound, naming the set, if it has one)."""
    witness, counts = exhaust_matchings(g)
    if witness is not None:
        raise EdgeForcingSetFound(
            f"graph admits an edge-forcing set {sorted(witness)}")
    return counts


def bounds_claim(report: BoundsReport) -> dict:
    return {k: v for k, v in asdict(report).items()}


# ---------------------------------------------------------------------------
# certificate builders
# ---------------------------------------------------------------------------

def bf2_nonexistence() -> Certificate:
    """Exhaustive nonexistence certificate for BF(2)."""
    counts = bf2_nonexistence_counts(build_butterfly(2))
    return Certificate(
        kind="nonexistence",
        graph="butterfly:2",
        claim={"matchings_tested_per_size": {str(k): v
                                             for k, v in sorted(counts.items())},
               "verdict": "not-exists"},
        search={"mode": "exhaustive", "explored": sum(counts.values())})


def construction_certificate(r: int, witness: list[Edge], seed: int,
                             repairs: Optional[list[str]] = None) -> Certificate:
    g = build_butterfly(r)
    return Certificate(
        kind="efs-check",
        graph=f"butterfly:{r}",
        claim={"size": len(witness), "result": True},
        witness=edge_witness(g, witness),
        search={"mode": "construction", "seed": seed,
                "repairs": repairs or []})


def bounds_certificate(r: int) -> Certificate:
    return Certificate(kind="bounds", graph=f"butterfly:{r}",
                       claim=bounds_claim(known_bounds(r)))
