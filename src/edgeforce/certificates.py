"""Self-contained, re-verifiable certificates and their JSON serialization.

A certificate carries everything needed to re-check its claim: the graph
(inline or as a "butterfly:r" descriptor), the claimed value(s), the
witness by canonical edge identity and by display label, and search
metadata.  ``verify_certificate`` rebuilds the graph and re-runs the cheap
side of the claim (closure or membership) or re-validates bounds
arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional, Union

from . import __version__
from .butterfly import build_butterfly
from .constructions import BoundsReport, known_bounds, structural_lower_bound
from .engine import closure, is_edge_forcing_set, is_zero_forcing_set
from .graph import Edge, Graph, GraphError, from_edges, normalize_edge
from .solver import DEFAULT_MAX_EDGES, exhaust_matchings

SCHEMA_VERSION = "efc-1"

CLAIM_KINDS = ("closure", "zfs-check", "efs-check", "zf-number", "ef-number",
               "nonexistence", "bounds", "reduction-equivalence")


class CertificateError(ValueError):
    pass


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
    if not isinstance(doc, dict):
        raise CertificateError("graph document must be a JSON object")
    if "n" not in doc or not isinstance(doc["n"], int):
        raise CertificateError('graph document needs an integer field "n"')
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise CertificateError('graph document needs an array field "edges"')
    pairs = []
    for i, e in enumerate(edges):
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, int) for x in e)):
            raise CertificateError(
                f'edges[{i}] must be a 2-element integer array, got {e!r}')
        pairs.append((e[0], e[1]))
    try:
        return from_edges(doc["n"], pairs)
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


def _witness_edges(witness: dict) -> list[Edge]:
    return [tuple(e) for e in witness["edges"]]


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
        final = closure(g, c.claim["initial"]).final
        expected = set(c.claim["final"])
        if final != frozenset(expected):
            return False, (f"closure mismatch: recomputed {sorted(final)}, "
                           f"certificate says {sorted(expected)}")
        return True, "closure reproduces the recorded final set"

    if kind == "zfs-check":
        got = is_zero_forcing_set(g, c.claim["set"])
        if got != c.claim["result"]:
            return False, f"zfs membership recomputed as {got}"
        return True, "zero-forcing membership reproduced"

    if kind == "efs-check":
        edges = _witness_edges(c.witness)
        got = is_edge_forcing_set(g, edges)
        if not got:
            return False, "witness is not an edge-forcing set"
        if len(edges) != c.claim["size"]:
            return False, (f"witness size {len(edges)} != claimed "
                           f"{c.claim['size']}")
        return True, f"witness of size {len(edges)} verifies"

    if kind == "zf-number":
        vs = c.witness["vertices"]
        if not is_zero_forcing_set(g, vs):
            return False, "witness is not a zero-forcing set"
        if len(vs) != c.claim["value"]:
            return False, f"witness size {len(vs)} != value {c.claim['value']}"
        return True, "zero-forcing witness verifies at the claimed value"

    if kind == "ef-number":
        edges = _witness_edges(c.witness)
        if not is_edge_forcing_set(g, edges):
            return False, "witness is not an edge-forcing set"
        if len(edges) != c.claim["value"]:
            return False, (f"witness size {len(edges)} != value "
                           f"{c.claim['value']}")
        lower = c.claim.get("lower_bound")
        if lower is not None:
            recomputed, _ = structural_lower_bound(g)
            if recomputed != lower:
                return False, (f"lower bound recomputed as {recomputed}, "
                               f"certificate says {lower}")
        return True, "edge-forcing witness verifies at the claimed value"

    if kind == "nonexistence":
        if g.edge_count > DEFAULT_MAX_EDGES:
            return False, "nonexistence re-verification limited to small graphs"
        counts = {str(k): v for k, v in bf2_nonexistence_counts(g).items()}
        if counts != c.claim["matchings_tested_per_size"]:
            return False, (f"exhaustion counts {counts} differ from "
                           f"certificate {c.claim['matchings_tested_per_size']}")
        return True, "exhaustive re-run confirms nonexistence"

    if kind == "bounds":
        if not isinstance(c.claim.get("r"), int):
            raise CertificateError('bounds certificate needs an integer '
                                   '"claim.r"')
        report = known_bounds(c.claim["r"])
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
    """Exhaustion counts for a small graph with no edge-forcing set."""
    witness, counts = exhaust_matchings(g)
    if witness is not None:
        raise CertificateError(
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
