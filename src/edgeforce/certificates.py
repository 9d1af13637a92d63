"""Self-contained, re-verifiable certificates and their JSON serialization.

A certificate carries everything needed to re-check its claim: the graph
(`describe` writes "butterfly:r" for BF(r), else the inline document, and
`resolve_graph` reads it back), the claimed value(s), the witness by
canonical edge identity and by display label, and search metadata,
including the guard an exact search ran under.  Each claim kind has one
builder here, which the CLI emits; ef-number and nonexistence share
`ef_number_certificate`, the one exact edge-forcing search, and
`reduction_certificate` runs both exact searches around the gadget.

The exact builders (zf-number, ef-number, nonexistence and
reduction-equivalence) also write the forts their searches knew, as
ascending vertex lists: `search.forts`, and for a reduction
`search.lifted_forts` of the lifted graph.  A builder's forts seed the
solver's fort pool, and it writes the verdict's `forts`: those seeds,
then the harvest in harvest order.  Every forcing set
meets every fort (Fast & Hicks 2018), so a fort list is the lower side of
a forcing number (the fort cover of Brimkov, Fast & Hicks 2019); seeded
with it, a search rules out every combination the first search closed in
vain without closing it again.

Each input is checked where it is consumed: here a document's keys and
the JSON type of each field its kind reads, in the engine vertex sets,
in the solvers their guard and each listed fort.  ``verify_certificate``
rebuilds a certificate of any kind with its builder, seeded with the
listed forts, and compares kind, claim, graph field (`describe` of the
resolved graph, so an inline graph out of canonical edge order or
orientation fails), trace and witness, with JSON's types kept apart
(true and 1.0 are not 1); where a solver refuses the rebuild (a graph
above the recorded guard, refused from the graph field's counts before
it is built; a listed set that is not a fort) it answers false.  A valid
fort never rules out a forcing set, and a nonexistence claim's per-size
counts are those of `graph.matching_counts`, read off the graph alone,
so the seeds change none of these.
A zf-number or ef-number witness must be the solver's lex-first one,
and it must also force under the plain closure engine, which does not
share the search's fort pruning.  The rest of `search` (`explored`, the
leaves the search tested, which the seeds do change; `seed`, ...) is
provenance, not compared, but a key the rebuild does not write is
refused, as is a guard or seed that is not an int.
"""

from __future__ import annotations

import bisect
import json
import marshal
import re
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Optional, Union

from . import __version__
from .butterfly import MAX_DIMENSION, build_butterfly, butterfly_size
from .constructions import known_bounds
from .engine import closure, is_edge_forcing_set, is_zero_forcing_set
from .graph import Edge, Graph, GraphError, from_edges, matching_counts
from .reduction import MAX_LIFTED_EDGES, build_gbar
from .solver import (DEFAULT_MAX_EDGES, DEFAULT_MAX_VERTICES,
                     InstanceTooLarge, NotAFort, check_guard,
                     min_edge_forcing, min_zero_forcing)

SCHEMA_VERSION = "efc-1"
BUTTERFLY = "butterfly:{}"  # the graph field of BF(r), with r in decimal
# vertex count of BF(MAX_DIMENSION), the largest graph the tool builds
MAX_GRAPH_VERTICES = (MAX_DIMENSION + 1) << MAX_DIMENSION

CLAIM_KINDS = ("closure", "zfs-check", "efs-check", "zf-number", "ef-number",
               "nonexistence", "bounds", "reduction-equivalence")


class CertificateError(ValueError):
    pass


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

def decode_json(text: str) -> Any:
    """The JSON value of outside text (every file the CLI reads);
    CertificateError when it is malformed or nested too deeply."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CertificateError(f"malformed JSON: {exc}") from None


def graph_document(text: Union[str, dict]) -> tuple[int, list[Edge]]:
    """n and the edge pairs of {"n": int, "edges": [[u,v], ...]} (JSON text
    or dict), type-checked and with n inside MAX_GRAPH_VERTICES, but not
    yet built: a caller can refuse the size before it pays for a build."""
    doc = decode_json(text) if isinstance(text, str) else text
    n = require_field(doc, "n", int, "graph document")
    if n > MAX_GRAPH_VERTICES:
        raise CertificateError(
            f"graph has {n} vertices, above the limit {MAX_GRAPH_VERTICES}")
    return n, parse_edges(require_field(doc, "edges", list, "graph document"))


def build_graph(n: int, edges: list[Edge]) -> Graph:
    """from_edges(n, edges), naming a fault as a CertificateError."""
    try:
        return from_edges(n, edges)
    except GraphError as exc:
        raise CertificateError(str(exc)) from None


def parse_graph(text: Union[str, dict]) -> Graph:
    """The graph of a `graph_document`."""
    return build_graph(*graph_document(text))


def _butterfly_dimension(descriptor: Union[str, dict]) -> Optional[int]:
    """r of the canonical descriptor "butterfly:r" (r in plain decimal), or
    None for anything else a `graph` field may be: a graph document with
    the keys "n" and "edges" and no other."""
    if isinstance(descriptor, str):
        found = re.fullmatch(r"butterfly:(0|[1-9][0-9]*)", descriptor)
        if found:
            return int(found[1])
        raise CertificateError(f"unknown graph descriptor {descriptor!r}")
    if isinstance(descriptor, dict):
        unknown = [key for key in descriptor if key not in ("n", "edges")]
        if unknown:
            raise CertificateError(
                f"graph document has unknown keys {unknown}")
    return None


def resolve_graph(descriptor: Union[str, dict]) -> Graph:
    """The graph of a `graph` field, the inverse of `describe`."""
    r = _butterfly_dimension(descriptor)
    return parse_graph(descriptor) if r is None else build_butterfly(r)


def graph_size(descriptor: Union[str, dict]) -> tuple[int, int]:
    """The vertex and edge counts of a `graph` field, checked as
    `resolve_graph` checks it but not built, so that an exact search's
    guard can refuse the graph first."""
    r = _butterfly_dimension(descriptor)
    if r is not None:
        return butterfly_size(r)
    n, edges = graph_document(descriptor)
    return n, len(edges)


def describe(g: Graph) -> Union[str, dict]:
    """The `graph` field of g: "butterfly:r" for BF(r) as `build_butterfly`
    made it, else g's canonical graph document."""
    if g.butterfly is not None:
        return BUTTERFLY.format(g.butterfly)
    return g.to_json_dict()


def edge_witness(g: Graph, edges: Iterable[Edge]) -> dict:
    """Witness record with canonical ids, endpoint pairs and labels.

    An id is the edge's position in the sorted `g.edges`.  The sorted
    witness edges find theirs in one forward scan, each `index` search
    starting at the previous edge's id, so together they cost at most one
    pass over `g.edges` and build no `edge_index` dict.  Only a pair of
    plain ints that the adjacency shows is an edge of g is searched for;
    any other (a non-edge, a loop, an endpoint outside [0, n) or not an
    int) takes its `bisect_left` position, so non-edges cost no scan.

    On BF(r), when every endpoint is a plain int in [0, n) (one check for
    the whole witness), the labels are written in bulk with no
    `vertex_label` call: each is "[row," from a table of the rows, joined
    to "level]" from a table of the levels, both tables ending at the
    largest endpoint's.  Any other witness is labelled vertex by vertex
    with `g.vertex_label`, which writes the same strings.
    """
    es = sorted([(u, v) if u < v else (v, u) for u, v in edges])
    canonical, adj, n = g.edges, g.adjacency, g.vertex_count
    ids, at = [], 0
    for e in es:
        u, v = e
        if type(u) is int and 0 <= u and v < n and v in adj[u]:
            at = canonical.index(e, at)
            ids.append(at)
        else:
            ids.append(bisect.bisect_left(canonical, e))
    r = g.butterfly
    if (r is not None and set(map(type, chain.from_iterable(es))) == {int}
            and 0 <= es[0][0] and (top := max(map(itemgetter(1), es))) < n):
        mask = (1 << r) - 1
        rows = [f"[{row}," for row in range(min(mask, top) + 1)]
        levels = [f"{level}]" for level in range((top >> r) + 1)]
        labels = [[rows[u & mask] + levels[u >> r],
                   rows[v & mask] + levels[v >> r]] for u, v in es]
    else:
        label = g.vertex_label
        labels = [[label(u), label(v)] for u, v in es]
    return {"edge_ids": ids, "edges": list(map(list, es)), "labels": labels}


def vertex_witness(g: Graph, vertices: Iterable[int]) -> dict:
    vs = sorted(vertices)
    return {"vertices": vs, "labels": list(map(g.vertex_label, vs))}


def parse_edges(edges: list) -> list[Edge]:
    """[[u, v], ...] as (u, v) pairs; CertificateError on a malformed entry."""
    pairs = []
    for i, e in enumerate(edges):
        # plain ints skip the call, which would triple this loop's time
        if not (isinstance(e, list) and len(e) == 2
                and (type(e[0]) is int or _is_int(e[0]))
                and (type(e[1]) is int or _is_int(e[1]))):
            raise CertificateError(
                f'edges[{i}] must be a 2-element integer array, got {e!r}')
        pairs.append((e[0], e[1]))
    return pairs


def _witness_edges(witness: Any) -> list[Edge]:
    return parse_edges(require_field(witness, "edges", list, "witness"))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def emit_certificate(c: Certificate) -> str:
    """Deterministic JSON, byte-identical to
    ``json.dumps(vars(c), sort_keys=True, indent=2) + "\\n"``: `_render`
    writes the bulk shapes itself and hands every other value to json."""
    if c.kind not in CLAIM_KINDS:
        raise CertificateError(f"unknown claim kind {c.kind!r}")
    return _render(vars(c), "") + "\n"


_LEAF = {int: int.__repr__, str: json.encoder.encode_basestring_ascii,
         bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _render(value: Any, pad: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` with every line after
    the first indented by `pad`.  With `indent` json runs its pure-Python
    encoder, so the hot shapes are written in bulk: a list of ints, of
    strings or of one other scalar type, and a list of equal-width rows of
    such leaves.  Other non-empty lists, and dicts with string keys in key
    order, recurse; json writes the rest (empty containers, floats, other
    keys and types), which is exact since JSON text never holds a raw
    newline."""
    leaf = _LEAF.get(type(value))
    if leaf:
        return leaf(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if type(value) is dict and value and set(map(type, value)) == {str}:
        return "{\n" + inner + sep.join(
            f"{_LEAF[str](k)}: {_render(value[k], inner)}"
            for k in sorted(value)) + "\n" + pad + "}"
    if type(value) is list and value:
        kinds = set(map(type, value))
        if kinds == {list} and len(widths := set(map(len, value))) == 1:
            leaves = list(chain.from_iterable(value))
            leaf_kinds = set(map(type, leaves))
            if len(leaf_kinds) == 1 and leaf_kinds <= _LEAF.keys():
                row = "[\n" + inner + "  " + (sep + "  ").join(
                    ["{}"] * widths.pop()) + "\n" + inner + "]"
                return "[\n" + inner + sep.join([row] * len(value)).format(
                    *map(_LEAF[leaf_kinds.pop()], leaves)) + "\n" + pad + "]"
        leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(leaf, value) if leaf else (_render(v, inner) for v in value)
        return "[\n" + inner + sep.join(items) + "\n" + pad + "]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def parse_certificate(doc: Union[str, dict]) -> Certificate:
    if isinstance(doc, str):
        doc = decode_json(doc)
    if not isinstance(doc, dict):
        raise CertificateError("certificate must be a JSON object")
    known = {f.name for f in fields(Certificate)}
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise CertificateError(f"certificate has unknown keys {unknown}")
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
    if doc.get("search") is not None and not isinstance(doc["search"], dict):
        raise CertificateError('certificate field "search" must be an object')
    if doc.get("obstructions") is not None:
        # no builder writes one, so nothing would check it
        raise CertificateError('certificate field "obstructions" must be null')
    tool = doc.get("tool", {})
    if "tool" in doc and not (
            isinstance(tool, dict) and tool.keys() == {"name", "version"}
            and tool["name"] == "edgeforce"
            and isinstance(tool["version"], str)):
        raise CertificateError('certificate field "tool" must be '
                               '{"name": "edgeforce", "version": <string>}')
    return Certificate(
        kind=kind, graph=doc["graph"], claim=doc.get("claim", {}),
        witness=doc.get("witness"), trace=doc.get("trace"),
        obstructions=doc.get("obstructions"), search=doc.get("search"),
        schema_version=doc["schema_version"],
        tool=tool)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

WITNESS_DIFFERS = "witness recomputed differs from the certificate's"


def _same(a: Any, b: Any) -> bool:
    """Rebuilt a == given b, which takes true and 1.0 for 1, and then equal
    marshal bytes: format 2 codes each type apart and writes no references,
    but keeps dict order, so dicts go key by key."""
    if type(a) is dict and type(b) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a is b or a == b and marshal.dumps(a, 2) == marshal.dumps(b, 2)


def _search_int(search: dict, key: str, default=None) -> Optional[int]:
    """search[key], which must be an int, when present; else `default`."""
    return require_field(search, key, int, "search") if key in search else default


def _listed_forts(search: dict, key: str) -> list[list[int]]:
    """The fort list search[key] (empty when absent); CertificateError
    unless it is a list of integer lists.  Whether each entry is a fort of
    the graph is the solver's check, where the list seeds its search."""
    forts = require_field(search, key, list, "search") if key in search else []
    for i, fort in enumerate(forts):
        if not (isinstance(fort, list) and all(map(_is_int, fort))):
            raise CertificateError(
                f'search field "{key}" must hold integer lists, '
                f'entry {i} does not')
    return forts


def verify_certificate(doc: Union[str, dict, Certificate]
                       ) -> tuple[bool, str]:
    """Re-check a certificate from its own contents; (ok, details).

    Rebuilds it with the builder the CLI used and compares kind, claim,
    graph, trace and witness, or answers false where a solver refuses the
    rebuild.  A zf-number or ef-number witness must also force under the
    plain closure (`engine.is_zero_forcing_set`, `is_edge_forcing_set`).
    """
    c = doc if isinstance(doc, Certificate) else parse_certificate(doc)
    kind, search = c.kind, c.search or {}
    # an exact kind's graph is built only after its fields' type checks
    # and its search's guard on the field's counts; a bounds certificate
    # is rebuilt from claim.r alone, graph field included.  An exact
    # claim's witness is also closed by the reference engine, which
    # refuses a vertex outside [0, n) and prunes nothing
    witness_forces = True
    try:
        if kind == "zf-number":
            n, _ = graph_size(c.graph)
            require_field(c.claim, "value", int, "claim")
            vertices = require_field(c.witness, "vertices", list, "witness")
            max_n = _search_int(search, "max_n", DEFAULT_MAX_VERTICES)
            forts = _listed_forts(search, "forts")
            check_guard(n, n, max_n, "vertices")
            g = resolve_graph(c.graph)
            witness_forces = is_zero_forcing_set(g, vertices)
            rebuilt = zf_number_certificate(g, max_n, forts)
        elif kind in ("ef-number", "nonexistence"):
            n, m = graph_size(c.graph)
            if kind == "ef-number":
                require_field(c.claim, "value", int, "claim")
                witness = _witness_edges(c.witness)
            else:
                require_field(c.claim, "matchings_tested_per_size", dict,
                              "claim")
            max_edges = _search_int(search, "max_edges", DEFAULT_MAX_EDGES)
            forts = _listed_forts(search, "forts")
            check_guard(n, m, max_edges, "edges")
            g = resolve_graph(c.graph)
            if kind == "ef-number":
                witness_forces = is_edge_forcing_set(g, witness)
            rebuilt = ef_number_certificate(g, max_edges, forts)
        elif kind == "closure":
            rebuilt = closure_certificate(
                resolve_graph(c.graph),
                require_field(c.claim, "initial", list, "claim"))
        elif kind == "zfs-check":
            rebuilt = zfs_check_certificate(
                resolve_graph(c.graph),
                require_field(c.claim, "set", list, "claim"))
        elif kind == "efs-check":
            g = resolve_graph(c.graph)
            edges = _witness_edges(c.witness)
            rebuilt = efs_check_certificate(g, edges)
            if search.get("mode") == "construction":
                # the seed is provenance: an int, but not re-run.  Only the
                # efs-check claim is kept: its witness is freed before the
                # construction's record is built, at the command's peak
                claim = rebuilt.claim
                del rebuilt
                rebuilt = replace(construction_certificate(
                    g, edges, _search_int(search, "seed")), claim=claim)
        elif kind == "bounds":
            rebuilt = bounds_certificate(
                require_field(c.claim, "r", int, "claim"))
        elif kind == "reduction-equivalence":
            n, _ = graph_size(c.graph)
            forts = _listed_forts(search, "forts")
            lifted_forts = _listed_forts(search, "lifted_forts")
            # the guard of the base graph's zf search, at its default
            check_guard(n, n, DEFAULT_MAX_VERTICES, "vertices")
            rebuilt = reduction_certificate(
                resolve_graph(c.graph), forts, lifted_forts)
        else:
            return False, f"unknown claim kind {kind!r}"
    except NotAFort as exc:
        return False, f"search.{exc}"
    except InstanceTooLarge:
        if kind == "reduction-equivalence":
            raise
        what = "nonexistence" if kind == "nonexistence" else "minimality"
        return False, f"{what} re-verification limited to small graphs"
    unknown = [key for key in search if key not in (rebuilt.search or {})]
    if unknown:
        raise CertificateError(f"search has unknown keys {unknown}")
    if rebuilt.kind != kind:
        found = (f" with witness edges {rebuilt.witness['edges']}"
                 if rebuilt.witness else "")
        return False, f"kind recomputed as {rebuilt.kind}{found}"
    if not _same(rebuilt.claim, c.claim):
        return False, f"claim recomputed as {rebuilt.claim}"
    if not _same(rebuilt.graph, c.graph):
        return False, f"graph recomputed as {rebuilt.graph}"
    if not _same(rebuilt.trace, c.trace):
        return False, "trace recomputed differs from the certificate's"
    if not _same(rebuilt.witness, c.witness):
        return False, WITNESS_DIFFERS
    if not witness_forces:
        # the witness equals the solver's here, so only a closure without
        # the search's fort pruning can catch a fault in that pruning
        return False, "witness does not force under the reference closure"
    return True, f"{kind} certificate recomputed from its inputs"


def bf2_nonexistence_counts(g: Graph) -> dict[int, int]:
    """The matchings of each size from 1 to ν(g) of a small graph with no
    edge-forcing set (CertificateError, naming the set, if it has one)."""
    verdict = min_edge_forcing(g, max_edges=g.edge_count)
    if verdict.exists:
        raise CertificateError(
            f"graph admits an edge-forcing set {sorted(verdict.witness)}")
    return dict(enumerate(matching_counts(g)[1:], 1))


# ---------------------------------------------------------------------------
# certificate builders, one per claim kind; each writes describe(g)
# ---------------------------------------------------------------------------

def closure_certificate(g: Graph, initial: Iterable[int]) -> Certificate:
    """The closure certificate; its claim lists the sorted distinct vertex
    ints the engine accepted, so a repeated vertex does not verify."""
    result = closure(g, initial)
    return Certificate(
        kind="closure", graph=describe(g),
        claim={"initial": sorted(result.initial),
               "final": sorted(result.final),
               "covers_all": len(result.final) == g.vertex_count},
        trace=[list(ev) for ev in zip(*(a.tolist() for a in result.events))])


def zfs_check_certificate(g: Graph, vertices: Iterable[int]) -> Certificate:
    """The zfs-check certificate; its "set" lists the accepted vertex ints
    as a closure certificate's "initial" does."""
    result = closure(g, vertices)
    return Certificate(kind="zfs-check", graph=describe(g),
                       claim={"set": sorted(result.initial),
                              "result": len(result.final) == g.vertex_count})


def efs_check_certificate(g: Graph, edges: list[Edge]) -> Certificate:
    diagnostics: list[str] = []
    ok = is_edge_forcing_set(g, edges, diagnostics=diagnostics)
    claim = {"size": len(edges), "result": ok}
    if diagnostics:
        claim["diagnostic"] = diagnostics[0]
    return Certificate(kind="efs-check", graph=describe(g), claim=claim,
                       witness={"edges": list(map(list, edges))})


def zf_number_certificate(g: Graph, max_n: int,
                          forts: Iterable[list[int]] = ()) -> Certificate:
    """The zf-number certificate; `forts` (forts of g, which the solver
    checks) seed the search, and `search.forts` is the verdict's: them,
    then the search's harvest."""
    verdict = min_zero_forcing(g, max_vertices=max_n, forts=forts)
    return Certificate(kind="zf-number", graph=describe(g),
                       claim={"value": verdict.value},
                       search={"forts": verdict.forts, "max_n": max_n},
                       witness=vertex_witness(g, verdict.witness))


def ef_number_certificate(g: Graph, max_edges: int,
                          forts: Iterable[list[int]] = ()) -> Certificate:
    """The ef-number certificate, or nonexistence when no matching forces;
    `forts` as in `zf_number_certificate`.  Only a nonexistence claim
    counts matchings: one per size up to the maximum matching size ν, which
    is then the largest size searched (an ef-number's is its value)."""
    verdict = min_edge_forcing(g, max_edges=max_edges, forts=forts)
    graph = describe(g)
    search = {"explored": verdict.explored, "forts": verdict.forts,
              "max_edges": max_edges,
              "max_matching_size_searched": verdict.value}
    if not verdict.exists:
        counts = matching_counts(g)
        search["max_matching_size_searched"] = len(counts) - 1
        tested = {str(k): c for k, c in enumerate(counts) if k}
        return Certificate(kind="nonexistence", graph=graph, search=search,
                           claim={"matchings_tested_per_size": tested,
                                  "verdict": "not-exists"})
    return Certificate(kind="ef-number", graph=graph,
                       claim={"value": verdict.value},
                       witness=edge_witness(g, sorted(verdict.witness)),
                       search=search)


def reduction_certificate(g: Graph, forts: Iterable[list[int]] = (),
                          lifted_forts: Iterable[list[int]] = ()
                          ) -> Certificate:
    """The reduction-equivalence certificate; `forts` and `lifted_forts`
    (forts of g and of its lifted graph) seed the two searches, as in
    `zf_number_certificate`, and a refusal of a lifted fort names it as
    `lifted_forts`."""
    zf = min_zero_forcing(g, forts=forts)
    try:
        ef = min_edge_forcing(build_gbar(g), MAX_LIFTED_EDGES, lifted_forts)
    except NotAFort as exc:
        raise NotAFort(f"lifted_{exc}") from None
    return Certificate(
        kind="reduction-equivalence", graph=describe(g),
        search={"forts": zf.forts, "lifted_forts": ef.forts},
        claim={"zero_forcing_number": zf.value,
               "lifted_edge_forcing_number": ef.value,
               "equal": ef.exists and ef.value == zf.value},
        witness={"base_vertices": sorted(zf.witness),
                 "lifted_edges": [list(e) for e in sorted(ef.witness)]
                 if ef.witness else None})


def construction_certificate(g: Graph, witness: list[Edge],
                             seed: int) -> Certificate:
    """The efs-check record of a constructed witness on g = BF(r)."""
    return Certificate(
        kind="efs-check", graph=describe(g),
        claim={"size": len(witness), "result": True},
        witness=edge_witness(g, witness),
        search={"mode": "construction", "seed": seed})


def bounds_certificate(r: int) -> Certificate:
    return Certificate(kind="bounds", graph=BUTTERFLY.format(r),
                       claim=asdict(known_bounds(r)))
