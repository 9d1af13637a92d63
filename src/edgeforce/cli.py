"""Command-line interface.

Exit codes: 0 = success / true, 1 = false / NotExists, 2 = usage or guard
error.  All output is JSON (certificates) or DOT, so results are
scriptable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, Optional

from .butterfly import ButterflyError, build_butterfly
from .certificates import (Certificate, CertificateError, bf2_nonexistence,
                           bounds_certificate, construction_certificate,
                           edge_witness, emit_certificate, parse_graph,
                           verify_certificate, vertex_witness)
from .constructions import (DEFAULT_SEED, ConstructionError,
                            construct_edge_forcing)
from .engine import closure, is_edge_forcing_set, is_zero_forcing_set
from .graph import Edge, Graph
from .reduction import build_gbar
from .solver import (DEFAULT_MAX_EDGES, DEFAULT_MAX_VERTICES,
                     InstanceTooLarge, min_edge_forcing, min_zero_forcing)


def to_dot(g: Graph, highlight: Optional[Iterable[Edge]] = None) -> str:
    """DOT export; highlighted (witness) edges are drawn red and bold."""
    hot = {tuple(sorted(e)) for e in (highlight or ())}
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.vertex_count):
        lines.append(f'  v{v} [label="{g.vertex_label(v)}"];')
    for u, v in g.edges:
        attr = " [color=red, penwidth=2.0]" if (u, v) in hot else ""
        lines.append(f"  v{u} -- v{v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _load_set(path: str, key: str) -> list:
    """The array field `key` of a JSON set file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise CertificateError(f'set file needs an array field "{key}"')
    return doc[key]


def _print_cert(cert: Certificate) -> None:
    sys.stdout.write(emit_certificate(cert))


def cmd_generate(args) -> int:
    g = build_butterfly(args.r)
    if args.dot:
        sys.stdout.write(to_dot(g))
    else:
        sys.stdout.write(json.dumps(g.to_json_dict()) + "\n")
    return 0


def cmd_closure(args) -> int:
    g = _load_graph(args.graph)
    initial = [int(x) for x in args.black.split(",") if x != ""]
    result = closure(g, initial)
    cert = Certificate(
        kind="closure", graph=g.to_json_dict(),
        claim={"initial": sorted(initial), "final": sorted(result.final),
               "covers_all": len(result.final) == g.vertex_count},
        trace=[[e.round, e.forcer, e.forced] for e in result.trace.events])
    _print_cert(cert)
    return 0


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    if args.what == "zfs":
        vertices = _load_set(args.set, "vertices")
        ok = is_zero_forcing_set(g, vertices)
        cert = Certificate(kind="zfs-check", graph=g.to_json_dict(),
                           claim={"set": sorted(vertices), "result": ok})
        _print_cert(cert)
        return 0 if ok else 1
    edges = [tuple(e) for e in _load_set(args.set, "edges")]
    diagnostics: list[str] = []
    ok = is_edge_forcing_set(g, edges, diagnostics=diagnostics)
    claim = {"size": len(edges), "result": ok}
    if diagnostics:
        claim["diagnostic"] = diagnostics[0]
    cert = Certificate(kind="efs-check", graph=g.to_json_dict(), claim=claim,
                       witness={"edges": [list(e) for e in edges]})
    _print_cert(cert)
    return 0 if ok else 1


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    if args.what == "zf":
        value, witness = min_zero_forcing(g, max_vertices=args.max_n)
        cert = Certificate(kind="zf-number", graph=g.to_json_dict(),
                           claim={"value": value},
                           witness=vertex_witness(g, witness))
        _print_cert(cert)
        return 0
    verdict = min_edge_forcing(g, max_edges=args.max_edges)
    search = {"explored": verdict.explored,
              "max_matching_size_searched": verdict.max_matching_size_searched}
    if verdict.exists:
        cert = Certificate(kind="ef-number", graph=g.to_json_dict(),
                           claim={"value": verdict.value},
                           witness=edge_witness(g, sorted(verdict.witness)),
                           search=search)
        _print_cert(cert)
        return 0
    counts = verdict.matchings_tested_per_size
    cert = Certificate(
        kind="nonexistence", graph=g.to_json_dict(),
        claim={"verdict": "not-exists",
               "matchings_tested_per_size": {str(k): v
                                             for k, v in sorted(counts.items())}},
        search=search)
    _print_cert(cert)
    return 1


def cmd_construct(args) -> int:
    if args.r == 2:
        cert = bf2_nonexistence()
        _print_cert(cert)
        return 1
    repairs: list[str] = []
    witness = construct_edge_forcing(args.r, seed=args.seed,
                                     repair_log=repairs)
    cert = construction_certificate(args.r, witness, args.seed, repairs)
    if args.dot:
        sys.stdout.write(to_dot(build_butterfly(args.r), highlight=witness))
    else:
        _print_cert(cert)
    return 0


def cmd_bounds(args) -> int:
    _print_cert(bounds_certificate(args.r))
    return 0


def cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    m = build_gbar(g)
    if not args.verify:
        sys.stdout.write(json.dumps(m.lifted.to_json_dict()) + "\n")
        return 0
    zf, zf_witness = min_zero_forcing(g)
    verdict = min_edge_forcing(m.lifted, max_edges=120)
    equal = verdict.exists and verdict.value == zf
    cert = Certificate(
        kind="reduction-equivalence", graph=g.to_json_dict(),
        claim={"zero_forcing_number": zf,
               "lifted_edge_forcing_number": verdict.value,
               "equal": equal},
        witness={"base_vertices": sorted(zf_witness),
                 "lifted_edges": [list(e) for e in sorted(verdict.witness)]
                 if verdict.witness else None})
    _print_cert(cert)
    return 0 if equal else 1


def cmd_verify(args) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        doc = fh.read()
    ok, details = verify_certificate(doc)
    sys.stdout.write(json.dumps({"verified": ok, "details": details}) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeforce",
        description="Zero-forcing and edge-forcing toolkit for graphs and "
                    "butterfly networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a named graph family")
    gsub = p.add_subparsers(dest="family", required=True)
    pb = gsub.add_parser("butterfly", help="butterfly network BF(r)")
    pb.add_argument("--r", type=int, required=True)
    pb.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")
    pb.set_defaults(func=cmd_generate)

    p = sub.add_parser("closure", help="run the forcing closure")
    p.add_argument("--graph", required=True)
    p.add_argument("--black", required=True,
                   help="comma-separated initial black vertices")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("check", help="membership tests")
    p.add_argument("what", choices=["zfs", "efs"])
    p.add_argument("--graph", required=True)
    p.add_argument("--set", required=True,
                   help='JSON file with "vertices" (zfs) or "edges" (efs)')
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="exact forcing numbers")
    p.add_argument("what", choices=["zf", "ef"])
    p.add_argument("--graph", required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_VERTICES,
                   help="vertex guard for the zf search")
    p.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES,
                   help="edge guard for the ef search")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("construct", help="edge-forcing construction for BF(r)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="known edge-forcing bounds for BF(r)")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reduce", help="build the hardness gadget graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--verify", action="store_true",
                   help="also check value equivalence with the exact solvers")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ButterflyError, CertificateError, ConstructionError,
            InstanceTooLarge, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
