"""Command-line interface.

Exit codes: 0 = success / true, 1 = false / NotExists, 2 = usage or guard
error.  All output is JSON (certificates) or DOT, so results are
scriptable.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from typing import Iterable, Optional

from .butterfly import build_butterfly
from .certificates import (bounds_certificate, build_graph,
                           closure_certificate, construction_certificate,
                           decode_json, efs_check_certificate,
                           emit_certificate, ef_number_certificate,
                           graph_document, parse_edges,
                           reduction_certificate, require_field,
                           verify_certificate, zf_number_certificate,
                           zfs_check_certificate)
from .constructions import DEFAULT_SEED, ConstructionError, butterfly_witness
from .graph import Edge, Graph
from .reduction import build_gbar
from .solver import (DEFAULT_MAX_EDGES, DEFAULT_MAX_VERTICES,
                     InstanceTooLarge, check_guard)


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


def _load_document(path: str) -> tuple[int, list[Edge]]:
    """n and the edge pairs of a graph file, not yet built."""
    with open(path, encoding="utf-8") as fh:
        return graph_document(fh.read())


def _load_graph(path: str) -> Graph:
    return build_graph(*_load_document(path))


def _load_set(path: str, key: str) -> list:
    """The array field `key` of a JSON set file."""
    with open(path, encoding="utf-8") as fh:
        return require_field(decode_json(fh.read()), key, list, "set file")


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
    sys.stdout.write(emit_certificate(closure_certificate(g, initial)))
    return 0


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    if args.what == "zfs":
        cert = zfs_check_certificate(g, _load_set(args.set, "vertices"))
    else:
        cert = efs_check_certificate(
            g, parse_edges(_load_set(args.set, "edges")))
    sys.stdout.write(emit_certificate(cert))
    return 0 if cert.claim["result"] else 1


def cmd_solve(args) -> int:
    n, edges = _load_document(args.graph)
    # the solver's guard, read off the document before the graph is built
    if args.what == "zf":
        check_guard(n, n, args.max_n, "vertices")
        cert = zf_number_certificate(build_graph(n, edges), args.max_n)
    else:
        check_guard(n, len(edges), args.max_edges, "edges")
        cert = ef_number_certificate(build_graph(n, edges), args.max_edges)
    sys.stdout.write(emit_certificate(cert))
    return 1 if cert.kind == "nonexistence" else 0


def cmd_construct(args) -> int:
    g = build_butterfly(args.r)
    if args.r == 2:
        # BF(2) has no edge-forcing set: exit 1, with nothing to highlight
        sys.stdout.write(to_dot(g) if args.dot else emit_certificate(
            ef_number_certificate(g, DEFAULT_MAX_EDGES)))
        return 1
    witness = butterfly_witness(g, seed=args.seed)
    if args.dot:
        sys.stdout.write(to_dot(g, highlight=witness))
    else:
        sys.stdout.write(emit_certificate(
            construction_certificate(g, witness, args.seed)))
    return 0


def cmd_bounds(args) -> int:
    sys.stdout.write(emit_certificate(bounds_certificate(args.r)))
    return 0


def cmd_reduce(args) -> int:
    n, edges = _load_document(args.graph)
    if not args.verify:
        lifted = build_gbar(build_graph(n, edges))
        sys.stdout.write(json.dumps(lifted.to_json_dict()) + "\n")
        return 0
    # the guard of reduction_certificate's zf search, before the build
    check_guard(n, n, DEFAULT_MAX_VERTICES, "vertices")
    cert = reduction_certificate(build_graph(n, edges))
    sys.stdout.write(emit_certificate(cert))
    return 0 if cert.claim["equal"] else 1


def cmd_verify(args) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        doc = fh.read()
    ok, details = verify_certificate(doc)
    sys.stdout.write(json.dumps({"verified": ok, "details": details}) + "\n")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
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
    # A command builds only acyclic data (int tuples, lists, dicts,
    # bytearrays), which reference counting frees, so the cyclic collector
    # would only rescan it: its passes were a fifth of a BF(3..11) certify
    # run.  Paused here and not in the library, so that no library call
    # changes process-wide state; the state found is put back on any exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ConstructionError, InstanceTooLarge, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
