"""Acceptance gate: one test per headline claim, each with a time budget.

Every test prints a single PASS/FAIL line with its measured wall time so
the suite doubles as a quick health report (run with -s to see them).
"""

import itertools
import random
import time

from edgeforce.butterfly import build_butterfly
from edgeforce.certificates import (ef_number_certificate,
                                    reduction_certificate)
from edgeforce.constructions import (construct_edge_forcing, find_obstructions,
                                     known_bounds, structural_lower_bound)
from edgeforce.engine import closure, is_edge_forcing_set, matching_endpoints
from edgeforce.graph import from_edges, matching_diagnostic, normalize_edge
from edgeforce.reduction import (build_gbar, lift_zero_forcing,
                                 normalize_and_project)
from edgeforce.solver import (DEFAULT_MAX_EDGES, min_edge_forcing,
                             min_zero_forcing)

from conftest import (closure_sequential, complete_graph, cycle_graph,
                      path_graph, random_graph, vertex_coord, vertex_index)


def report(number, label, elapsed, limit, ok):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status} "
          f"[{elapsed:.2f}s, limit {limit:.0f}s]")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < limit, (
        f"criterion {number} ({label}) took {elapsed:.2f}s, limit {limit}s")


def test_criterion_1_bf2_nonexistence():
    # exhausted through the maximum matching size 4
    start = time.perf_counter()
    cert = ef_number_certificate(build_butterfly(2), DEFAULT_MAX_EDGES)
    elapsed = time.perf_counter() - start
    report(1, "BF(2) has no edge-forcing set", elapsed, 1.0,
           cert.kind == "nonexistence"
           and cert.search["max_matching_size_searched"] == 4)


def test_criterion_2_bf3_exact_eight():
    start = time.perf_counter()
    g = build_butterfly(3)
    witness = construct_edge_forcing(3)
    lower, family = structural_lower_bound(g)
    elapsed = time.perf_counter() - start
    ok = (len(witness) == 8 and is_edge_forcing_set(g, witness)
          and lower == 8 and len(family) == 8)
    report(2, "edge-forcing number of BF(3) is exactly 8", elapsed, 1.0, ok)


def test_criterion_3_bf4_bf5_constructions():
    results = []
    for r, expected in ((4, 25), (5, 47)):
        start = time.perf_counter()
        g = build_butterfly(r)
        witness = construct_edge_forcing(r)
        ok = len(witness) == expected and is_edge_forcing_set(g, witness)
        elapsed = time.perf_counter() - start
        results.append((r, expected, elapsed, ok))
    for r, expected, elapsed, ok in results:
        report(3, f"BF({r}) construction of size {expected}", elapsed, 5.0, ok)


def test_criterion_4_recursive_bounds():
    for r in range(6, 10):
        start = time.perf_counter()
        g = build_butterfly(r)
        witness = construct_edge_forcing(r)
        bound = known_bounds(r).upper_formula
        ok = (matching_diagnostic(g, witness) is None
              and len(witness) <= bound and is_edge_forcing_set(g, witness))
        if r == 7:
            ok = ok and len(witness) <= 252
        elapsed = time.perf_counter() - start
        report(4, f"BF({r}) recursive witness within {bound}", elapsed, 30.0, ok)
    # closure alone on BF(9): 5120 vertices under 5 seconds
    g = build_butterfly(9)
    endpoints = matching_endpoints(construct_edge_forcing(9))
    start = time.perf_counter()
    final = closure(g, endpoints).final
    elapsed = time.perf_counter() - start
    report(4, "BF(9) closure over 5120 vertices", elapsed, 5.0,
           len(final) == g.vertex_count)


def test_criterion_5_reduction_equivalence():
    # the gadget proves ef(lifted) <= Z(G) only: Z(G)'s witness lifts to a
    # forcing twin matching and projects back, and the certificate's
    # `equal` says whether the two numbers meet
    start = time.perf_counter()
    rng = random.Random(2026)
    graphs = [path_graph(3), cycle_graph(4), complete_graph(4)]
    graphs += [random_graph(rng, rng.randint(1, 7), 0.4) for _ in range(50)]
    ok = True
    for g in graphs:
        m = build_gbar(g)
        s = min_zero_forcing(g, max_vertices=16).witness
        zf = len(s)
        lifted = lift_zero_forcing(m, s)
        verdict = min_edge_forcing(m, max_edges=120)
        if not (len(lifted) == zf and is_edge_forcing_set(m, lifted)
                and verdict.exists and verdict.value <= zf
                and normalize_and_project(m, lifted) == s
                and reduction_certificate(g).claim["equal"]
                is (verdict.value == zf)):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(5, "lifted edge-forcing ≤ zero-forcing, twin round trip, "
           "on 53 graphs", elapsed, 120.0, ok)


def oracle_min_edge_forcing(g):
    for size in range(1, g.edge_count + 1):
        for combo in itertools.combinations(g.edges, size):
            if (matching_diagnostic(g, combo) is None
                    and is_edge_forcing_set(g, combo)):
                return size
    return None


def test_criterion_6_engine_properties_and_oracle_sweep():
    start = time.perf_counter()
    rng = random.Random(606)
    ok = True
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.uniform(0.1, 0.9))
        s = {v for v in range(g.vertex_count) if rng.random() < 0.4}
        reference = closure(g, s).final
        bigger = s | {v for v in range(g.vertex_count) if rng.random() < 0.3}
        result = closure(g, s)
        if not (closure_sequential(g, s, rng=rng) == reference
                and closure(g, reference).final == reference
                and reference <= closure(g, bigger).final
                and result.trace.replay(g) == reference):
            ok = False
            break
    if ok:
        for _ in range(500):
            g = random_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.9))
            verdict = min_edge_forcing(g)
            expected = oracle_min_edge_forcing(g)
            agree = ((expected is None and not verdict.exists)
                     or (expected is not None and verdict.exists
                         and verdict.value == expected))
            if not agree:
                ok = False
                break
    elapsed = time.perf_counter() - start
    report(6, "engine properties and 500-instance oracle sweep",
           elapsed, 120.0, ok)


def test_criterion_7_structure_counts():
    start = time.perf_counter()
    ok = True
    for r in range(1, 8):
        g = build_butterfly(r)
        if not (g.vertex_count == (r + 1) * 2 ** r
                and g.edge_count == r * 2 ** (r + 1)):
            ok = False
    for r in range(3, 8):
        ds = find_obstructions(build_butterfly(r))
        seen = set()
        if len(ds) != 2 ** r:
            ok = False
        for d in ds:
            for e in d.cycle_edges():
                if e in seen:
                    ok = False
                seen.add(e)
    # removing level 0 leaves two components, each isomorphic to BF(r-1)
    for r in (3, 4):
        g = build_butterfly(r)
        small = set(build_butterfly(r - 1).edges)
        for bit in (0, 1):
            mapped = set()
            for u, v in g.edges:
                (wu, lu), (wv, lv) = vertex_coord(r, u), vertex_coord(r, v)
                if lu >= 1 and lv >= 1 and wu % 2 == bit and wv % 2 == bit:
                    mapped.add(normalize_edge(
                        vertex_index(r - 1, wu >> 1, lu - 1),
                        vertex_index(r - 1, wv >> 1, lv - 1)))
            if mapped != small:
                ok = False
    elapsed = time.perf_counter() - start
    report(7, "butterfly structure counts and decomposition", elapsed, 1.0, ok)


def test_criterion_8_linear_obstruction_packing():
    # five disjoint K2,5 copies: 50 obstructions, 2 disjoint per copy
    edges = [(7 * c + h, 7 * c + 2 + i)
             for c in range(5) for h in (0, 1) for i in range(5)]
    g = from_edges(35, edges)
    start = time.perf_counter()
    lower, family = structural_lower_bound(g)
    elapsed = time.perf_counter() - start
    report(8, "maximum obstruction packing of 5 K2,5 copies", elapsed, 1.0,
           lower == len(family) == 10)


def test_criterion_9_linear_closure():
    # one force per round: a per-round rescan of every edge is quadratic
    g = path_graph(16000)
    start = time.perf_counter()
    result = closure(g, [0])
    trace = result.trace
    elapsed = time.perf_counter() - start
    report(9, "closure of P_16000 from one end", elapsed, 1.0,
           len(result.final) == g.vertex_count
           and len(trace.events) == g.vertex_count - 1
           and trace.replay(g) == result.final)
