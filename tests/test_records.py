"""The package's records: which fields take part in equality and hashing,
that no field can be assigned, and the methods they carry."""

import json

import pytest

from edgeforce import __version__
from edgeforce.butterfly import build_butterfly
from edgeforce.certificates import (CLAIM_KINDS, SCHEMA_VERSION, Certificate,
                                    bounds_certificate, closure_certificate,
                                    construction_certificate,
                                    ef_number_certificate,
                                    efs_check_certificate, emit_certificate,
                                    reduction_certificate,
                                    zf_number_certificate,
                                    zfs_check_certificate)
from edgeforce.constructions import (Obstruction, construct_edge_forcing,
                                     known_bounds)
from edgeforce.engine import ClosureResult, ForceEvent, ForcingTrace, closure
from edgeforce.graph import from_edges
from edgeforce.solver import Verdict, min_edge_forcing

from conftest import complete_graph, cycle_graph, path_graph

PATH_EVENTS = (ForceEvent(1, 0, 1), ForceEvent(2, 1, 2), ForceEvent(3, 2, 3))


def test_butterfly_equals_the_graph_of_its_edges():
    g = build_butterfly(3)
    h = from_edges(g.vertex_count, g.edges)
    assert (g.butterfly, h.butterfly) == (3, None)
    assert g == h and not g != h
    assert hash(g) == hash(h)
    assert g != from_edges(g.vertex_count + 1, g.edges)
    assert g != from_edges(g.vertex_count, g.edges[1:])


def test_verdict_equality_reads_only_the_witness():
    a = Verdict(frozenset({(0, 1)}), 3, [[0, 1]])
    b = Verdict(frozenset({(0, 1)}), 7, [])
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != Verdict(frozenset({(1, 2)}), 3, [[0, 1]])
    assert Verdict(None, 3, []) == Verdict(None, 0, [[2]])
    assert Verdict(None, 0, []) != a


def test_search_verdicts_with_more_forts_are_equal():
    g = complete_graph(4)
    first = min_edge_forcing(g)
    again = min_edge_forcing(g, forts=first.forts)
    assert again.explored < first.explored
    assert again == first and hash(again) == hash(first)


def test_closure_results_differ_only_in_events():
    a = closure(path_graph(4), [0])
    b = ClosureResult(a.final, a.initial, ())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != ClosureResult(a.final, frozenset({1}), a.events)
    assert a != ClosureResult(frozenset({0}), a.initial, a.events)


RECORDS = [
    (from_edges(3, [(0, 1), (1, 2)]), ("vertex_count", "edges", "butterfly")),
    (ForceEvent(1, 0, 1), ("round", "forcer", "forced")),
    (ForcingTrace(frozenset({0}), PATH_EVENTS), ("initial", "events")),
    (closure(path_graph(4), [0]), ("final", "initial", "events")),
    (Obstruction((0, 1, 2, 3)), ("cycle",)),
    (known_bounds(3), ("r", "exists", "lower", "exact", "upper_formula",
                       "upper_recursive", "zero_forcing_upper_reference")),
    (Verdict(frozenset({0}), 1, []), ("witness", "explored", "forts")),
    (bounds_certificate(3), ("kind", "graph", "claim", "witness", "trace",
                             "search")),
]


@pytest.mark.parametrize("record, names", RECORDS,
                         ids=lambda x: type(x).__name__)
def test_no_field_can_be_assigned(record, names):
    for name in names:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_trace_replays():
    g = path_graph(4)
    trace = closure(g, [0]).trace
    assert trace == ForcingTrace(frozenset({0}), PATH_EVENTS)
    assert hash(trace) == hash(ForcingTrace(frozenset({0}), PATH_EVENTS))
    assert trace.replay(g) == frozenset(range(4))
    with pytest.raises(AssertionError, match="forcer 1 not black"):
        ForcingTrace(frozenset({0}), PATH_EVENTS[1:]).replay(g)
    with pytest.raises(AssertionError, match="1 forced twice"):
        ForcingTrace(frozenset({0, 1}), PATH_EVENTS).replay(g)


def test_cycle_edges_keep_their_order():
    # x-u, y-v, x-v, y-u, each normalized; the blocked pair is x and y
    o = Obstruction((5, 1, 2, 0))
    assert o.cycle_edges() == ((1, 5), (0, 2), (0, 5), (1, 2))
    assert o.blocked_pair == (5, 2)
    with pytest.raises(AttributeError):
        o.blocked_pair = (5, 2)


def test_exists_and_value():
    assert (Verdict(None, 4, []).exists, Verdict(None, 4, []).value) == (
        False, None)
    found = Verdict(frozenset({(0, 1), (2, 3)}), 4, [])
    assert (found.exists, found.value) == (True, 2)


def test_every_kind_writes_the_tool_record():
    c5 = cycle_graph(5)
    built = [closure_certificate(c5, [0, 1]), zfs_check_certificate(c5, [0]),
             efs_check_certificate(c5, [(0, 1)]),
             zf_number_certificate(c5, 5), ef_number_certificate(c5, 5),
             ef_number_certificate(build_butterfly(2), 40),
             bounds_certificate(3), reduction_certificate(c5),
             construction_certificate(build_butterfly(3),
                                      construct_edge_forcing(3), 1),
             Certificate(kind="bounds", graph="butterfly:3", claim={})]
    assert {c.kind for c in built} == set(CLAIM_KINDS)
    for c in built:
        doc = json.loads(emit_certificate(c))
        assert doc["tool"] == {"name": "edgeforce", "version": __version__}
        assert doc["schema_version"] == SCHEMA_VERSION
        assert "obstructions" in doc and doc["obstructions"] is None
