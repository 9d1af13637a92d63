"""The package's records: which fields take part in equality and hashing,
that no field can be assigned, and the methods they carry."""

import pytest

from edgeforce import __version__
from edgeforce.butterfly import build_butterfly
from edgeforce.certificates import Certificate, bounds_certificate
from edgeforce.constructions import Obstruction, known_bounds
from edgeforce.engine import ClosureResult, ForceEvent, ForcingTrace, closure
from edgeforce.graph import from_edges
from edgeforce.solver import Verdict, min_edge_forcing

from conftest import complete_graph, path_graph

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
    (Obstruction((0, 1, 2, 3), (0, 2)), ("cycle", "blocked_pair")),
    (known_bounds(3), ("r", "exists", "lower", "exact", "upper_formula",
                       "upper_recursive", "zero_forcing_upper_reference")),
    (Verdict(frozenset({0}), 1, []), ("witness", "explored", "forts")),
    (bounds_certificate(3), ("kind", "graph", "claim", "witness", "trace",
                             "obstructions", "search", "schema_version",
                             "tool")),
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
    # x-u, y-v, x-v, y-u, each normalized
    assert Obstruction((5, 1, 2, 0), (5, 2)).cycle_edges() == (
        (1, 5), (0, 2), (0, 5), (1, 2))


def test_exists_and_value():
    assert (Verdict(None, 4, []).exists, Verdict(None, 4, []).value) == (
        False, None)
    found = Verdict(frozenset({(0, 1), (2, 3)}), 4, [])
    assert (found.exists, found.value) == (True, 2)


def test_each_certificate_has_its_own_tool_record():
    a = Certificate(kind="bounds", graph="butterfly:3", claim={})
    b = bounds_certificate(3)
    assert a.tool == b.tool == {"name": "edgeforce", "version": __version__}
    assert a.tool is not b.tool
    a.tool["name"] = "changed"
    assert Certificate(kind="bounds", graph="butterfly:3",
                       claim={}).tool["name"] == "edgeforce"
