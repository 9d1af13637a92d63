import bisect
import contextlib
import copy
import functools
import gc
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgeforce import certificates, cli, constructions, solver
from edgeforce.butterfly import build_butterfly
from edgeforce.certificates import (MAX_GRAPH_VERTICES, CertificateError,
                                    bounds_certificate,
                                    construction_certificate, describe,
                                    edge_witness, emit_certificate,
                                    parse_certificate,
                                    parse_graph, resolve_graph,
                                    verify_certificate, vertex_witness)
from edgeforce.cli import main, to_dot
from edgeforce.constructions import DEFAULT_SEED, construct_edge_forcing
from edgeforce.graph import Graph, from_edges, normalize_edge
from edgeforce.solver import DEFAULT_MAX_EDGES, Verdict

from conftest import (cycle_graph, edge_witness_reference, path_graph,
                      random_graph)

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
SRC = pathlib.Path(__file__).parent.parent / "src"
EMPTY = {"n": 0, "edges": []}
C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
K13 = {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}
DEEP = "[" * 1500 + "]" * 1500
C5 = cycle_graph(5).to_json_dict()
C6G = cycle_graph(6)
C6 = C6G.to_json_dict()
PATH42 = path_graph(42).to_json_dict()  # 41 edges, above the ef guard 40
# two 12-vertex paths joined by rungs at 0, 3, 7, 11: 26 edges, 102 lifted
LADDER = {"n": 24, "edges": [[i, i + 1] for i in range(11)]
          + [[i, i + 1] for i in range(12, 23)]
          + [[i, i + 12] for i in (0, 3, 7, 11)]}


def run_json(capsys, argv):
    """(exit code, parsed stdout) of one CLI run."""
    code = main([str(a) for a in argv])
    return code, json.loads(capsys.readouterr().out)


def emit_and_verify(tmp_path, capsys, argv):
    """Run an emitting command, then `verify` on its certificate."""
    code, doc = run_json(capsys, argv)
    cert = tmp_path / "emitted.json"
    cert.write_text(json.dumps(doc))
    return code, run_json(capsys, ["verify", "--cert", cert])


class TestParseGraph:
    def test_round_trip(self):
        g = cycle_graph(4)
        assert parse_graph(json.dumps(g.to_json_dict())).edges == g.edges

    def test_malformed_json(self):
        with pytest.raises(CertificateError, match="malformed JSON"):
            parse_graph("{not json")

    def test_missing_n(self):
        with pytest.raises(CertificateError, match='"n"'):
            parse_graph('{"edges": []}')
        # a JSON boolean is not a vertex count
        with pytest.raises(CertificateError, match='"n" of type int'):
            parse_graph('{"n": true, "edges": []}')

    def test_edges_not_array(self):
        with pytest.raises(CertificateError, match='"edges"'):
            parse_graph('{"n": 3, "edges": 7}')

    def test_bad_edge_entry(self):
        with pytest.raises(CertificateError, match=r"edges\[1\]"):
            parse_graph('{"n": 3, "edges": [[0, 1], [2]]}')
        # nor is a JSON boolean a vertex
        with pytest.raises(CertificateError, match=r"edges\[0\]"):
            parse_graph('{"n": 3, "edges": [[0, true]]}')

    @pytest.mark.parametrize("entry, shown", [
        ("[0, 1, 2]", "[0, 1, 2]"), ("7", "7"), ("[0, 1.0]", "[0, 1.0]"),
        ('["0", 1]', "['0', 1]"), ("[false, 1]", "[False, 1]")])
    def test_bad_edge_entry_message(self, entry, shown):
        with pytest.raises(CertificateError) as exc:
            parse_graph(f'{{"n": 3, "edges": [[0, 1], {entry}]}}')
        assert str(exc.value) == (
            f"edges[1] must be a 2-element integer array, got {shown}")

    def test_self_loop_rejected(self):
        with pytest.raises(CertificateError):
            parse_graph('{"n": 3, "edges": [[1, 1]]}')

    def test_vertex_count_is_bounded(self):
        # BF(16)'s vertex count, the largest graph the tool builds
        assert MAX_GRAPH_VERTICES == 17 << 16 == 1_114_112
        assert parse_graph({"n": MAX_GRAPH_VERTICES,
                            "edges": []}).vertex_count == MAX_GRAPH_VERTICES
        with pytest.raises(CertificateError, match="above the limit"):
            parse_graph({"n": MAX_GRAPH_VERTICES + 1, "edges": []})

    def test_resolve_butterfly_descriptor(self):
        g = resolve_graph("butterfly:3")
        assert g.vertex_count == 32

    def test_resolve_unknown_descriptor(self):
        with pytest.raises(CertificateError, match="unknown graph descriptor"):
            resolve_graph("hypercube:3")

    def test_resolve_refuses_unknown_keys(self):
        # a key other than n and edges is malformed input: the builders
        # write describe(g), which has no other key, so verify would only
        # answer false on a graph field it could not name
        with pytest.raises(CertificateError,
                           match=r"unknown keys \['x'\]"):
            resolve_graph({**C5, "x": [[[1]]]})
        assert parse_graph({**C5, "x": 1}).edges == cycle_graph(5).edges

    @pytest.mark.parametrize("descriptor", [
        "butterfly:x", "butterfly:03", "butterfly:+3", "butterfly:-3",
        "butterfly: 3", "butterfly:3 ", "butterfly:\u0663", "butterfly:"])
    def test_resolve_only_canonical_butterfly(self, descriptor):
        # int() reads "03", "+3", " 3", "3 " and the Arabic-Indic digit
        # three as 3; such a field is not one describe(g) writes, so it is
        # refused as malformed input rather than read as BF(3)
        with pytest.raises(CertificateError, match="unknown graph descriptor"):
            resolve_graph(descriptor)


class TestCertificates:
    @pytest.mark.parametrize("name", sorted(
        path.name for path in FIXTURES.glob("*.json")))
    def test_round_trip_and_byte_determinism(self, name):
        # the record keeps what a builder computes; emit writes the constant
        # fields (obstructions, schema_version, tool) back byte for byte
        text = (FIXTURES / name).read_text()
        cert = parse_certificate(text)
        assert emit_certificate(cert) == text
        assert emit_certificate(cert) == text

    def construction_doc(self, r, keep=None, result=True):
        """BF(r)'s construction certificate as emitted, of its witness's
        first `keep` edges (all by default), with its claim's result set."""
        witness = construct_edge_forcing(r)[:keep]
        doc = json.loads(emit_certificate(construction_certificate(
            build_butterfly(r), witness, DEFAULT_SEED)))
        doc["claim"]["result"] = result
        return doc

    def test_construction_witness_that_does_not_force(self):
        # the record is what construction_certificate writes for these
        # edges, a matching of BF(5); only the closure refuses them
        doc = self.construction_doc(5, keep=-1)
        assert verify_certificate(doc) == (
            False, "witness does not force under the reference closure")

    @pytest.mark.parametrize("keep", [None, -1], ids=["forcing", "not"])
    def test_construction_claiming_false_does_not_verify(self, keep):
        # a construction claims its witness forces: "result": false is
        # refused, whether or not the witness forces
        doc = self.construction_doc(5, keep=keep, result=False)
        size = doc["claim"]["size"]
        assert verify_certificate(doc) == (
            False, f"claim recomputed as {{'size': {size}, 'result': True}}")

    def test_construction_verifies(self):
        cert = construction_certificate(
            build_butterfly(3), construct_edge_forcing(3), DEFAULT_SEED)
        ok, details = verify_certificate(cert)
        assert ok, details

    def test_tampered_witness_detected(self):
        cert = construction_certificate(
            build_butterfly(3), construct_edge_forcing(3), DEFAULT_SEED)
        doc = json.loads(emit_certificate(cert))
        doc["witness"]["edges"] = doc["witness"]["edges"][:-1]
        ok, details = verify_certificate(doc)
        assert not ok

    def test_tampered_claim_detected(self):
        cert = bounds_certificate(5)
        doc = json.loads(emit_certificate(cert))
        doc["claim"]["exact"] = 46
        ok, details = verify_certificate(doc)
        assert not ok and "recomputed" in details

    def test_bounds_verified_without_a_graph(self, monkeypatch):
        built = []
        monkeypatch.setattr(certificates, "build_butterfly", built.append)
        ok, details = verify_certificate(bounds_certificate(12))
        assert ok, details
        assert built == []

    def test_bf2_nonexistence_verifies(self):
        ok, details = verify_certificate(certificates.ef_number_certificate(
            build_butterfly(2), DEFAULT_MAX_EDGES))
        assert ok, details

    @pytest.mark.parametrize("build, bound", [
        (certificates.zf_number_certificate, 24),
        (certificates.ef_number_certificate, DEFAULT_MAX_EDGES)])
    def test_numpy_forts_emit(self, build, bound):
        # the solver stores a listed fort as plain ints, which the builder
        # writes back; numpy integers once failed json.dumps
        cert = build(cycle_graph(5), bound,
                     forts=[[np.int64(v) for v in range(5)]])
        text = emit_certificate(cert)
        assert json.loads(text)["search"]["forts"][0] == [0, 1, 2, 3, 4]
        ok, details = verify_certificate(text)
        assert ok, details

    def test_schema_mismatch(self):
        doc = json.loads(emit_certificate(bounds_certificate(3)))
        doc["schema_version"] = "efc-0"
        with pytest.raises(CertificateError, match="schema mismatch"):
            parse_certificate(doc)

    def test_unknown_kind(self):
        doc = json.loads(emit_certificate(bounds_certificate(3)))
        doc["kind"] = "magic"
        with pytest.raises(CertificateError, match="unknown claim kind"):
            parse_certificate(doc)

    def test_closure_certificate_refuses_a_boolean_vertex(self):
        # the engine checks the list as given, so False is not taken for 0
        with pytest.raises(ValueError, match=r"^vertex False is not an"):
            certificates.closure_certificate(path_graph(3), [0, False])

    def test_closure_certificate_of_numpy_vertices_emits(self):
        # the claim lists the ints the engine accepted, not what was given
        cert = certificates.closure_certificate(path_graph(3), [np.int64(0)])
        doc = json.loads(emit_certificate(cert))
        assert doc["claim"]["initial"] == [0]
        ok, details = verify_certificate(doc)
        assert ok, details

    def test_verify_builds_the_lifted_graph_once(self, monkeypatch):
        cert = certificates.reduction_certificate(cycle_graph(5))
        built = []
        build_gbar = certificates.build_gbar
        monkeypatch.setattr(certificates, "build_gbar",
                            lambda g: built.append(g) or build_gbar(g))
        ok, details = verify_certificate(emit_certificate(cert))
        assert ok, details
        assert len(built) == 1


@st.composite
def witness_pairs(draw):
    """A small graph, tagged as BF(r) or not for its labels, and pairs to
    record: its edges either way round, non-edges, loops, duplicates,
    bools, floats and endpoints outside [0, n)."""
    n = draw(st.integers(0, 7))
    pool = list(itertools.combinations(range(n), 2))
    g = from_edges(n, draw(st.lists(st.sampled_from(pool), unique=True))
                   if pool else [])
    g = Graph(g.vertex_count, g.edges,
              butterfly=draw(st.none() | st.integers(1, 3)))
    endpoint = (st.integers(-2, n + 1) | st.booleans()
                | st.integers(-2, 2 * n + 2).map(lambda i: i / 2))
    pair = st.tuples(endpoint, endpoint)
    if g.edges:
        edge = st.sampled_from(g.edges)
        pair |= edge | edge.map(lambda e: e[::-1])
    pairs = draw(st.lists(pair, max_size=12))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    return g, draw(st.permutations(pairs))


def label_record(g, pairs) -> dict:
    """`edge_witness` by its definition, vertex by vertex: each pair
    normalized and sorted, its id by bisection of `g.edges` and each
    endpoint's label by `g.vertex_label`.  The oracle of the bulk labels."""
    es = sorted(normalize_edge(*e) for e in pairs)
    return {"edge_ids": [bisect.bisect_left(g.edges, e) for e in es],
            "edges": [list(e) for e in es],
            "labels": [[g.vertex_label(u), g.vertex_label(v)]
                       for u, v in es]}


butterfly_graph = functools.lru_cache(build_butterfly)


@st.composite
def butterfly_matchings(draw):
    """BF(r), r = 1..5, tagged as BF(r) or not, and a matching of it, each
    edge either way round, plus pairs that take the per-vertex path: a
    non-edge, a loop, an endpoint outside [0, n) or a numpy integer."""
    r = draw(st.integers(1, 5))
    g = butterfly_graph(r)
    n = g.vertex_count
    matching, used = [], set()
    for i in draw(st.lists(st.integers(0, g.edge_count - 1), max_size=40)):
        u, v = g.edges[i]
        if u not in used and v not in used:
            used.update((u, v))
            matching.append((v, u) if draw(st.booleans()) else (u, v))
    vertex = st.integers(0, n - 1)
    extra = st.one_of(
        st.tuples(vertex, vertex),  # a non-edge or a loop, or an edge
        st.tuples(vertex, st.sampled_from([-1, n, n + 1, 2 * n])),
        st.sampled_from(g.edges).map(lambda e: (np.int64(e[0]), e[1])),
        vertex.map(lambda v: (np.int64(v), np.int32((v + 1) % n))))
    pairs = matching + draw(st.lists(extra, max_size=3))
    if not draw(st.booleans()):
        g = Graph(g.vertex_count, g.edges, butterfly=None)
    return g, draw(st.permutations(pairs))


class TestEdgeWitness:
    @pytest.mark.parametrize("r", range(1, 10))
    def test_butterfly_witness_labels(self, r):
        # BF(1) and BF(2) have no edge-forcing set: a perfect matching
        # (each level-0 vertex's straight edge) stands in for one
        g = build_butterfly(r)
        edges = (construct_edge_forcing(r) if r >= 3
                 else [(w, w + (1 << r)) for w in range(1 << r)])
        assert edge_witness(g, edges) == label_record(g, edges)
        bare = Graph(g.vertex_count, g.edges, butterfly=None)
        assert edge_witness(bare, edges) == label_record(bare, edges)

    @settings(max_examples=300, deadline=None)
    @given(butterfly_matchings())
    def test_matchings_against_vertex_label(self, case):
        g, pairs = case
        record = edge_witness(g, pairs)
        assert record == label_record(g, pairs)
        assert {type(label) for row in record["labels"] for label in row} \
            <= {str}

    @settings(max_examples=300, deadline=None)
    @given(witness_pairs())
    def test_matches_the_bisection_record(self, case):
        g, pairs = case
        assert edge_witness(g, pairs) == edge_witness_reference(g, pairs)

    @pytest.mark.parametrize("r", range(3, 10))
    def test_fixture_witnesses(self, r):
        doc = json.loads((FIXTURES / f"bf{r}-construction.json").read_text())
        g, edges = build_butterfly(r), doc["witness"]["edges"]
        record = edge_witness(g, edges)
        assert record == edge_witness_reference(g, edges) == doc["witness"]

    def test_non_edges_cost_no_scan(self, capsys):
        # a non-edge takes its bisection position: scanning for each of
        # these would walk BF(11)'s 45,056 edges 6,000 times, about 5 s
        g = build_butterfly(11)
        pairs = [(0, v) for v in range(1, g.vertex_count)
                 if v not in g.adjacency[0]][:6000]
        start = time.perf_counter()
        record = edge_witness(g, pairs)
        elapsed = time.perf_counter() - start
        assert record == edge_witness_reference(g, pairs)
        assert elapsed < 0.5, elapsed
        code, doc = run_json(capsys, ["construct", "--r", 11])
        assert code == 0
        doc["witness"] = record
        doc["claim"]["size"] = len(pairs)
        assert verify_certificate(doc) == (False, (
            "witness does not force under the reference closure "
            "(non-edge: (0, 1) is not an edge of the graph)"))


def dumped(value, pad=""):
    """json.dumps(value, sort_keys=True, indent=2) indented by pad, or the
    type of the exception it raises."""
    try:
        return json.dumps(value, sort_keys=True, indent=2).replace(
            "\n", "\n" + pad)
    except (TypeError, ValueError) as exc:
        return type(exc)


def rendered(value, pad=""):
    try:
        return certificates._render(value, pad)
    except (TypeError, ValueError) as exc:
        return type(exc)


TEXT = st.text(st.sampled_from(
    ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
     "\u00e9", "\u0663", "\u2028", "\U0001f600", "{", "}"]), max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers() | TEXT
           | st.integers(2 ** 64, 2 ** 200) | st.integers(-2 ** 200, -2 ** 64)
           | st.floats(allow_nan=False))


@st.composite
def rows(draw, leaves):
    """A list of rows, equal-width unless `ragged` is drawn."""
    width = draw(st.integers(0, 4))
    ragged = draw(st.booleans())
    return draw(st.lists(st.lists(leaves, min_size=0 if ragged else width,
                                  max_size=width + 2 * ragged), max_size=5))


JSON_VALUES = st.recursive(
    SCALARS | st.lists(st.integers()) | st.lists(TEXT)
    | rows(st.integers()) | rows(TEXT) | rows(st.integers() | TEXT)
    | rows(st.integers() | st.booleans()),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(st.integers() | TEXT, inner, max_size=3),
    max_leaves=30)


class TestEmit:
    """`emit_certificate` writes each certificate byte for byte as
    json.dumps({**c._asdict(), **CONSTANT_FIELDS}, sort_keys=True,
    indent=2) + "\\n" does."""

    @settings(max_examples=400, deadline=None)
    @given(value=JSON_VALUES, pad=st.sampled_from(["", "  ", "      "]))
    def test_render_is_json_dumps(self, value, pad):
        assert rendered(value, pad) == dumped(value, pad)

    @pytest.mark.parametrize("value", [
        [], {}, [[]], [[], []], [[1], [2, 3]], [[1, "a"], [2, "b"]],
        [[1, True]], [True, 1], [1, "a"], [1.5, 2], ["\u00e9\"\\\x01"],
        [2 ** 70, -2 ** 70], [[2 ** 70]], {"a": [[1, 2]], "b": {"c": []}},
        {1: [1]}, {"a": 1, 2: "b"}, [{"a": [1]}], [[[1]], [[2]]], (1, 2),
        {"k": None}, [None, None], ["{}", "{0}"], [["{", "}"]]],
        ids=repr)
    def test_render_edge_cases(self, value):
        assert rendered(value) == dumped(value)
        assert rendered(value, "    ") == dumped(value, "    ")

    def certificates_of(self, g):
        yield certificates.closure_certificate(g, [0, 1])
        yield certificates.zfs_check_certificate(g, [0])
        yield certificates.efs_check_certificate(g, [g.edges[0]])
        yield certificates.efs_check_certificate(g, list(g.edges[:2]))
        if g.vertex_count <= 8:
            yield certificates.zf_number_certificate(g, g.vertex_count)
            yield certificates.ef_number_certificate(g, g.edge_count)
            yield certificates.reduction_certificate(g)

    @pytest.mark.parametrize("name", ["c5", "random", "bf2", "bf3", "bf4",
                                      "bf5", "bf6"])
    def test_every_kind_emits_json_dumps(self, name):
        if name == "c5":
            g, extra = cycle_graph(5), []
        elif name == "random":
            g = random_graph(random.Random(11), 7, 0.5)
            # the star K1,3 has no edge-forcing set: a nonexistence
            extra = [certificates.ef_number_certificate(
                from_edges(4, [(0, 1), (0, 2), (0, 3)]), 3)]
            assert extra[0].kind == "nonexistence"
        else:
            r = int(name[2:])
            g = build_butterfly(r)
            extra = [bounds_certificate(r), certificates.ef_number_certificate(
                g, DEFAULT_MAX_EDGES) if r == 2 else construction_certificate(
                g, construct_edge_forcing(r), DEFAULT_SEED)]
        kinds = set()
        for cert in [*self.certificates_of(g), *extra]:
            kinds.add(cert.kind)
            assert emit_certificate(cert) == json.dumps(
                {**cert._asdict(), **certificates.CONSTANT_FIELDS},
                sort_keys=True, indent=2) + "\n"
        assert len(kinds) >= 4

    @pytest.mark.parametrize("claim", [
        {"value": np.int64(3)}, {"set": [np.int64(1), 2]},
        {"rows": [[np.int64(1), 2], [3, 4]]}])
    def test_numpy_scalar_still_raises(self, claim):
        cert = certificates.Certificate(kind="zfs-check", graph=C5,
                                        claim=claim)
        with pytest.raises(TypeError, match="not JSON serializable"):
            emit_certificate(cert)


@st.composite
def described_graphs(draw):
    """BF(1..6) as `build_butterfly` makes it, or a relabelled copy of BF(r)
    or of a random graph of at most 12 vertices, built by `from_edges`."""
    r = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return build_butterfly(r)
    if draw(st.booleans()):
        g = build_butterfly(r)
        n, edges = g.vertex_count, g.edges
    else:
        n = draw(st.integers(0, 12))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)
                     if pairs else st.just([]))
    perm = draw(st.permutations(range(n)))
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def reversed_and_flipped(doc):
    """A copy of a certificate whose inline graph lists its edges last to
    first, each as [v, u]: the same graph, out of canonical order."""
    doc = copy.deepcopy(doc)
    edges = doc["graph"]["edges"]
    doc["graph"]["edges"] = [[v, u] for u, v in reversed(edges)]
    return doc


def type_exact(a, b) -> bool:
    """JSON values equal with their types kept apart: true is not 1, 1.0
    is not 1 and -0.0 is not 0.0 (no NaN is drawn).  The oracle of
    `certificates._same`."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(type_exact(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(type_exact, a, b))
    if type(a) is float:
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def perturbed(data, value):
    """A copy of a JSON value in which some leaves, drawn at random, take
    an equal value of another type (1 for true, 1.0 for 1, -0.0 for 0.0)
    or another value, and some lists lose their last item.  Dict keys and
    their order are kept."""
    kind = type(value)
    if kind is dict:
        return {k: perturbed(data, v) for k, v in value.items()}
    if kind is list:
        items = [perturbed(data, v) for v in value]
        if items and data.draw(st.integers(0, 9)) == 0:
            items.pop()
        return items
    if data.draw(st.integers(0, 3)):
        return value
    if kind is bool:
        return int(value)
    if kind is int:
        return data.draw(st.sampled_from(
            [float(value), value + 1] + [bool(value)] * (value in (0, 1))))
    if kind is float:
        return data.draw(st.sampled_from(
            [-value, value + 1] + ([int(value)] if value.is_integer()
                                   else [])))
    return value + "x" if kind is str else value


class TestSame:
    """`verify` compares a rebuilt record with the certificate's by
    `_same`: equal values of equal JSON types."""

    @settings(max_examples=400, deadline=None)
    @given(value=JSON_VALUES, data=st.data())
    def test_agrees_with_type_exact_equality(self, value, data):
        other = perturbed(data, copy.deepcopy(value))
        assert certificates._same(value, other) == type_exact(value, other)
        assert certificates._same(value, copy.deepcopy(value))

    @pytest.mark.parametrize("rebuilt, given_value", [
        ([1, 1, 3], [1, True, 3]),
        ([1, 1, 3], [1, 1.0, 3]),
        ([[1, 2], [1, 4]], [[1, 2], [True, 4]]),
        ([[1, 2], [1, 4]], [[1, 2], [1.0, 4]]),
        ({"edge_ids": [1, 2], "edges": [[0, 1], [0, 2]]},
         {"edge_ids": [1, 2], "edges": [[0.0, 1], [0, 2]]}),
        ({"edge_ids": [1, 2], "edges": [[0, 1], [0, 2]]},
         {"edge_ids": [True, 2], "edges": [[0, 1], [0, 2]]}),
    ])
    def test_refuses_true_and_floats_for_ints(self, rebuilt, given_value):
        assert given_value == rebuilt
        assert not certificates._same(rebuilt, given_value)


class TestGraphField:
    """Each builder writes its own `graph` field with `describe`, and
    `verify` compares it with the certificate's."""

    @settings(max_examples=60, deadline=None)
    @given(g=described_graphs())
    def test_describe_inverts_resolve_graph(self, g):
        d = describe(g)
        if g.butterfly is not None:
            assert d == f"butterfly:{g.butterfly}"
        else:
            assert d == g.to_json_dict()
        assert resolve_graph(d) == g
        # every canonical document and descriptor comes back as given
        for given_d in (d, g.to_json_dict()):
            assert json.dumps(describe(resolve_graph(given_d))) == json.dumps(
                given_d)

    def test_describe_from_edges_of_bf3_is_inline(self):
        # an equal graph from outside input is not BF(3) as built
        g = build_butterfly(3)
        plain = from_edges(g.vertex_count, g.edges)
        assert plain == g and plain.vertex_label(9) == "9"
        assert describe(plain) == g.to_json_dict() != "butterfly:3"

    BUILDERS = {
        "closure": lambda g: certificates.closure_certificate(g, [0]),
        "zfs-check": lambda g: certificates.zfs_check_certificate(g, [0]),
        "efs-check": lambda g: certificates.efs_check_certificate(
            g, [g.edges[0]]),
        "zf-number": lambda g: certificates.zf_number_certificate(
            g, g.vertex_count),
        "ef-number": lambda g: certificates.ef_number_certificate(
            g, g.edge_count),
        "reduction": lambda g: certificates.reduction_certificate(g),
        "construction": lambda g: construction_certificate(
            g, [g.edges[0]], DEFAULT_SEED),
    }

    @pytest.mark.parametrize("name", BUILDERS)
    def test_builder_writes_butterfly_descriptor(self, monkeypatch, name):
        # BF(3)'s exact zf search takes seconds and its lifted graph is
        # above the reduction guard; the graph field does not depend on
        # the searches, so those two are stubbed
        if name in ("zf-number", "reduction"):
            monkeypatch.setattr(certificates, "min_zero_forcing",
                                lambda g, max_vertices=24, forts=():
                                Verdict(frozenset({0}), 1, []))
            monkeypatch.setattr(
                certificates, "min_edge_forcing",
                lambda g, max_edges, forts: Verdict(
                    frozenset({(0, 1)}), 1, []))
        cert = self.BUILDERS[name](build_butterfly(3))
        assert cert.graph == "butterfly:3"

    @pytest.mark.parametrize("name", BUILDERS)
    def test_builder_writes_inline_document(self, name):
        g = from_edges(5, [(3, 4), (1, 0), (2, 1), (4, 0), (3, 2)])
        cert = self.BUILDERS[name](g)
        assert cert.graph == C5 == g.to_json_dict()
        assert json.loads(emit_certificate(cert))["graph"] == C5

    @pytest.mark.parametrize("argv", [
        ["closure", "--black", "0,1"], ["solve", "ef"]],
        ids=["closure", "ef-number"])
    def test_non_canonical_inline_graph_is_refused(self, tmp_path, capsys,
                                                   argv):
        code, doc = run_json(capsys, argv + [
            "--graph", write_graph(tmp_path, cycle_graph(5))])
        assert code == 0 and doc["graph"] == C5
        assert verify_certificate(doc) == (
            True, f"{doc['kind']} certificate recomputed from its inputs")
        edited = reversed_and_flipped(doc)
        assert edited["graph"]["edges"][0] == [4, 3]
        assert resolve_graph(edited["graph"]) == cycle_graph(5)
        cert = tmp_path / "edited.json"
        cert.write_text(json.dumps(edited))
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 1 and out == {
            "verified": False, "details": f"graph recomputed as {C5}"}


class TestDot:
    def test_highlight_count(self):
        g = build_butterfly(3)
        w = construct_edge_forcing(3)
        dot = to_dot(g, highlight=w)
        assert dot.startswith("graph G {")
        assert dot.count("color=red") == len(w)
        assert dot.count(" -- ") == g.edge_count


class TestFixtures:
    def test_all_checked_in_certificates_verify(self):
        fixtures = sorted(FIXTURES.glob("*.json"))
        assert len(fixtures) >= 15
        for path in fixtures:
            ok, details = verify_certificate(path.read_text())
            assert ok, f"{path.name}: {details}"

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in FIXTURES.glob("*.json")))
    def test_fixture_reproducible(self, capsys, name):
        # regenerate exactly as `make fixtures` does
        r = name.split("-")[0][2:]
        command = "bounds" if name.endswith("-bounds") else "construct"
        main([command, "--r", r])
        expected = (FIXTURES / f"{name}.json").read_text()
        assert capsys.readouterr().out == expected


def write_graph(tmp_path, g, name="g.json"):
    p = tmp_path / name
    p.write_text(json.dumps(g.to_json_dict()))
    return str(p)


class TestCli:
    def test_generate(self, capsys):
        assert main(["generate", "butterfly", "--r", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 12

    def test_generate_dot(self, capsys):
        assert main(["generate", "butterfly", "--r", "1", "--dot"]) == 0
        assert "graph G {" in capsys.readouterr().out

    def test_generate_bad_r(self, capsys):
        assert main(["generate", "butterfly", "--r", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_closure(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(4))
        assert main(["closure", "--graph", path, "--black", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["claim"]["final"] == [0, 1, 2, 3]
        assert doc["claim"]["covers_all"] is True

    def test_check_zfs_exit_codes(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(4))
        good = tmp_path / "good.json"
        good.write_text('{"vertices": [0, 1]}')
        bad = tmp_path / "bad.json"
        bad.write_text('{"vertices": [0]}')
        assert main(["check", "zfs", "--graph", path, "--set", str(good)]) == 0
        capsys.readouterr()
        assert main(["check", "zfs", "--graph", path, "--set", str(bad)]) == 1

    def test_closure_claims_distinct_vertices(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(4))
        code, doc = run_json(capsys, ["closure", "--graph", path,
                                      "--black", "1,1"])
        assert (code, doc["claim"]["initial"]) == (0, [1])
        assert verify_certificate(doc)[0]
        # a repeated vertex is not what the rebuild writes
        doc["claim"]["initial"] = [1, 1]
        assert verify_certificate(doc) == (
            False, "claim recomputed as {'initial': [1], 'final': [1], "
            "'covers_all': False}")

    def test_check_zfs_claims_distinct_vertices(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(4))
        s = tmp_path / "s.json"
        s.write_text('{"vertices": [0, 0]}')
        code, doc = run_json(capsys, ["check", "zfs", "--graph", path,
                                      "--set", s])
        assert (code, doc["claim"]) == (0, {"set": [0], "result": True})
        assert verify_certificate(doc)[0]
        doc["claim"]["set"] = [0, 0]
        assert verify_certificate(doc) == (
            False, "claim recomputed as {'set': [0], 'result': True}")

    def test_check_efs_diagnostic(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(4))
        s = tmp_path / "s.json"
        s.write_text('{"edges": [[0, 2]]}')
        assert main(["check", "efs", "--graph", path, "--set", str(s)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert "non-edge" in doc["claim"]["diagnostic"]

    def test_solve_ef(self, tmp_path, capsys):
        path = write_graph(tmp_path, cycle_graph(6))
        assert main(["solve", "ef", "--graph", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["claim"]["value"] == 1

    def test_solve_ef_not_exists(self, tmp_path, capsys):
        from edgeforce.graph import from_edges
        star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        path = write_graph(tmp_path, star)
        assert main(["solve", "ef", "--graph", path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["claim"]["verdict"] == "not-exists"

    def test_solve_zf_guard(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(30))
        assert main(["solve", "zf", "--graph", path]) == 2

    @pytest.mark.parametrize("what, edges, line", [
        ("zf", [], "1114112 vertices exceed the exhaustive-search guard 24; "
                   "raise max_vertices explicitly to proceed"),
        ("ef", [[2 * i, 2 * i + 1] for i in range(41)],
         "41 edges exceed the exhaustive-search guard 40; "
         "raise max_edges explicitly to proceed")], ids=["zf", "ef"])
    def test_solve_guard_before_the_build(self, tmp_path, capsys,
                                          monkeypatch, what, edges, line):
        # the largest inline graph, above the solver's guard, is refused
        # from its document: no graph is built for it
        built = []
        for module in ("graph", "certificates"):
            monkeypatch.setattr(f"edgeforce.{module}.from_edges",
                                lambda *a: built.append(a))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": MAX_GRAPH_VERTICES, "edges": edges}))
        assert main(["solve", what, "--graph", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert built == []

    @pytest.fixture
    def no_build(self, monkeypatch):
        """Building any graph from a document or a descriptor fails."""
        def refuse(*args):
            raise AssertionError(f"graph built from {args!r:.60}")
        for name in ("certificates.build_graph",
                     "certificates.build_butterfly", "cli.build_graph"):
            monkeypatch.setattr(f"edgeforce.{name}", refuse)

    @pytest.mark.parametrize("kind, graph, fields, detail", [
        ("zf-number", {"n": MAX_GRAPH_VERTICES, "edges": []},
         {"claim": {"value": 1}, "witness": {"vertices": [0]},
          "search": {"forts": [], "max_n": 24}}, "minimality"),
        ("ef-number", PATH42, {"claim": {"value": 1},
                               "witness": {"edges": [[0, 1]]},
                               "search": {"forts": [], "max_edges": 40}},
         "minimality"),
        ("nonexistence", PATH42,
         {"claim": {"matchings_tested_per_size": {},
                    "verdict": "not-exists"}, "search": {"forts": []}},
         "nonexistence"),
        ("ef-number", "butterfly:16",
         {"claim": {"value": 1}, "witness": {"edges": [[0, 65536]]}},
         "minimality"),
    ], ids=["zf-number", "ef-number", "nonexistence", "ef-number-bf16"])
    def test_verify_guard_before_the_build(self, no_build, kind, graph,
                                           fields, detail):
        # the recorded guard (or its default) refuses the graph from the
        # counts of its field, before anything is built
        doc = {"schema_version": "efc-1", "kind": kind, "graph": graph,
               **fields}
        assert verify_certificate(doc) == (
            False, f"{detail} re-verification limited to small graphs")

    def test_reduction_guard_before_the_build(self, tmp_path, capsys,
                                              no_build):
        line = ("1114112 vertices exceed the exhaustive-search guard 24; "
                "raise max_vertices explicitly to proceed")
        big = {"n": MAX_GRAPH_VERTICES, "edges": []}
        with pytest.raises(solver.InstanceTooLarge, match=line):
            verify_certificate({
                "schema_version": "efc-1", "kind": "reduction-equivalence",
                "graph": big, "claim": {},
                "search": {"forts": [], "lifted_forts": []}})
        path = tmp_path / "big.json"
        path.write_text(json.dumps(big))
        assert main(["reduce", "--graph", str(path), "--verify"]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_construct_r2_nonexistence(self, capsys):
        assert main(["construct", "--r", "2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "nonexistence"

    def test_construct_r2_dot(self, capsys):
        # BF(2) has no edge-forcing set, so no edge is highlighted
        assert main(["construct", "--r", "2", "--dot"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("graph G {")
        assert "color=red" not in out

    def test_construct_r2_is_solve_ef_of_bf2(self, tmp_path, capsys):
        # one nonexistence builder: the two commands differ only in how
        # they name the graph
        assert main(["generate", "butterfly", "--r", "2"]) == 0
        path = tmp_path / "bf2.json"
        path.write_text(capsys.readouterr().out)
        code, solved = run_json(capsys, ["solve", "ef", "--graph", path])
        assert code == 1
        code, constructed = run_json(capsys, ["construct", "--r", "2"])
        assert code == 1
        assert constructed.pop("graph") == "butterfly:2"
        assert solved.pop("graph") == build_butterfly(2).to_json_dict()
        assert constructed == solved
        assert solved["search"] == {
            "explored": 16, "max_edges": 40,
            "max_matching_size_searched": 4,
            # the 16 minimal forts the search harvested, in harvest order;
            # the 4 obstruction forts that seed it are not listed
            "forts": [[1, 3, 10, 11], [1, 3, 8, 11], [1, 3, 9, 10],
                      [1, 3, 8, 9], [1, 2, 10, 11], [1, 2, 8, 11],
                      [1, 2, 9, 10], [1, 2, 8, 9], [0, 3, 10, 11],
                      [0, 3, 8, 11], [0, 3, 9, 10], [0, 3, 8, 9],
                      [0, 2, 10, 11], [0, 2, 8, 11], [0, 2, 9, 10],
                      [0, 2, 8, 9]]}

    def test_construct_r3_verifiable(self, tmp_path, capsys):
        assert main(["construct", "--r", "3"]) == 0
        cert = tmp_path / "c.json"
        cert.write_text(capsys.readouterr().out)
        assert main(["verify", "--cert", str(cert)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is True

    def test_construct_dot(self, capsys):
        assert main(["construct", "--r", "3", "--dot"]) == 0
        assert capsys.readouterr().out.count("color=red") == 8

    def test_construct_dot_builds_no_certificate(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("certificate built for --dot")

        monkeypatch.setattr(cli, "construction_certificate", refuse)
        assert main(["construct", "--r", "3", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("graph G {")

    @pytest.mark.parametrize("r", [17, 18, 2001])
    def test_construct_above_butterfly_guard(self, capsys, r):
        start = time.perf_counter()
        assert main(["construct", "--r", str(r)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_construct_builds_its_butterfly_once(self, capsys, monkeypatch):
        built = []

        def counting_build(r):
            built.append(r)
            return build_butterfly(r)

        for module in (constructions, certificates, cli):
            monkeypatch.setattr(module, "build_butterfly", counting_build)
        assert main(["construct", "--r", "9"]) == 0
        assert capsys.readouterr().out == (
            FIXTURES / "bf9-construction.json").read_text()
        assert built == [9, 7, 5]

    def test_construct_dot_builds_its_butterfly_once(self, capsys,
                                                     monkeypatch):
        built = []

        def counting_build(r):
            built.append(r)
            return build_butterfly(r)

        for module in (constructions, certificates, cli):
            monkeypatch.setattr(module, "build_butterfly", counting_build)
        assert main(["construct", "--r", "7", "--dot"]) == 0
        assert built == [7, 5]
        assert capsys.readouterr().out == to_dot(
            build_butterfly(7), highlight=construct_edge_forcing(7))

    def test_cached_parser_matches_fresh_processes(self, tmp_path, capsys):
        # a usage error, then closure, then verify, all in one process
        graph = tmp_path / "c4.json"
        graph.write_text(json.dumps(C4))
        runs = [["closure", "--graph", str(graph)],
                ["closure", "--graph", str(graph), "--black", "0,1"],
                ["verify", "--cert", str(FIXTURES / "bf3-construction.json")]]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        codes = []
        for argv in runs:
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "edgeforce", *argv],
                                   capture_output=True, text=True, env=env)
            assert (codes[-1], out, err) == (
                fresh.returncode, fresh.stdout, fresh.stderr)
        assert codes == [2, 0, 0]

    def test_bounds_graph_must_match_r(self, tmp_path, capsys):
        doc = json.loads(emit_certificate(bounds_certificate(5)))
        doc["graph"] = "butterfly:3"
        cert = tmp_path / "bounds.json"
        cert.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 1 and out == {
            "verified": False, "details": "graph recomputed as butterfly:5"}

    def test_bounds(self, capsys):
        assert main(["bounds", "--r", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # only what is proven: the diamond packing below, 47 above
        claim = doc["claim"]
        assert (claim["lower"], claim["exact"], claim["upper_recursive"]) \
            == (32, None, 47)

    def test_reduce_verify(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(3))
        assert main(["reduce", "--graph", path, "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["claim"]["equal"] is True

    def test_reduce_verify_gadget_not_cardinality_preserving(
            self, tmp_path, capsys):
        # the gadget proves only ef(lifted) <= Z(G): here the lifted graph
        # is forced by 3 edges while G needs 4 vertices, and the
        # certificate that says so verifies
        g = from_edges(7, [(0, 1), (0, 3), (0, 4), (0, 6), (1, 2), (2, 3),
                           (2, 4), (2, 5), (5, 6)])
        code, (verify_code, out) = emit_and_verify(
            tmp_path, capsys,
            ["reduce", "--graph", write_graph(tmp_path, g), "--verify"])
        assert code == 1
        assert verify_code == 0 and out["verified"] is True
        doc = json.loads((tmp_path / "emitted.json").read_text())
        assert doc["claim"] == {"zero_forcing_number": 4,
                                "lifted_edge_forcing_number": 3,
                                "equal": False}
        assert doc["witness"]["lifted_edges"] == [[0, 1], [2, 10], [4, 7]]

    def test_reduce_plain(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(3))
        assert main(["reduce", "--graph", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 6 and len(doc["edges"]) == 3 * 2 + 3

    def test_verify_tampered_cert(self, tmp_path, capsys):
        assert main(["construct", "--r", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        doc["claim"]["size"] = 7
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--cert", str(cert)]) == 1

    @pytest.mark.parametrize("argv, field, index, value", [
        (["construct", "--r", "3"], "edge_ids", 0, 999),
        (["construct", "--r", "3"], "labels", 0, ["[9,9]", "[9,9]"]),
        (["solve", "ef", "--graph", "c4"], "edge_ids", 0, 3),
        (["solve", "zf", "--graph", "c4"], "labels", 1, "0"),
    ], ids=["construction-edge-id", "construction-label", "ef-number-edge-id",
            "zf-number-label"])
    def test_verify_tampered_witness_record(self, tmp_path, capsys, argv,
                                            field, index, value):
        argv = [write_graph(tmp_path, cycle_graph(4)) if a == "c4" else a
                for a in argv]
        code, doc = run_json(capsys, argv)
        assert code == 0 and doc["witness"][field][index] != value
        doc["witness"][field][index] = value
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--cert", str(cert)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {"verified": False, "details":
                       "witness recomputed differs from the certificate's"}

    @pytest.mark.parametrize("command", ["verify", "closure"])
    def test_oversized_graph_exits_2(self, tmp_path, capsys, command):
        graph = {"n": 2 ** 40, "edges": [[0, 1]]}
        doc = tmp_path / "doc.json"
        if command == "verify":
            doc.write_text(json.dumps({
                "schema_version": "efc-1", "kind": "closure", "graph": graph,
                "claim": {"initial": [0]}}))
            argv = ["verify", "--cert", str(doc)]
        else:
            doc.write_text(json.dumps(graph))
            argv = ["closure", "--graph", str(doc), "--black", "0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: graph has {2 ** 40} vertices, "
                                f"above the limit {MAX_GRAPH_VERTICES}\n")

    def test_verify_refuses_unknown_graph_keys(self, tmp_path, capsys):
        # a --graph file keeps its leniency; a certificate's graph does not
        graph = tmp_path / "c5.json"
        graph.write_text(json.dumps({**C5, "x": [[[1]]]}))
        code, doc = run_json(capsys, ["closure", "--graph", graph,
                                      "--black", "0,1"])
        assert code == 0 and doc["graph"] == C5
        doc["graph"]["x"] = [[[1]]]
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--cert", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph document has unknown keys ['x']\n"

    TOOL_REFUSAL = ('certificate field "tool" must be '
                    '{"name": "edgeforce", "version": <string>}')

    @pytest.mark.parametrize("extra, error", [
        ({"zzz": [[[1]]]}, "certificate has unknown keys ['zzz']"),
        ({"search": {"x": 1}}, "search has unknown keys ['x']"),
        ({"obstructions": [[[1]]]},
         'certificate field "obstructions" must be null'),
        ({"tool": [[[1]]]}, TOOL_REFUSAL),
        ({"tool": {"name": "other", "version": "0.1.0"}}, TOOL_REFUSAL),
        ({"tool": {"name": "edgeforce", "version": "0.1.0", "x": 1}},
         TOOL_REFUSAL)])
    def test_verify_refuses_unread_keys(self, tmp_path, capsys, extra, error):
        # the C5 closure certificate verifies as emitted; each of these
        # keys would pass unchecked, so verify refuses it instead
        code, doc = run_json(capsys, ["closure", "--graph", write_graph(
            tmp_path, cycle_graph(5)), "--black", "0,1"])
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({**doc, **extra}))
        assert main(["verify", "--cert", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"

    def test_verify_accepts_a_certificate_without_tool(self, tmp_path,
                                                       capsys):
        code, doc = run_json(capsys, ["closure", "--graph", write_graph(
            tmp_path, cycle_graph(5)), "--black", "0,1"])
        assert doc.pop("tool")["name"] == "edgeforce"
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 0 and out["verified"] is True

    @pytest.mark.parametrize("argv, omitted", [
        (["solve", "zf"], "max_n"), (["solve", "ef"], "explored"),
        (["reduce", "--verify"], "lifted_forts"),
        (["construct", "--r", "3"], "seed")])
    def test_verify_refuses_search_keys_the_rebuild_omits(
            self, tmp_path, capsys, argv, omitted):
        # search keys the builder writes may be left out, others not
        if argv[0] != "construct":
            argv = argv + ["--graph", write_graph(tmp_path, cycle_graph(5))]
        code, doc = run_json(capsys, argv)
        assert code == 0
        cert = tmp_path / "cert.json"
        del doc["search"][omitted]
        cert.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 0 and out["verified"] is True
        doc["search"]["x"] = 1
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--cert", str(cert)]) == 2
        assert capsys.readouterr().err == (
            "error: search has unknown keys ['x']\n")

    @pytest.mark.parametrize("seed, code", [
        ("7", 2), (True, 2), ([[["x"]]], 2), (8, 0), (None, 0)],
        ids=["string", "boolean", "nested", "edited-int", "absent"])
    def test_verify_reads_a_construction_seed_as_an_int(
            self, tmp_path, capsys, seed, code):
        # the seed is provenance: its type is checked, but the construction
        # is not re-run, so an edited int seed still verifies
        _, doc = run_json(capsys, ["construct", "--r", "3"])
        assert doc["search"]["seed"] == DEFAULT_SEED
        if seed is None:
            del doc["search"]["seed"]
        else:
            doc["search"]["seed"] = seed
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--cert", str(cert)]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == "" and captured.err == (
                'error: search needs a field "seed" of type int\n')
        else:
            assert json.loads(captured.out)["verified"] is True

    def test_verify_nonexistence_at_the_solve_guard(self, tmp_path, capsys):
        from edgeforce.graph import from_edges
        star = from_edges(31, [(0, v) for v in range(1, 31)])
        assert main(["solve", "ef", "--graph",
                     write_graph(tmp_path, star)]) == 1
        cert = tmp_path / "star.json"
        cert.write_text(capsys.readouterr().out)
        assert main(["verify", "--cert", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_disjoint_edges_at_the_solve_guard(self, tmp_path, capsys):
        # 40 disjoint edges: each is harvested as a fort by one stalled
        # leaf, and the forts rule out the other smaller matchings without
        # enumerating them, so 41 of the 2^40 - 1 matchings are tested
        g = from_edges(80, [(2 * i, 2 * i + 1) for i in range(40)])
        assert main(["solve", "ef", "--graph", write_graph(tmp_path, g)]) == 0
        cert = tmp_path / "edges.json"
        cert.write_text(capsys.readouterr().out)
        doc = json.loads(cert.read_text())
        assert doc["claim"]["value"] == 40
        assert doc["search"]["explored"] == 41
        assert doc["search"]["max_matching_size_searched"] == 40
        assert main(["verify", "--cert", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("edges, explored", [
        # BF(2)'s fixture as it was written when `explored` counted every
        # matching of every size
        (None, 432),
        # two disjoint 4-cycles (ef 2): 8 matchings of size 1, then the
        # witness, the second of size 2
        ([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)],
         10),
        # 40 disjoint edges: every matching of every size
        ([(2 * i, 2 * i + 1) for i in range(40)], 2 ** 40 - 1),
    ], ids=["bf2-nonexistence", "two-c4", "disjoint-edges"])
    def test_verify_reads_explored_as_provenance(self, tmp_path, capsys,
                                                 edges, explored):
        # `explored` once counted every combination up to the witness, or
        # all of them; it now counts the leaves tested.  It is provenance,
        # so a certificate written with the old count still verifies
        if edges is None:
            doc = json.loads(
                (FIXTURES / "bf2-nonexistence.json").read_text())
        else:
            g = from_edges(1 + max(map(max, edges)), edges)
            main(["solve", "ef", "--graph", write_graph(tmp_path, g)])
            doc = json.loads(capsys.readouterr().out)
        assert doc["search"]["explored"] < explored
        doc["search"]["explored"] = explored
        cert = tmp_path / "old.json"
        cert.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 0 and out["verified"] is True

    def test_verify_refuses_unchecked_forts(self, tmp_path, capsys):
        # {0}, ..., {4} are not forts of C5, whose ef number is 1; seeded
        # with them a search would rule out every matching and rebuild
        # this forged nonexistence certificate, so only the fort check
        # stands between it and a verified claim.  The builder refuses
        # such forts, so the forgery edits an emitted certificate.
        doc = json.loads(emit_certificate(certificates.ef_number_certificate(
            cycle_graph(5), DEFAULT_MAX_EDGES)))
        doc.update(kind="nonexistence", witness=None, claim={
            "matchings_tested_per_size": {"1": 5, "2": 5},
            "verdict": "not-exists"})
        doc["search"].update(explored=10, forts=[[v] for v in range(5)],
                             max_matching_size_searched=2)
        cert = tmp_path / "forged.json"
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--cert", str(cert)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "verified": False,
            "details": "search.forts[0] is not a fort: a vertex outside it "
                       "has exactly one neighbor in it"}

    @pytest.mark.parametrize("argv, key", [
        (["solve", "zf"], "forts"), (["solve", "ef"], "forts"),
        (["reduce", "--verify"], "forts"),
        (["reduce", "--verify"], "lifted_forts")])
    @pytest.mark.parametrize("fort, why", [
        ([], "it is empty"),
        ([3, 2, 1, 0], "it is not strictly ascending"),
        ([0, 1, 1, 2, 3, 4], "it is not strictly ascending"),
        ([-1, 0], "it leaves [0, {n})"),
        ([0, 1, 2, 3, 4, 10], "it leaves [0, {n})"),
        ([0, 2], "a vertex outside it has exactly one neighbor in it"),
    ])
    def test_verify_names_a_listed_non_fort(self, tmp_path, capsys, argv,
                                            key, fort, why):
        # C5 and its lifted graph: every listed entry is checked, and a
        # valid fort list ahead of a bad entry does not hide it
        code, doc = run_json(capsys, argv + [
            "--graph", write_graph(tmp_path, cycle_graph(5))])
        assert code == 0
        n = 10 if key == "lifted_forts" else 5
        doc["search"][key] = [list(range(n)), fort]
        cert = tmp_path / "bad.json"
        cert.write_text(json.dumps(doc))
        assert main(["verify", "--cert", str(cert)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "verified": False, "details":
            f"search.{key}[1] is not a fort: {why.format(n=n)}"}

    @pytest.mark.parametrize("argv", [["solve", "zf"], ["reduce", "--verify"]])
    def test_verify_runs_no_fort_minimisation(self, tmp_path, capsys,
                                              monkeypatch, argv):
        # seeded with the forts that the emitting search harvested, the
        # rebuild rules out every leaf that stalled there unclosed
        petersen = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                              + [(i, i + 5) for i in range(5)]
                              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        calls = []
        minimal_fort = solver._minimal_fort
        monkeypatch.setattr(solver, "_minimal_fort",
                            lambda *a: calls.append(a) or minimal_fort(*a))
        code, doc = run_json(capsys, argv + [
            "--graph", write_graph(tmp_path, petersen)])
        assert code == 0 and calls
        calls.clear()
        cert = tmp_path / "petersen.json"
        cert.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 0 and out["verified"] is True
        assert calls == []

    def test_verify_false_nonexistence_claim(self, tmp_path, capsys):
        cert = tmp_path / "c4.json"
        cert.write_text(json.dumps({
            "schema_version": "efc-1", "kind": "nonexistence", "graph": C4,
            "claim": {"verdict": "not-exists",
                      "matchings_tested_per_size": {"1": 4}}}))
        assert main(["verify", "--cert", str(cert)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out == {"verified": False, "details":
                       "kind recomputed as ef-number with witness edges "
                       "[[0, 1]]"}

    @pytest.mark.parametrize("what", ["zf", "ef"])
    def test_solve_certificate_verifies(self, tmp_path, capsys, what):
        assert main(["solve", what, "--graph",
                     write_graph(tmp_path, cycle_graph(4))]) == 0
        cert = tmp_path / "c4.json"
        cert.write_text(capsys.readouterr().out)
        assert main(["verify", "--cert", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("graph, kind, claim, witness, details", [
        (C4, "zf-number", {"value": 4}, {"vertices": [0, 1, 2, 3]},
         "claim recomputed as {'value': 2}"),
        (C4, "ef-number", {"value": 2}, {"edges": [[0, 1], [2, 3]]},
         "claim recomputed as {'value': 1}"),
        (path_graph(25).to_json_dict(), "zf-number", {"value": 1},
         {"vertices": [0]},
         "minimality re-verification limited to small graphs"),
        (cycle_graph(41).to_json_dict(), "ef-number", {"value": 1},
         {"edges": [[0, 1]]},
         "minimality re-verification limited to small graphs"),
        # forcing witnesses of the minimum size that are not the solver's
        # lex-first ones, (0, 1) and {0, 1}
        (C6, "ef-number", {"value": 1}, edge_witness(C6G, [(1, 2)]),
         "witness recomputed differs from the certificate's"),
        (C6, "zf-number", {"value": 2}, vertex_witness(C6G, [2, 3]),
         "witness recomputed differs from the certificate's"),
        (K13, "ef-number", {"value": 1},
         edge_witness(parse_graph(K13), [(0, 1)]),
         "kind recomputed as nonexistence"),
    ], ids=["zf-number-not-minimum", "ef-number-not-minimum",
            "zf-number-above-guard", "ef-number-above-guard",
            "ef-number-not-lex-first", "zf-number-not-lex-first",
            "ef-number-without-forcing-matching"])
    def test_verify_minimality(self, tmp_path, capsys, graph, kind, claim,
                               witness, details):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({
            "schema_version": "efc-1", "kind": kind, "graph": graph,
            "claim": claim, "witness": witness}))
        assert main(["verify", "--cert", str(cert)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is False and out["details"] == details

    @pytest.mark.parametrize("kind", ["zf-number", "ef-number"])
    def test_verify_closes_the_solver_witness(self, tmp_path, capsys,
                                              monkeypatch, kind):
        # a search that returned a non-forcing witness would rebuild the
        # very certificate it emitted; the reference closure still refuses
        if kind == "zf-number":
            monkeypatch.setattr(certificates, "min_zero_forcing",
                                lambda g, max_vertices, forts:
                                Verdict(frozenset({1}), 1, []))
            built = certificates.zf_number_certificate(cycle_graph(4), 24)
        else:
            monkeypatch.setattr(
                certificates, "min_edge_forcing",
                lambda g, max_edges, forts: Verdict(
                    frozenset({(0, 1)}), 1, []))
            built = certificates.ef_number_certificate(parse_graph(K13), 40)
        assert built.witness is not None
        cert = tmp_path / "cert.json"
        cert.write_text(emit_certificate(built))
        assert main(["verify", "--cert", str(cert)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "verified": False,
            "details": "witness does not force under the reference closure"}

    @pytest.mark.parametrize("command, text", [
        ("verify", "[]"),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "bounds",
                               "graph": "butterfly:3", "claim": {}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "bounds"})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "bounds",
                               "graph": "butterfly:3", "claim": []})),
        ("verify", json.dumps({"schema_version": "efc-1",
                               "kind": "nonexistence", "graph": C4,
                               "claim": {"verdict": "not-exists"}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "closure",
                               "graph": C4, "claim": {"final": [0]}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "zf-number",
                               "graph": C4, "claim": {"value": 2},
                               "witness": None})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "zf-number",
                               "graph": C4, "claim": {"value": True},
                               "witness": {"vertices": [0, 1]}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "zf-number",
                               "graph": C4, "claim": {"value": 2},
                               "witness": {"vertices": [0, 7]}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "closure",
                               "graph": {"n": 3, "edges": [[0, True]]},
                               "claim": {"initial": [0]}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "closure",
                               "graph": {"n": True, "edges": []},
                               "claim": {"initial": [0]}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "closure",
                               "graph": C4, "claim": {"initial": [False]}})),
        ("check zfs", "{}"),
        ("check zfs", json.dumps({"vertices": ["a"]})),
        ("check efs", json.dumps({"edges": [["a", 1]]})),
        ("check efs", json.dumps({"edges": [[0, True]]})),
        # the empty graph has no exact forcing number, so neither a value
        # nor a nonexistence verdict about it is certified
        ("solve ef", json.dumps(EMPTY)),
        ("verify", json.dumps({"schema_version": "efc-1",
                               "kind": "nonexistence", "graph": EMPTY,
                               "claim": {"matchings_tested_per_size": {},
                                         "verdict": "not-exists"},
                               "search": {"explored": 0, "max_edges": 40,
                                          "max_matching_size_searched": 0}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "ef-number",
                               "graph": EMPTY, "claim": {"value": 0},
                               "witness": {"edge_ids": [], "edges": [],
                                           "labels": []},
                               "search": {"max_edges": 40}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "zf-number",
                               "graph": EMPTY, "claim": {"value": 0},
                               "witness": {"vertices": [], "labels": []}})),
        # the solver refuses the empty graph before it reads its guard
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "zf-number",
                               "graph": EMPTY, "claim": {"value": 0},
                               "witness": {"vertices": [], "labels": []},
                               "search": {"forts": [], "max_n": -1}})),
        # `search` is read: a guard and the forts that seed the search
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "zf-number",
                               "graph": C5, "claim": {"value": 2},
                               "witness": {"vertices": [0, 1],
                                           "labels": ["0", "1"]},
                               "search": [1]})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "zf-number",
                               "graph": C5, "claim": {"value": 2},
                               "witness": {"vertices": [0, 1],
                                           "labels": ["0", "1"]},
                               "search": []})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "zf-number",
                               "graph": C5, "claim": {"value": 2},
                               "witness": {"vertices": [0, 1],
                                           "labels": ["0", "1"]},
                               "search": {"forts": [[0, "1"]]}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "ef-number",
                               "graph": C5, "claim": {"value": 1},
                               "witness": edge_witness(parse_graph(C5),
                                                       [(0, 1)]),
                               "search": {"forts": [[0, True]]}})),
        ("verify", json.dumps({"schema_version": "efc-1",
                               "kind": "nonexistence", "graph": C5,
                               "claim": {"matchings_tested_per_size": {},
                                         "verdict": "not-exists"},
                               "search": {"forts": {"0": [0]}}})),
        ("verify", json.dumps({"schema_version": "efc-1",
                               "kind": "reduction-equivalence", "graph": C5,
                               "claim": {}, "search": {"forts": [],
                                                       "lifted_forts": [3]}})),
        # only the canonical butterfly:<decimal r> names a graph
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "closure",
                               "graph": "butterfly:x",
                               "claim": {"initial": [0]}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "closure",
                               "graph": "butterfly:03",
                               "claim": {"initial": [0]}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "closure",
                               "graph": "butterfly:+3",
                               "claim": {"initial": [0]}})),
        # nested deeper than the decoder recurses
        ("verify", DEEP), ("check zfs", DEEP), ("solve zf", DEEP),
    ], ids=["cert-not-object", "bounds-without-r", "cert-without-graph",
            "claim-not-object", "nonexistence-without-counts",
            "closure-without-initial", "zf-number-null-witness",
            "zf-number-boolean-value", "zf-number-vertex-out-of-range",
            "graph-with-boolean-vertex",
            "graph-with-boolean-n", "closure-with-boolean-initial",
            "set-without-vertices", "set-with-non-integer",
            "edge-set-with-non-integer", "edge-set-with-boolean",
            "solve-ef-empty-graph", "nonexistence-empty-graph",
            "ef-number-empty-graph", "zf-number-empty-graph",
            "zf-number-empty-graph-negative-guard",
            "search-not-object", "search-empty-array",
            "forts-entry-with-string",
            "forts-entry-with-boolean", "forts-not-array",
            "lifted-forts-entry-not-array", "butterfly-not-decimal",
            "butterfly-leading-zero", "butterfly-plus-sign",
            "verify-deeply-nested", "set-deeply-nested",
            "graph-deeply-nested"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, text):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        if command == "verify":
            argv = ["verify", "--cert", str(doc)]
        elif command.startswith("solve"):
            argv = command.split() + ["--graph", str(doc)]
        else:
            argv = command.split() + [
                "--graph", write_graph(tmp_path, cycle_graph(4)),
                "--set", str(doc)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("graph, argv, set_doc, code", [
        (K13, ["check", "efs"], {"edges": [[0, 1]]}, 1),
        (LADDER, ["reduce", "--verify"], None, 0),
        (cycle_graph(41).to_json_dict(),
         ["solve", "ef", "--max-edges", "50"], None, 0),
        (path_graph(25).to_json_dict(), ["solve", "zf", "--max-n", "30"],
         None, 0),
        (EMPTY, ["closure", "--black", ""], None, 0),
        (EMPTY, ["check", "zfs"], {"vertices": []}, 0),
        (EMPTY, ["check", "efs"], {"edges": []}, 0),
    ], ids=["efs-check-false", "reduce-ladder-26-edges",
            "solve-ef-raised-guard", "solve-zf-raised-guard",
            "closure-empty-graph", "zfs-check-empty-graph",
            "efs-check-empty-graph"])
    def test_emitted_certificate_verifies(self, tmp_path, capsys, graph,
                                          argv, set_doc, code):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(graph))
        argv = argv + ["--graph", gpath]
        if set_doc is not None:
            (tmp_path / "s.json").write_text(json.dumps(set_doc))
            argv += ["--set", tmp_path / "s.json"]
        emitted, (verified, out) = emit_and_verify(tmp_path, capsys, argv)
        assert emitted == code
        assert verified == 0 and out["verified"] is True, out["details"]

    @pytest.mark.parametrize("argv, field, value", [
        (["check", "efs", "--set", "s.json"], "result", False),
        (["reduce", "--verify"], "zero_forcing_number", 99),
        (["reduce", "--verify"], "lifted_edge_forcing_number", 99),
        (["closure", "--black", "0,1"], "covers_all", False),
    ], ids=["efs-check-result-flipped", "reduce-zf-forged",
            "reduce-lifted-ef-forged", "closure-forged"])
    def test_forged_claim_recomputed(self, tmp_path, capsys, monkeypatch,
                                     argv, field, value):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.json").write_text('{"edges": [[0, 1]]}')
        gpath = write_graph(tmp_path, cycle_graph(4))
        code, doc = run_json(capsys, argv + ["--graph", gpath])
        assert code == 0
        doc["claim"][field] = value
        if doc["kind"] == "closure":
            doc["trace"] = [[0, 1, 2]]
        cert = tmp_path / "forged.json"
        cert.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 1 and out["verified"] is False
        assert "recomputed" in out["details"]

    def test_forged_closure_trace_alone(self, tmp_path, capsys):
        gpath = write_graph(tmp_path, path_graph(4))
        code, doc = run_json(capsys, ["closure", "--graph", gpath,
                                      "--black", "0"])
        doc["trace"][0] = [0, 1, 2]
        cert = tmp_path / "forged.json"
        cert.write_text(json.dumps(doc))
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 1 and "recomputed" in out["details"]

    @pytest.mark.parametrize("source, path, value, details", [
        ("closure", ("claim", "final"), [False, True, 2], "claim"),
        ("closure", ("claim", "covers_all"), 1, "claim"),
        ("closure", ("trace",), [[True, True, 2]], "trace"),
        ("nonexistence", ("claim", "matchings_tested_per_size", "1"), True,
         "claim"),
        ("nonexistence", ("claim", "matchings_tested_per_size", "1"), 1.0,
         "claim"),
        ("bf3-construction", ("claim", "size"), 8.0, "claim"),
        ("bf3-construction", ("witness", "edge_ids", 0), 3.0, "witness"),
        ("bf3-bounds", ("claim", "lower"), 8.0, "claim"),
    ], ids=["closure-final-booleans", "closure-covers-all-one",
            "closure-trace-booleans", "nonexistence-count-true",
            "nonexistence-count-float", "construction-size-float",
            "construction-edge-id-float", "bounds-lower-float"])
    def test_verify_compares_types_strictly(self, tmp_path, capsys, source,
                                            path, value, details):
        # Python's == takes JSON true and 1.0 for 1; verify does not
        if source == "closure":
            doc = json.loads(emit_certificate(certificates.closure_certificate(
                path_graph(3), [0, 1])))
        elif source == "nonexistence":
            doc = json.loads(emit_certificate(
                certificates.ef_number_certificate(from_edges(3, [(0, 1)]),
                                                   40)))
        else:
            doc = json.loads((FIXTURES / f"{source}.json").read_text())
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        assert run_json(capsys, ["verify", "--cert", cert])[0] == 0
        cert.write_text(json.dumps(replaced(doc, path, value)))
        code, out = run_json(capsys, ["verify", "--cert", cert])
        assert code == 1 and out["verified"] is False
        assert out["details"].startswith(f"{details} recomputed")

    @pytest.mark.parametrize("argv, cert_claim_r", [
        (["bounds", "--r", "17"], None),
        (["bounds", "--r", "1100"], None),
        (["bounds", "--r", "3000"], None),
        (["verify", "--cert"], 5000),
    ], ids=["bounds-r17", "bounds-r1100", "bounds-r3000", "verify-r5000"])
    def test_bounds_above_butterfly_guard(self, tmp_path, capsys, argv,
                                          cert_claim_r):
        if cert_claim_r is not None:
            doc = json.loads(emit_certificate(bounds_certificate(3)))
            doc["claim"]["r"] = cert_claim_r
            cert = tmp_path / "bounds.json"
            cert.write_text(json.dumps(doc))
            argv = argv + [str(cert)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        assert main(["closure", "--graph", "/nonexistent.json",
                     "--black", "0"]) == 2


class TestCollectorPause:
    """`main` runs a command with the cyclic collector off and puts back
    the state it found, on every exit."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def collector(self, request):
        found = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if found else gc.disable)()

    @pytest.mark.parametrize("argv, outcome, inner", [
        (["bounds", "--r", "3"], 0, "bounds_certificate"),
        (["construct", "--r", "2"], 1, "ef_number_certificate"),
        (["closure", "--graph", "{dup}", "--black", "0"], 2, "build_graph"),
        (["bounds", "--r", "3"], RuntimeError, "bounds_certificate"),
    ], ids=["exit-0", "exit-1", "exit-2", "exception"])
    def test_main_puts_back_the_collector(self, tmp_path, capsys,
                                          monkeypatch, collector, argv,
                                          outcome, inner):
        dup = tmp_path / "dup.json"
        dup.write_text('{"n": 2, "edges": [[0, 1], [1, 0]]}')
        real, seen = getattr(cli, inner), []

        def recording(*args):
            seen.append(gc.isenabled())
            if outcome is RuntimeError:
                raise RuntimeError("a fault inside the command")
            return real(*args)

        monkeypatch.setattr(cli, inner, recording)
        argv = [a.format(dup=dup) for a in argv]
        if outcome is RuntimeError:
            with pytest.raises(RuntimeError, match="a fault inside"):
                main(argv)
        else:
            assert main(argv) == outcome
        assert seen == [False]
        assert gc.isenabled() is collector


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def emit_every_kind(tmp_path, capsys, g, data):
    """(argv, certificate) for each kind the CLI emits on g: closure,
    check zfs/efs, solve zf/ef and reduce --verify, on drawn sets."""
    n = g.vertex_count
    pairs = list(itertools.permutations(range(n), 2))
    black = data.draw(st.sets(st.integers(0, n - 1)))
    vertices = data.draw(st.sets(st.integers(0, n - 1)))
    # any edge list: non-edges, shared endpoints and repeats included
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3)
                      if pairs else st.just([]))
    gpath = write_graph(tmp_path, g)
    sets = {"zfs": {"vertices": sorted(vertices)},
            "efs": {"edges": [list(e) for e in edges]}}
    for name, doc in sets.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    commands = [
        ["closure", "--black", ",".join(map(str, sorted(black)))],
        ["check", "zfs", "--set", tmp_path / "zfs.json"],
        ["check", "efs", "--set", tmp_path / "efs.json"],
        ["solve", "zf"], ["solve", "ef"], ["reduce", "--verify"],
    ]
    certs = []
    for argv in commands:
        code, doc = run_json(capsys, argv + ["--graph", gpath])
        assert code in (0, 1), argv
        certs.append((argv, doc))
    return certs


class TestRoundTrip:
    """Every certificate the CLI emits passes `verify`."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(g=small_graphs(), data=st.data())
    def test_emitted_certificates_verify(self, tmp_path, capsys, g, data):
        cert = tmp_path / "emitted.json"
        for argv, doc in emit_every_kind(tmp_path, capsys, g, data):
            cert.write_text(json.dumps(doc))
            verified, out = run_json(capsys, ["verify", "--cert", cert])
            assert verified == 0, (argv, out["details"])


# the values a fuzzed certificate node is replaced with: none of them
# names a butterfly above BF(4) or a vertex count between 10^4 and the
# 1,114,112 limit, so every verify stays small
MUTATIONS = [None, True, False, -1, 2 ** 40, 1.5, "", "x", "efc-1",
             "butterfly:x", [], {}, [[0, 0]]]


def node_paths(node, path=()):
    """The key path of every node of a JSON document, the root's included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from node_paths(child, path + (key,))


def replaced(doc, path, value):
    """A copy of doc with the node at path replaced by value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_certificates(tmp_path_factory):
    """A scratch directory, and the BF(2) and BF(3) fixtures plus every
    certificate kind the CLI emits for C5."""
    tmp = tmp_path_factory.mktemp("fuzz")
    gpath = tmp / "c5.json"
    gpath.write_text(json.dumps(cycle_graph(5).to_json_dict()))
    (tmp / "zfs.json").write_text('{"vertices": [0, 1]}')
    (tmp / "efs.json").write_text('{"edges": [[0, 1]]}')
    certs = [json.loads(p.read_text())
             for p in sorted(FIXTURES.glob("bf[23]-*.json"))]
    for argv in (["closure", "--black", "0"],
                 ["check", "zfs", "--set", tmp / "zfs.json"],
                 ["check", "efs", "--set", tmp / "efs.json"],
                 ["solve", "zf"], ["solve", "ef"], ["reduce", "--verify"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([str(a) for a in argv + ["--graph", gpath]]) == 0
        certs.append(json.loads(out.getvalue()))
    return tmp, certs


class TestFuzz:
    """`verify` answers every one-node mutation of a certificate with exit
    0, 1 or 2, never with an uncaught exception."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_node_mutation(self, fuzz_certificates, capsys, data):
        tmp, certs = fuzz_certificates
        doc = data.draw(st.sampled_from(certs))
        path = data.draw(st.sampled_from(list(node_paths(doc))))
        value = data.draw(st.sampled_from(MUTATIONS))
        cert = tmp / "mutated.json"
        cert.write_text(json.dumps(replaced(doc, path, value)))
        assert main(["verify", "--cert", str(cert)]) in (0, 1, 2)
        capsys.readouterr()

    # at most 12 edges: the exact search behind reduce --verify takes
    # seconds on the lifted gadget of a denser 7-vertex graph
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(2, 7), data=st.data())
    def test_random_graph_mutations(self, tmp_path, capsys, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        g = from_edges(n, data.draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=12)))
        cert = tmp_path / "mutated.json"
        for _, doc in emit_every_kind(tmp_path, capsys, g, data):
            for _ in range(data.draw(st.integers(1, 3))):
                path = data.draw(st.sampled_from(list(node_paths(doc))))
                value = data.draw(st.sampled_from(MUTATIONS))
                doc = replaced(doc, path, value)
            cert.write_text(json.dumps(doc))
            assert main(["verify", "--cert", str(cert)]) in (0, 1, 2)
            capsys.readouterr()
