import contextlib
import copy
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgeforce import certificates, cli, constructions
from edgeforce.butterfly import build_butterfly
from edgeforce.certificates import (MAX_GRAPH_VERTICES, CertificateError,
                                    bf2_nonexistence,
                                    bounds_certificate,
                                    construction_certificate, emit_certificate,
                                    parse_certificate, parse_graph,
                                    resolve_graph, verify_certificate)
from edgeforce.cli import main, to_dot
from edgeforce.constructions import DEFAULT_SEED, construct_edge_forcing
from edgeforce.graph import from_edges

from conftest import cycle_graph, path_graph

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
SRC = pathlib.Path(__file__).parent.parent / "src"
C4 = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}
K13 = {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}
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


class TestCertificates:
    def test_round_trip_and_byte_determinism(self):
        cert = construction_certificate(
            build_butterfly(3), 3, construct_edge_forcing(3), DEFAULT_SEED)
        text = emit_certificate(cert)
        again = emit_certificate(parse_certificate(text))
        assert text == again
        assert text == emit_certificate(cert)

    def test_construction_verifies(self):
        cert = construction_certificate(
            build_butterfly(3), 3, construct_edge_forcing(3), DEFAULT_SEED)
        ok, details = verify_certificate(cert)
        assert ok, details

    def test_tampered_witness_detected(self):
        cert = construction_certificate(
            build_butterfly(3), 3, construct_edge_forcing(3), DEFAULT_SEED)
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
        ok, details = verify_certificate(bf2_nonexistence())
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

    def test_construct_r2_nonexistence(self, capsys):
        assert main(["construct", "--r", "2"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "nonexistence"

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
        assert doc["claim"]["exact"] == 47

    def test_reduce_verify(self, tmp_path, capsys):
        path = write_graph(tmp_path, path_graph(3))
        assert main(["reduce", "--graph", path, "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["claim"]["equal"] is True

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

    def test_verify_nonexistence_at_the_solve_guard(self, tmp_path, capsys):
        from edgeforce.graph import from_edges
        star = from_edges(31, [(0, v) for v in range(1, 31)])
        assert main(["solve", "ef", "--graph",
                     write_graph(tmp_path, star)]) == 1
        cert = tmp_path / "star.json"
        cert.write_text(capsys.readouterr().out)
        assert main(["verify", "--cert", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_verify_false_nonexistence_claim(self, tmp_path, capsys):
        cert = tmp_path / "c4.json"
        cert.write_text(json.dumps({
            "schema_version": "efc-1", "kind": "nonexistence", "graph": C4,
            "claim": {"verdict": "not-exists",
                      "matchings_tested_per_size": {"1": 4}}}))
        assert main(["verify", "--cert", str(cert)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is False
        assert "(0, 1)" in out["details"]

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
         "smaller zero-forcing set [0, 1, 2] of size 3"),
        (C4, "ef-number", {"value": 2}, {"edges": [[0, 1], [2, 3]]},
         "smaller edge-forcing set [(0, 1)] of size 1"),
        (path_graph(25).to_json_dict(), "zf-number", {"value": 1},
         {"vertices": [0]},
         "minimality re-verification limited to small graphs"),
        (cycle_graph(41).to_json_dict(), "ef-number", {"value": 1},
         {"edges": [[0, 1]]},
         "minimality re-verification limited to small graphs"),
    ], ids=["zf-number-not-minimum", "ef-number-not-minimum",
            "zf-number-above-guard", "ef-number-above-guard"])
    def test_verify_minimality(self, tmp_path, capsys, graph, kind, claim,
                               witness, details):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({
            "schema_version": "efc-1", "kind": kind, "graph": graph,
            "claim": claim, "witness": witness}))
        assert main(["verify", "--cert", str(cert)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is False and out["details"] == details

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
    ], ids=["cert-not-object", "bounds-without-r", "cert-without-graph",
            "claim-not-object", "nonexistence-without-counts",
            "closure-without-initial", "zf-number-null-witness",
            "zf-number-boolean-value", "graph-with-boolean-vertex",
            "graph-with-boolean-n", "closure-with-boolean-initial",
            "set-without-vertices", "set-with-non-integer",
            "edge-set-with-non-integer", "edge-set-with-boolean"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, text):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        if command == "verify":
            argv = ["verify", "--cert", str(doc)]
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
    ], ids=["efs-check-false", "reduce-ladder-26-edges",
            "solve-ef-raised-guard", "solve-zf-raised-guard"])
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


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


class TestRoundTrip:
    """Every certificate the CLI emits passes `verify`."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(g=small_graphs(), data=st.data())
    def test_emitted_certificates_verify(self, tmp_path, capsys, g, data):
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
        for argv in commands:
            emitted, (verified, out) = emit_and_verify(
                tmp_path, capsys, argv + ["--graph", gpath])
            assert emitted in (0, 1), argv
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
