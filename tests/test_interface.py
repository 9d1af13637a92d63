import json

import pytest

from edgeforce.butterfly import build_butterfly
from edgeforce.certificates import (CertificateError, bf2_nonexistence,
                                    bounds_certificate,
                                    construction_certificate, emit_certificate,
                                    parse_certificate, parse_graph,
                                    resolve_graph, verify_certificate)
from edgeforce.cli import main, to_dot
from edgeforce.constructions import DEFAULT_SEED, construct_edge_forcing

from conftest import cycle_graph, path_graph


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

    def test_edges_not_array(self):
        with pytest.raises(CertificateError, match='"edges"'):
            parse_graph('{"n": 3, "edges": 7}')

    def test_bad_edge_entry(self):
        with pytest.raises(CertificateError, match=r"edges\[1\]"):
            parse_graph('{"n": 3, "edges": [[0, 1], [2]]}')

    def test_self_loop_rejected(self):
        with pytest.raises(CertificateError):
            parse_graph('{"n": 3, "edges": [[1, 1]]}')

    def test_resolve_butterfly_descriptor(self):
        g = resolve_graph("butterfly:3")
        assert g.vertex_count == 32

    def test_resolve_unknown_descriptor(self):
        with pytest.raises(CertificateError, match="unknown graph descriptor"):
            resolve_graph("hypercube:3")


class TestCertificates:
    def test_round_trip_and_byte_determinism(self):
        cert = construction_certificate(3, sorted(construct_edge_forcing(3)),
                                        DEFAULT_SEED)
        text = emit_certificate(cert)
        again = emit_certificate(parse_certificate(text))
        assert text == again
        assert text == emit_certificate(cert)

    def test_construction_verifies(self):
        cert = construction_certificate(3, sorted(construct_edge_forcing(3)),
                                        DEFAULT_SEED)
        ok, details = verify_certificate(cert)
        assert ok, details

    def test_tampered_witness_detected(self):
        cert = construction_certificate(3, sorted(construct_edge_forcing(3)),
                                        DEFAULT_SEED)
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
        import pathlib
        fixtures = sorted(pathlib.Path(__file__).parent.parent
                          .joinpath("fixtures").glob("*.json"))
        assert len(fixtures) >= 15
        for path in fixtures:
            ok, details = verify_certificate(path.read_text())
            assert ok, f"{path.name}: {details}"

    def test_bf3_fixture_reproducible(self):
        import pathlib
        path = (pathlib.Path(__file__).parent.parent
                / "fixtures" / "bf3-construction.json")
        cert = construction_certificate(3, sorted(construct_edge_forcing(3)),
                                        DEFAULT_SEED, [])
        assert path.read_text() == emit_certificate(cert)


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

    def test_verify_nonexistence_at_the_solve_guard(self, tmp_path, capsys):
        from edgeforce.graph import from_edges
        star = from_edges(31, [(0, v) for v in range(1, 31)])
        assert main(["solve", "ef", "--graph",
                     write_graph(tmp_path, star)]) == 1
        cert = tmp_path / "star.json"
        cert.write_text(capsys.readouterr().out)
        assert main(["verify", "--cert", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    @pytest.mark.parametrize("command, text", [
        ("verify", "[]"),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "bounds",
                               "graph": "butterfly:3", "claim": {}})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "bounds"})),
        ("verify", json.dumps({"schema_version": "efc-1", "kind": "bounds",
                               "graph": "butterfly:3", "claim": []})),
        ("check zfs", "{}"),
    ], ids=["cert-not-object", "bounds-without-r", "cert-without-graph",
            "claim-not-object", "set-without-vertices"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, text):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        if command == "verify":
            argv = ["verify", "--cert", str(doc)]
        else:
            argv = ["check", "zfs", "--graph",
                    write_graph(tmp_path, cycle_graph(4)), "--set", str(doc)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        assert main(["closure", "--graph", "/nonexistent.json",
                     "--black", "0"]) == 2
