"""The three seeded workloads: inputs, operations and output checks.

A workload is built once from its seed (`build`), then run as repeated
passes.  Each pass is a closed loop of operations: the next one starts when
the previous one returns.  An operation is either a real user command
issued through `edgeforce.cli.main` in-process with stdout captured (and
saved to a file after the operation, untimed), or an exported library call
that no CLI command reaches.  Every operation has a check that runs after
the pass, outside the timed region.

Modules of the program are called through their module attribute
(`constructions.structural_lower_bound`, not a bound name) so that the
traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from edgeforce import (butterfly, cli, constructions, engine, graph, reduction,
                       solver)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# An operation fails without a wrong answer (REFUSED) when the program
# declines to answer: the CLI exits 2, a library call raises one of the
# errors the program raises on purpose, or `verify` declines a check.  The
# known case of the last: `verify` refuses nonexistence certificates of
# graphs with more than 24 edges (a hard-coded cap in verify_certificate);
# the solve check has confirmed those verdicts with the oracle.
KNOWN_REFUSAL = "nonexistence re-verification limited to small graphs"
DECLINED = (ValueError, constructions.ConstructionError,
            solver.InstanceTooLarge)
EXACT_BF = {3: 8, 4: 25, 5: 47}

OK, REFUSED, WRONG = "ok", "refused", "wrong"


@dataclass
class Op:
    """One user-visible operation.

    `run` does the work and returns what the check needs.  `check` returns
    (status, detail, counts): status is OK, REFUSED (failed, output not
    wrong) or WRONG; counts are exact work counts read from the output.
    """

    metric: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str, dict]]

    def save(self, result: object) -> None:
        """Write a command's captured stdout to its file; runs untimed.

        On the shared virtual disk 220 small writes take 0.015 s to 0.75 s,
        and that noise is not the program's work.
        """
        if isinstance(result, CliResult):
            result.path.write_text(result.text, encoding="utf-8")


@dataclass
class Workload:
    workdir: Path
    ops: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------------------
# independent oracles (bitmask closure; share no code with the program)
# ---------------------------------------------------------------------------

def _masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _forces_all(adj: list[int], black: int) -> bool:
    full = (1 << len(adj)) - 1
    changed = True
    while changed and black != full:
        changed = False
        rest = black
        while rest:
            low = rest & -rest
            rest ^= low
            white = adj[low.bit_length() - 1] & ~black
            if white and not white & (white - 1):
                black |= white
                changed = True
    return black == full


class Oracle:
    """Exact answers for small graphs, memoised by graph."""

    def __init__(self) -> None:
        self._ef: dict = {}
        self._zf: dict = {}

    def zero_forcing_number(self, n: int, edges) -> int:
        key = (n, tuple(map(tuple, edges)))
        if key not in self._zf:
            adj = _masks(n, edges)
            self._zf[key] = next(
                k for k in range(n + 1)
                for s in itertools.combinations(range(n), k)
                if _forces_all(adj, sum(1 << v for v in s)))
        return self._zf[key]

    def edge_forcing_number(self, n: int, edges) -> Optional[int]:
        """Smallest forcing matching size, or None when none exists."""
        key = (n, tuple(map(tuple, edges)))
        if key in self._ef:
            return self._ef[key]
        adj = _masks(n, edges)
        edges = [tuple(e) for e in edges]
        best: Optional[int] = None
        if all(adj) or n == 0:
            def grow(start: int, size: int, used: int) -> bool:
                if size == 0:
                    return _forces_all(adj, used)
                for i in range(start, len(edges)):
                    bits = (1 << edges[i][0]) | (1 << edges[i][1])
                    if not used & bits and grow(i + 1, size - 1, used | bits):
                        return True
                return False
            # an isolated vertex can be neither an endpoint nor forced
            best = next((k for k in range(1, n // 2 + 1) if grow(0, k, 0)),
                        None)
        self._ef[key] = best
        return best


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

class CliResult(NamedTuple):
    code: int
    path: Path  # where Op.save writes the captured stdout
    err: str
    text: str


def run_cli(argv: list, out: Path) -> CliResult:
    """`edgeforce <argv>` in-process, stdout and stderr captured in memory."""
    text, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return CliResult(code, out, err.getvalue(), text.getvalue())


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _cli_failure(result, expected_codes=(0,)) -> Optional[tuple]:
    """A (status, detail, counts) failure when the exit code is unexpected."""
    code, err = result.code, result.err
    if code in expected_codes:
        return None
    status = REFUSED if code == 2 else WRONG
    return status, f"exit {code}: {err.strip()[:200]}", {}


def verify_op(cert: Path, out: Path) -> Op:
    def check(result):
        failure = _cli_failure(result, (0, 1))
        if failure:
            return failure
        report = _read_json(result.path)
        if report["verified"] and result.code == 0:
            return OK, "", {}
        doc = _read_json(cert)
        if (doc["kind"] == "nonexistence" and isinstance(doc["graph"], dict)
                and len(doc["graph"]["edges"]) > 24
                and report["details"] == KNOWN_REFUSAL):
            return REFUSED, f"{cert.name}: {KNOWN_REFUSAL}", {}
        return WRONG, f"{cert.name}: {report['details']}", {}
    return Op("verify_s", f"verify {cert.name}",
              lambda: run_cli(["verify", "--cert", cert], out), check)


def _cert_counts(path: Path) -> dict:
    return {"cert_bytes": path.stat().st_size}


# ---------------------------------------------------------------------------
# bf-certify
# ---------------------------------------------------------------------------

def _bf_certify(w: Workload, rng: random.Random) -> None:
    for r in range(3, 12):
        seed = rng.randrange(1 << 31)
        cert = w.workdir / f"bf{r}-construction.json"

        def check_construct(result, r=r):
            failure = _cli_failure(result)
            if failure:
                return failure
            doc = _read_json(result.path)
            size = len(doc["witness"]["edges"])
            counts = {"witness_size": size, **_cert_counts(result.path)}
            if r in EXACT_BF and size != EXACT_BF[r]:
                return WRONG, f"BF({r}) witness {size} != {EXACT_BF[r]}", counts
            bound = constructions.known_bounds(r).upper_formula
            if size > bound:
                return WRONG, f"BF({r}) witness {size} > {bound}", counts
            return OK, "", counts

        w.ops.append(Op("construct_s", f"construct r={r}",
                        lambda r=r, seed=seed, cert=cert: run_cli(
                            ["construct", "--r", r, "--seed", seed], cert),
                        check_construct))
        w.ops.append(verify_op(cert, w.workdir / f"bf{r}-construction.v"))

        bcert = w.workdir / f"bf{r}-bounds.json"

        def check_bounds(result):
            return _cli_failure(result) or (OK, "", _cert_counts(result.path))

        w.ops.append(Op("bounds_s", f"bounds r={r}",
                        lambda r=r, bcert=bcert: run_cli(
                            ["bounds", "--r", r], bcert), check_bounds))
        w.ops.append(verify_op(bcert, w.workdir / f"bf{r}-bounds.v"))

        def lower_bound(r=r):
            return constructions.structural_lower_bound(
                butterfly.build_butterfly(r))

        def check_lower(result, r=r):
            bound, family = result
            counts = {"obstructions": len(family)}
            if bound != 1 << r or len(family) != bound:
                return WRONG, f"BF({r}) lower bound {bound} != {1 << r}", counts
            return OK, "", counts

        w.ops.append(Op("lower_bound_s", f"lower_bound r={r}", lower_bound,
                        check_lower))
    for fixture in sorted(FIXTURES.glob("*.json")):
        w.ops.append(verify_op(fixture, w.workdir / f"fixture-{fixture.stem}.v"))


# ---------------------------------------------------------------------------
# exact-search
# ---------------------------------------------------------------------------

def _random_graph(rng: random.Random, n: int, m: int,
                  isolated: bool) -> dict:
    """Uniform m-edge graph on n vertices.

    With `isolated`, vertex n-1 gets no edge; otherwise the graph is redrawn
    until no vertex is isolated.
    """
    pool = list(itertools.combinations(range(n - 1 if isolated else n), 2))
    while True:
        edges = rng.sample(pool, m)
        if isolated or len({v for e in edges for v in e}) == n:
            return {"n": n, "edges": edges}


def _base_graph(rng: random.Random) -> dict:
    """The acceptance-criterion-5 family: 4-7 vertices, edge chance 0.4."""
    n = rng.randint(4, 7)
    return {"n": n, "edges": [e for e in itertools.combinations(range(n), 2)
                              if rng.random() < 0.4]}


def _relabel(rng: random.Random, doc: dict) -> dict:
    """The same graph under a random vertex numbering and edge order."""
    perm = list(range(doc["n"]))
    rng.shuffle(perm)
    edges = [[perm[u], perm[v]] for u, v in doc["edges"]]
    rng.shuffle(edges)
    return {"n": doc["n"], "edges": edges}


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


def _solve_ef_op(w: Workload, oracle: Oracle, gpath: Path, doc: dict) -> Op:
    cert = w.workdir / f"{gpath.stem}.ef.json"

    def check(result):
        failure = _cli_failure(result, (0, 1))
        if failure:
            return failure
        out = _read_json(result.path)
        counts = {"explored": out["search"]["explored"], **_cert_counts(cert)}
        expected = oracle.edge_forcing_number(doc["n"], doc["edges"])
        got = out["claim"].get("value") if out["kind"] == "ef-number" else None
        counts["witness_size"] = got or 0
        if expected != got or result.code != (0 if got else 1):
            return WRONG, f"{gpath.name}: ef {got}, oracle {expected}", counts
        return OK, "", counts

    return Op("solve_s", f"solve ef {gpath.name}",
              lambda: run_cli(["solve", "ef", "--graph", gpath], cert), check)


def _solve_zf_op(w: Workload, oracle: Oracle, gpath: Path, doc: dict) -> Op:
    cert = w.workdir / f"{gpath.stem}.zf.json"

    def check(result):
        failure = _cli_failure(result)
        if failure:
            return failure
        got = _read_json(result.path)["claim"]["value"]
        counts = {"witness_size": got, **_cert_counts(cert)}
        expected = oracle.zero_forcing_number(doc["n"], doc["edges"])
        if got != expected:
            return WRONG, f"{gpath.name}: zf {got}, oracle {expected}", counts
        return OK, "", counts

    return Op("solve_s", f"solve zf {gpath.name}",
              lambda: run_cli(["solve", "zf", "--graph", gpath], cert), check)


def _reduce_op(w: Workload, oracle: Oracle, gpath: Path, doc: dict) -> Op:
    cert = w.workdir / f"{gpath.stem}.reduce.json"

    def check(result):
        failure = _cli_failure(result)
        if failure:
            return failure
        claim = _read_json(result.path)["claim"]
        zf, ef = claim["zero_forcing_number"], claim["lifted_edge_forcing_number"]
        counts = {"zf": zf, "lifted_ef": ef, **_cert_counts(cert)}
        expected = oracle.zero_forcing_number(doc["n"], doc["edges"])
        if not (claim["equal"] and zf == ef == expected):
            return WRONG, f"{gpath.name}: zf {zf}, lifted ef {ef}, " \
                          f"oracle {expected}", counts
        return OK, "", counts

    return Op("reduce_s", f"reduce {gpath.name}",
              lambda: run_cli(["reduce", "--graph", gpath, "--verify"], cert),
              check)


def _exact_search(w: Workload, rng: random.Random) -> None:
    # The graph family is fixed and the seed renumbers it.  The size of the
    # exhaustive parts (every matching or subset below the optimum) does not
    # depend on the numbering, so neither does the pass time; enumeration
    # order, witnesses and search counts do.  Three of the twelve `solve ef`
    # graphs have an isolated vertex, so every pass meets three not-exists
    # verdicts.  Those three have 24 edges, the most `verify` re-checks a
    # nonexistence certificate for (see `known_defects`); the other nine
    # have 26.
    family = random.Random("exact-search family")
    oracle = Oracle()
    certs: list[Path] = []
    graphs = [("ef", _random_graph(family, 14, 24 if i < 3 else 26,
                                   isolated=i < 3))
              for i in range(12)]
    graphs.append(("ef", butterfly.build_butterfly(2).to_json_dict()))
    graphs += [("zf", _random_graph(family, 16, 30, isolated=False))
               for _ in range(12)]
    graphs += [("base", _base_graph(family)) for _ in range(30)]
    for i, (kind, doc) in enumerate(graphs):
        doc = _relabel(rng, doc)
        gpath = _write(w.workdir / f"{kind}{i:02d}.graph", doc)
        if kind == "ef":
            w.ops.append(_solve_ef_op(w, oracle, gpath, doc))
            certs.append(w.workdir / f"{gpath.stem}.ef.json")
        elif kind == "zf":
            w.ops.append(_solve_zf_op(w, oracle, gpath, doc))
            certs.append(w.workdir / f"{gpath.stem}.zf.json")
        else:
            w.ops.append(_reduce_op(w, oracle, gpath, doc))
            certs.append(w.workdir / f"{gpath.stem}.reduce.json")
    for cert in certs:
        w.ops.append(verify_op(cert, cert.with_suffix(".v")))


# ---------------------------------------------------------------------------
# long-chain
# ---------------------------------------------------------------------------

def _chain(rng: random.Random, n: int, ladder: bool) -> tuple[dict, list[int]]:
    """P_n (or P_n x K_2) renumbered at random; returns it and one end."""
    size = 2 * n if ladder else n
    perm = list(range(size))
    rng.shuffle(perm)
    edges = [(i, i + 1) for i in range(n - 1)]
    if ladder:
        edges += [(n + i, n + i + 1) for i in range(n - 1)]
        edges += [(i, n + i) for i in range(n)]
    edges = [[perm[u], perm[v]] for u, v in edges]
    rng.shuffle(edges)
    end = [perm[0], perm[n]] if ladder else [perm[0]]
    return {"n": size, "edges": edges}, end


def _closure_ops(doc: dict, end: list[int], label: str) -> list[Op]:
    def run_closure():
        g = graph.from_edges(doc["n"], doc["edges"])
        return g, engine.closure(g, end)

    def check_closure(result):
        g, res = result
        counts = {"forces": len(res.trace.events),
                  "rounds": res.trace.events[-1].round if res.trace.events
                  else 0}
        if len(res.final) != g.vertex_count:
            return WRONG, f"{label}: closure covers {len(res.final)}", counts
        try:
            replayed = res.trace.replay(g)
        except AssertionError as exc:
            return WRONG, f"{label}: trace replay failed: {exc}", counts
        if replayed != res.final:
            return WRONG, f"{label}: replay gives another set", counts
        return OK, "", counts

    def run_membership():
        return engine.is_zero_forcing_set(
            graph.from_edges(doc["n"], doc["edges"]), end)

    def check_membership(result):
        return (OK, "", {}) if result is True else \
            (WRONG, f"{label}: is_zero_forcing_set is {result}", {})

    return [Op("closure_s", f"closure {label}", run_closure, check_closure),
            Op("closure_s", f"is_zero_forcing_set {label}", run_membership,
               check_membership)]


def _long_chain(w: Workload, rng: random.Random) -> None:
    # Sizes are fixed and the seed renumbers the chains: closure time grows
    # as n^2, so seeded sizes would make the pass time depend on the seed.
    shapes = [(2600, False), (3400, False), (4200, False),
              (1800, True), (2600, True)]
    for i, (n, ladder) in enumerate(shapes):
        doc, end = _chain(rng, n, ladder)
        label = f"{'ladder' if ladder else 'path'}{i}-n{n}"
        w.ops.extend(_closure_ops(doc, end, label))
        if i == 2:  # the longest path
            gpath = _write(w.workdir / f"{label}.graph", doc)
            cert = w.workdir / f"{label}.closure.json"

            def check_cli(result, cert=cert):
                failure = _cli_failure(result)
                if failure:
                    return failure
                doc = _read_json(result.path)
                counts = {"trace_events": len(doc["trace"]),
                          **_cert_counts(cert)}
                if not doc["claim"]["covers_all"]:
                    return WRONG, f"{cert.name}: closure does not cover", counts
                return OK, "", counts

            w.ops.append(Op("closure_s", f"cli closure {label}",
                            lambda gpath=gpath, cert=cert, end=end: run_cli(
                                ["closure", "--graph", gpath, "--black",
                                 ",".join(map(str, end))], cert), check_cli))
            w.ops.append(verify_op(cert, cert.with_suffix(".v")))


def known_defects(workdir: Path) -> dict:
    """Whether each known defect of the program still reproduces.

    The workloads steer clear of these inputs, so that no timed operation
    fails; the run reports each here instead, once and untimed.  A fix
    shows as `false`.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    # `verify` declines nonexistence certificates of graphs with more than
    # 24 edges, although the verdict is right (the oracle confirms it).
    doc = _random_graph(random.Random("known defect"), 14, 26, isolated=True)
    gpath = _write(workdir / "defect.graph", doc)
    cert = workdir / "defect.ef.json"
    solved = run_cli(["solve", "ef", "--graph", gpath], cert)
    solved.path.write_text(solved.text, encoding="utf-8")
    checked = run_cli(["verify", "--cert", cert], workdir / "defect.v")
    nonexistence_cap = (
        solved.code == 1
        and Oracle().edge_forcing_number(doc["n"], doc["edges"]) is None
        and json.loads(checked.text)["details"] == KNOWN_REFUSAL)
    # `normalize_and_project` finds no twin replacement for an optimal
    # lifted witness of this tree (zero forcing number 2).
    tree = graph.from_edges(7, [(5, 6), (0, 2), (2, 4), (1, 6), (0, 1),
                                (0, 3)])
    try:
        reduction.normalize_and_project(reduction.build_gbar(tree),
                                        [(0, 1), (2, 9)])
        projection = False
    except ValueError:
        projection = True
    return {"verify_nonexistence_cap_24_edges": nonexistence_cap,
            "normalize_and_project_no_twin": projection}


BUILDERS = {"bf-certify": _bf_certify, "exact-search": _exact_search,
            "long-chain": _long_chain}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from `seed` into `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    w = Workload(workdir)
    BUILDERS[name](w, random.Random(f"{name}:{seed}"))
    return w
