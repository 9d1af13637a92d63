"""edgeforce benchmark: three seeded closed-loop workloads, timed from outside.

    python3 perfbench/run.py --workload bf-certify --seed 1 --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics (tracing off); with
--trace 1 it alternates untraced and traced passes and reports per-layer
self times, counts and the tracing overhead.  Earlier stdout lines are a
readable report (`env`, `report`, `counts`, `defects`, `layers`,
`attribution`); the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Runs from a plain checkout: it puts
`src/` on the path itself.
"""

import time

T0 = time.perf_counter()  # start of a set-up probe; see setup_probe()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # re-check a claimed gain here; never tune on it
SETUP_PROBES = 5
CALIBRATION_ROUNDS = 40
# The calibration loop's time on the host the calibrated times are scaled
# to (see calibration_s).  Changing it makes calibrated times of different
# commits incomparable.
CALIBRATION_S = 3.75e-4
MIN_PASSES = 3
# Each selects another code path, so a result made with one set is invalid.
PATH_VARIABLES = ("EDGEFORCE_FORCE_NUMPY", "EDGEFORCE_THREADS")

WORKLOADS = ("bf-certify", "exact-search", "long-chain")
# Per-command sums; each appears in the report of the workloads issuing it.
COMMAND_METRICS = ("construct_s", "bounds_s", "lower_bound_s", "verify_s",
                   "solve_s", "reduce_s", "closure_s")
# Gated end-to-end metrics: present and non-zero in all three workloads, and
# with pass times that do not depend on the seed.  The per-command sums are
# in the `report` line only.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "graph.from_edges.calls": "count", "graph.from_edges.self_s": "s",
    "graph.csr.self_s": "s", "graph.adjacency.self_s": "s",
    "graph.matchings.yielded": "count", "graph.matchings.self_s": "s",
    "butterfly.build.calls": "count", "butterfly.build.self_s": "s",
    "kernels.run_closure.calls": "count", "kernels.run_closure.self_s": "s",
    "kernels.rounds": "count", "kernels.forces": "count",
    "kernels.pair_scans": "count", "kernels.us_per_call": "us",
    "engine.closure.calls": "count", "engine.closure.self_s": "s",
    "engine.forces_all.calls": "count", "engine.forces_all.self_s": "s",
    "engine.membership.self_s": "s",
    "constructions.lower_bound.self_s": "s",
    "constructions.obstructions": "count",
    "constructions.conflict_pairs": "count",
    "constructions.packing_greedy": "count",
    "constructions.construct.self_s": "s",
    "constructions.construct.closure_calls": "count",
    "constructions.construct.useful_ratio": "ratio",
    "solver.ef.calls": "count", "solver.ef.self_s": "s",
    "solver.candidates": "count", "solver.candidates_per_s": "1/s",
    "solver.hit_ratio": "ratio", "solver.zf.self_s": "s",
    "solver.zf.subsets": "count",
    "reduction.build_gbar.self_s": "s",
    "certificates.emit.self_s": "s", "certificates.emit_bytes": "count",
    "certificates.parse.self_s": "s", "certificates.verify.self_s": "s",
    "certificates.build.self_s": "s",
    "certificates.nonexistence_recount.calls": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}
# Layer times that are structurally 0.0 in some workload (the layer does no
# work there).  They are printed on the `layers` line but kept out of the
# result line, whose times must be measured values in every workload.
ABSENT_SOMEWHERE = {
    "graph.matchings.self_s", "butterfly.build.self_s",
    "engine.forces_all.self_s", "constructions.lower_bound.self_s",
    "constructions.construct.self_s", "solver.ef.self_s",
    "solver.candidates_per_s", "solver.zf.self_s",
    "reduction.build_gbar.self_s",
    "certificates.build.self_s",
}
PER_LAYER = [name for name in PER_LAYER_UNITS if name not in ABSENT_SOMEWHERE]


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    return workloads


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Fresh-process set-up: `import edgeforce` plus generating the inputs."""
    import_program().build(workload, seed, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


def measure_setup(workload: str, seed: int, workdir: Path
                  ) -> tuple[float, float]:
    """Seconds of one fresh process running `setup_probe`, as measured and
    calibrated by the loops run just before and after it."""
    probe_dir = workdir / "setup"
    before = calibration_s()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         str(probe_dir), "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    after = calibration_s()
    shutil.rmtree(probe_dir, ignore_errors=True)
    raw = json.loads(out.stdout.splitlines()[-1])["setup_s"]
    return raw, raw * CALIBRATION_S / ((before + after) / 2)


def environment() -> dict:
    from edgeforce import kernels
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "backend": kernels.backend_name(),
            "nproc": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in PATH_VARIABLES}}


class Ledger:
    """Checks every output; keeps failures and exact per-operation counts.

    Counts read from outputs are kept from the first pass, layer counts from
    the first traced pass; every later pass must reproduce them.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: Counter = Counter()
        self.counts: list = []
        self.layer_counts: list = []
        self.counts_repeat = True

    def check(self, workload, outputs, layer_counts=None) -> None:
        wl = sys.modules["workloads"]
        counts = []
        for op, out in zip(workload.ops, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                status = wl.REFUSED if isinstance(out, wl.DECLINED) else wl.WRONG
                detail, found = f"{op.label}: {out!r}", {}
                if status == wl.WRONG and f"{status}: {detail}" not in self.failures:
                    sys.stderr.write("".join(traceback.format_exception(out)))
            else:
                try:
                    status, detail, found = op.check(out)
                except (KeyError, ValueError, TypeError, OSError) as exc:
                    status, detail, found = wl.WRONG, \
                        f"{op.label}: unreadable output {exc!r}", {}
            if status != wl.OK:
                self.failed += 1
                self.wrong += status == wl.WRONG
                self.failures[f"{status}: {detail}"] += 1
            counts.append([op.label, found])
        self._keep("counts", counts)
        if layer_counts is not None:
            self._keep("layer_counts",
                       [[op.label, dict(sorted(c.items()))]
                        for op, c in zip(workload.ops, layer_counts)])

    def _keep(self, attr: str, counts: list) -> None:
        if not getattr(self, attr):
            setattr(self, attr, counts)
        else:
            self.counts_repeat &= counts == getattr(self, attr)

    def digest(self) -> str:
        text = json.dumps([self.counts, self.layer_counts], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def totals(self) -> dict:
        out: Counter = Counter()
        for _, found in self.counts + self.layer_counts:
            out.update(found)
        return dict(sorted(out.items()))


def calibration_s() -> float:
    """Seconds of a fixed loop of small numpy calls and interpreter work.

    It shares no code with the program, so a change to the program cannot
    change it; only the speed the shared host lends this process does.  The
    best of three runs is taken, so that one interrupt does not count.  The
    collector is off meanwhile, so that objects the program left behind do
    not slow it.
    """
    import numpy
    small, table = numpy.arange(64), {i: i for i in range(64)}
    enabled = gc.isenabled()
    gc.disable()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_ROUNDS):
            picked = numpy.flatnonzero((small * 3) % 7)
            sum(table[i] for i in range(0, 64, 4))
            [i for i in picked.tolist() if i & 1]
        best = min(best, time.perf_counter() - t0)
    if enabled:
        gc.enable()
    return best


def run_pass(workload, tracer=None):
    """One closed-loop pass: (wall seconds, calibrated seconds, seconds per
    metric, outputs, per-operation layer counts when traced).

    The wall time is the sum of the operations' times; saving their output
    to files is not timed.  The calibration loop runs before the first
    operation and after each one (untimed), and each operation's time
    is scaled by CALIBRATION_S over the mean of the two loops around it:
    the calibrated time is the pass time on a host as fast as the one the
    loop constant was taken on.
    """
    sums = defaultdict(float)
    outputs, layer_counts = [], []
    wall = calibrated = 0.0
    before_op = calibration_s()
    for op in workload.ops:
        if tracer is not None:
            before = dict(tracer.counts)
            sid = tracer.open("op." + op.metric)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation, checked and counted
            out = exc
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(sid, elapsed)
            layer_counts.append({k: v - before.get(k, 0)
                                 for k, v in tracer.counts.items()
                                 if v != before.get(k, 0)})
        op.save(out)
        wall += elapsed
        after_op = calibration_s()
        calibrated += elapsed * CALIBRATION_S / ((before_op + after_op) / 2)
        before_op = after_op
        sums[op.metric] += elapsed
        outputs.append(out)
    return wall, calibrated, sums, outputs, layer_counts


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer values of one traced pass."""
    self_s, _ = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    out = {}
    for name in PER_LAYER_UNITS:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = self_s.get(base, 0.0)
        elif kind == "calls":
            out[name] = calls.get(base, 0)
        else:
            out[name] = c.get(name, 0)
    kernel_calls = calls.get("kernels.run_closure", 0)
    out["kernels.us_per_call"] = (1e6 * out["kernels.run_closure.self_s"]
                                  / kernel_calls if kernel_calls else 0.0)
    tried = c.get("constructions.construct.closure_calls", 0)
    out["constructions.construct.useful_ratio"] = (
        c.get("constructions.construct.edges_kept", 0) / tried if tried else 0.0)
    ef_time = tracer.total("solver.ef")
    candidates = c.get("solver.candidates", 0)
    out["solver.candidates_per_s"] = candidates / ef_time if ef_time else 0.0
    out["solver.hit_ratio"] = (c.get("solver.witnesses", 0) / candidates
                               if candidates else 0.0)
    out["bench.self_s"] = sum(t for n, t in self_s.items()
                              if n.startswith("op."))
    out["trace.wall_s"] = wall
    return out


def attribution(tracer) -> dict:
    """Share of each command metric's time by layer self time."""
    _, by_root = tracer.self_times()
    totals = defaultdict(float)
    for (root, _), t in by_root.items():
        totals[root] += t
    out = defaultdict(dict)
    for (root, name), t in sorted(by_root.items(), key=lambda kv: -kv[1]):
        if totals[root] and t / totals[root] >= 0.01:
            out[root.removeprefix("op.")][name] = round(t / totals[root], 3)
    return dict(out)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    wl = import_program()
    result = {"env": environment()}
    setups = []
    if not trace:
        # untimed: leaves the byte-compiled files behind
        measure_setup(workload, seed, workdir)
    w = wl.build(workload, seed, workdir / "inputs")
    ledger = Ledger()
    ledger.check(w, run_pass(w)[3])  # warm-up pass
    walls, calibrated, traced_walls = [], [], []
    sums, layers = defaultdict(list), []
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    longest = 0.0  # the longest turn of the loop so far
    # Closed loop while the next turn fits in `seconds`: at least MIN_PASSES
    # untraced passes, or, traced, untraced and traced passes in turn (one
    # of each).  Untraced, each pass is followed by one set-up probe, so the
    # probes sample the same stretch of time as the passes.
    while (len(walls) < (1 if trace else MIN_PASSES)
           or (trace and not traced_walls)
           or time.perf_counter() - start + longest <= seconds):
        began = time.perf_counter()
        if trace and len(traced_walls) < len(walls):
            tracer.reset()
            tracer.install()
            try:
                _, wall, _, outputs, layer_counts = run_pass(w, tracer)
            finally:
                tracer.uninstall()
            ledger.check(w, outputs, layer_counts)
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, wall))
            result["attribution"] = attribution(tracer)
        else:
            wall, cal, per_metric, outputs, _ = run_pass(w)
            ledger.check(w, outputs)
            walls.append(wall)
            calibrated.append(cal)
            for metric in COMMAND_METRICS:
                sums[metric].append(per_metric.get(metric, 0.0))
            if not trace:
                setups.append(measure_setup(workload, seed, workdir))
        longest = max(longest, time.perf_counter() - began)
    while not trace and len(setups) < SETUP_PROBES:
        setups.append(measure_setup(workload, seed, workdir))
    if setups:
        result["setup_raw_s"] = statistics.median(raw for raw, _ in setups)
        result["setup_s"] = statistics.median(cal for _, cal in setups)
    result.update(
        passes=len(walls), attempted=ledger.attempted, failed=ledger.failed,
        wrong=ledger.wrong, failures=dict(ledger.failures),
        counts={"digest": ledger.digest(),
                "repeat_within_run": ledger.counts_repeat,
                "totals": ledger.totals()},
        wall_raw_s=statistics.median(walls),
        wall_s=statistics.median(calibrated),
        commands={m: statistics.median(v) for m, v in sums.items() if any(v)},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["defects"] = wl.known_defects(workdir / "defects")  # untimed
    if trace:
        result["layers"] = {name: statistics.median(p[name] for p in layers)
                            for name in PER_LAYER_UNITS}
        result["layers"]["trace.untraced_wall_s"] = result["wall_s"]
        result["layers"]["trace.overhead_s"] = (
            statistics.median(traced_walls) - result["wall_s"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0
    set_vars = [v for v in PATH_VARIABLES if v in os.environ]
    if set_vars:
        return fail(f"refusing to run with {', '.join(set_vars)} set: "
                    f"each selects another code path")
    if not (ROOT / "src" / "edgeforce").is_dir() or not (
            ROOT / "fixtures").is_dir():
        return fail(f"no edgeforce checkout at {ROOT} (needs src/ and "
                    f"fixtures/)")

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        r = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                    workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print("env " + json.dumps(r["env"], sort_keys=True))
    values = {"fail_ratio": r["failed"] / r["attempted"],
              "wall_s": r["wall_s"], "wall_raw_s": r["wall_raw_s"],
              "peak_rss_mb": r["peak_rss_mb"],
              **r["commands"]}
    if "setup_s" in r:
        values.update(setup_s=r["setup_s"], setup_raw_s=r["setup_raw_s"])
    units = {**END_TO_END, "fail_ratio": "ratio", "wall_raw_s": "s",
             "setup_raw_s": "s", **{m: "s" for m in COMMAND_METRICS}}
    report = {"workload": args.workload, "seed": args.seed,
              "passes": r["passes"], "attempted": r["attempted"],
              "failed": r["failed"], "wrong": r["wrong"],
              "failures": r["failures"],
              "metrics": {name: {"value": v, "unit": units[name]}
                          for name, v in values.items()}}
    print("report " + json.dumps(report))
    print("counts " + json.dumps(r["counts"]))
    print("defects " + json.dumps(r["defects"]))
    if args.trace:
        print("layers " + json.dumps(r["layers"]))
        print("attribution " + json.dumps(r["attribution"]))
        metrics = {name: {"value": r["layers"][name],
                           "unit": PER_LAYER_UNITS[name]}
                   for name in PER_LAYER}
    else:
        metrics = {name: report["metrics"][name] for name in END_TO_END}
    print(json.dumps({"correct": r["wrong"] == 0,
                      "attempted": r["attempted"], "failed": r["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
