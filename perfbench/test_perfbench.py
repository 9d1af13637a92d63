"""Self-tests of the benchmark: python3 -m pytest perfbench -q

The count test runs each workload twice with one seed (about two minutes in
all) and requires identical exact work counts.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(RUN + list(args), cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def lines(out: str) -> dict:
    """The report lines by their first word, and the final result."""
    rows = out.strip().splitlines()
    found = {row.split(" ", 1)[0]: json.loads(row.split(" ", 1)[1])
             for row in rows[:-1]}
    found["result"] = json.loads(rows[-1])
    return found


@pytest.mark.parametrize("workload", ["bf-certify", "exact-search",
                                      "long-chain"])
def test_counts_repeat_across_runs(workload):
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(lines(proc.stdout))
    first, second = runs
    assert first["counts"]["repeat_within_run"]
    assert first["counts"]["digest"] == second["counts"]["digest"]
    assert first["result"]["correct"] and first["result"]["failed"] == 0
    assert first["layers"]["kernels.run_closure.calls"] > 0
    assert set(first["result"]["metrics"]) == {m["name"]
                                               for m in SPEC["per_layer"]}


def test_result_holds_the_end_to_end_metrics():
    proc = bench("--workload", "long-chain", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    found = lines(proc.stdout)
    assert set(found["defects"]) == {"verify_nonexistence_cap_24_edges",
                                     "normalize_and_project_no_twin"}
    result = found["result"]
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_code_path_variables():
    env = dict(os.environ, EDGEFORCE_THREADS="1")
    proc = bench("--workload", "long-chain", "--seconds", "0", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "bf-certify",
             "--seconds", "1"], cwd=bare, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
