"""Self-test of the benchmark at reduced sizes (about a minute):

    python3 -m pytest perfbench

Each workload runs once untraced and once traced with ``--small``. The
test checks the result line against BENCHMARK.json (every metric present,
with its unit and a finite value), that the outputs passed their checks,
and that the span file parses into a consistent tree.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace or workload == "all_81":  # all_81 calls every layer, so no per-layer metric reads 0
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    if not trace:
        return
    spans = [json.loads(line) for line in (ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.jsonl").open()]
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans)
    for s in spans:
        assert {"id", "name", "start", "end", "parent", "run"} <= set(s)
        assert s["end"] >= s["start"]
        assert s["parent"] is None or s["parent"] in ids
    names = {s["name"] for s in spans}
    assert {"setup", "run", "pipeline." + ("evaluate" if workload != "solve_129" else "solve-motion")} <= names


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
