"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_bench.py -q

Runs every workload with ``--tiny`` (seconds, not minutes), untraced and
traced, and checks the output contract: every metric of BENCHMARK.json is
printed with its unit, nothing fails, and the work counts repeat exactly
across runs and across the traced and untraced runs. It also checks that
the benchmark refuses to run where there is no library to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, info, last = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(last)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """Two untraced runs and one traced run of one workload, same seed."""
    w = request.param
    return w, [result(run(w, 7, 0)), result(run(w, 7, 0)), result(run(w, 7, 1))]


def test_every_metric_is_printed_with_its_unit(runs):
    _, ((_, plain), _, (_, traced)) = runs
    for out, spec in ((plain, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert {m["name"]: m["unit"] for m in spec} == {
            name: v["unit"] for name, v in out["metrics"].items()
        }
        assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])


def test_nothing_fails(runs):
    _, results = runs
    for info, out in results:
        assert out["correct"] is True
        assert out["failed"] == 0 and out["attempted"] >= 1
        assert info["error_rate"] == {"value": 0.0, "unit": "ratio"}


def test_counts_repeat_across_runs_and_tracing(runs):
    _, ((info1, _), (info2, _), (info3, traced)) = runs
    assert info1["counts_repeat"] and info2["counts_repeat"] and info3["counts_repeat"]
    assert info1["inputs_sha256"] == info2["inputs_sha256"] == info3["inputs_sha256"]
    assert info1["counts_sha256"] == info2["counts_sha256"] == info3["counts_sha256"]
    m = traced["metrics"]
    assert m["trace.spans"]["value"] >= 2 * info3["items_per_pass"]
    for layer in ("weights", "cube", "bijection", "recursion", "oracle", "cli"):
        assert m[f"{layer}.errors"]["value"] == 0
        assert m[f"{layer}.self_s"]["value"] > 0


def test_seed_changes_inputs():
    a, _ = result(run("structure", 1, 0))
    b, _ = result(run("structure", 2, 0))
    assert a["inputs_sha256"] != b["inputs_sha256"]


def test_refuses_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
