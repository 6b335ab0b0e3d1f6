"""Tier-1 smoke test of the end-to-end benchmark (not ``slow``).

Every workload once and one traced run at ``--smoke`` scale (24 lines,
m=10 k=5): the result line carries exactly the names BENCHMARK.json
declares, plans are a pure function of ``(workload, seed)``, percentile
ranks sit inside a latency class, and a run leaves nothing behind.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

pytest.importorskip("numpy")
pytestmark = pytest.mark.skipif(
    bool(os.environ.get("REPRO_NO_NUMPY")), reason="the benchmark measures the numpy scan path"
)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(out: pathlib.Path, *args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_status() -> str | None:
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def test_contract_lists_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert CONTRACT["run_seconds"] == workloads.REF_SECONDS
    assert "setup_s" in [m["name"] for m in CONTRACT["end_to_end"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload, tmp_path):
    before = git_status()
    result = run_bench(tmp_path / "out", "--workload", workload, "--seed", "5")
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "out").exists(), "the run's scratch must be removed"
    assert git_status() == before


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = run_bench(tmp_path / "out", "--workload", "repeat_mixed", "--seed", "5", "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT["per_layer"]
    }
    # [0.85, 1.15] at the committed scale; 24 tiny lines only bound it loosely.
    assert 0.5 <= result["metrics"]["db.engine.ingest_coverage_ratio"]["value"] <= 2.0
    spans = [json.loads(line) for line in (tmp_path / "out" / "trace-repeat_mixed.jsonl").read_text().splitlines()]
    assert spans and all(len(span) == 7 and span[6] >= span[5] for span in spans)
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["trace-repeat_mixed.jsonl"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_a_function_of_workload_and_seed(workload):
    for smoke in (True, False):
        first = workloads.plan_bytes(workloads.build_plan(workload, 11, smoke=smoke))
        assert first == workloads.plan_bytes(workloads.build_plan(workload, 11, smoke=smoke))
        assert first != workloads.plan_bytes(workloads.build_plan(workload, 12, smoke=smoke))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_percentile_ranks_sit_inside_a_latency_class(workload):
    plan = workloads.build_plan(workload, 11)
    reads = workloads.timed_reads(plan)
    for name, share in plan["classes"]:
        assert sum(r["cls"] == name for r in reads) == pytest.approx(share / 100.0 * len(reads))
    assert workloads.percentile_margin(plan["classes"], 50) >= 10
    assert workloads.percentile_margin(plan["classes"], 90) >= 10
    likes = [r["like"] for r in reads]
    if workload != "repeat_mixed":
        assert len(set(likes)) == len(likes), "cold workloads ask distinct patterns"


def test_sigterm_reaps_the_server_and_removes_scratch(tmp_path):
    out = tmp_path / "out"
    bench = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), "--workload", "scan_cold"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not list(out.glob("run-*/server.log")):
            time.sleep(0.02)
        assert list(out.glob("run-*/server.log")), "the server never started"
        bench.send_signal(signal.SIGTERM)
        assert bench.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        bench.kill()
        bench.communicate()
    assert not out.exists()
    for proc in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
        try:
            assert str(out).encode() not in proc.read_bytes(), "a server outlived the benchmark"
        except OSError:
            continue
