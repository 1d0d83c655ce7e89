"""Smoke test of the perf harness at toy size (not in tier-1's testpaths).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py``.
Every workload runs for about a second; what is asserted is the shape of
the output — the metric names are exactly those of ``BENCHMARK.json``,
each with its unit — the trace file, the watchdog, and ``compare``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "perf" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TOY = ["--size", "toy", "--seconds", "1"]


def run(*args, check=True):
    proc = subprocess.run(
        [*RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_names_match_benchmark_json(workload, trace, tmp_path):
    out = tmp_path / "out.json"
    result = last_json(
        run("--workload", workload, "--trace", str(trace), "--out", str(out), *TOY)
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {
        m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    events = json.loads((tmp_path / f"trace-{workload}.json").read_text())["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    assert events and all(
        e["args"]["parent"] is None or e["args"]["parent"] in ids for e in events
    )
    record = json.loads(out.read_text())["runs"][0]
    assert {"git_sha", "usable_cores", "python", "numpy", "blas_threads",
            "numba_present", "backend", "seed"} <= set(record["fingerprint"])
    assert (tmp_path / "history.jsonl").read_text().count("\n") == 1


def test_watchdog_kills_a_wedged_workload_and_moves_on():
    proc = run(
        "--workload", f"selftest-wedge,{WORKLOADS[1]}", "--deadline", "3", *TOY,
        check=False,
    )
    assert proc.returncode == 1
    assert "killed by the watchdog" in proc.stdout
    result = last_json(proc)
    assert not result["correct"] and result["failed"] >= 1
    # the workload after the wedged one still ran and reported its metrics
    assert f"{WORKLOADS[1]}/steps_per_s" in result["metrics"]


def test_compare_reads_two_sets(tmp_path):
    files = []
    for name in ("a", "b"):
        files.append(str(tmp_path / name / "set.json"))
        run("--workload", WORKLOADS[1], "--repeat", "2", "--out", files[-1], *TOY)
    proc = run("compare", *files, check=False)
    assert proc.returncode in (0, 1), proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if "bound" in ln]
    assert len(lines) == len(SPEC["end_to_end"])
    assert all(ln.split()[-1] in ("ok", "worse", "unresolved") for ln in lines)


def test_exits_nonzero_without_the_repository(tmp_path):
    """The contract's bare directory: BENCHMARK.json and the harness only."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "perf", tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
