"""Simulation-service throughput: packed concurrent jobs vs serial.

The service's pitch is utilization: many small jobs multiplexed onto
shared capacity should finish sooner wall-clock than the same jobs run
one after another, because slices of different jobs overlap (engine
waits release the GIL) and every lane takes the next waiting slice of
any job, so cheap jobs step beside expensive ones instead of queuing
behind them.

This benchmark runs one mixed batch of jobs twice:

* **serial** — each job solo, one after another (lanes=1, one at a time);
* **packed** — all jobs submitted at once to a service with several
  concurrency lanes.

and records jobs/hour for both plus the speedup.  On a **single-core
host the speedup gate is skipped and the number is close to 1.0** —
sequential engines are pure compute, so lanes time-slice one CPU and
only scheduling overhead shows.  Real overlap needs real cores (or jobs
dominated by worker-pool waits); ``cpu_count`` is recorded so readers
can tell which regime produced the number.

Results land in ``benchmarks/results/BENCH_service.json`` (+ ``.txt``).
Environment knobs for CI: ``SERVICE_BENCH_JOBS`` (default ``6``),
``SERVICE_BENCH_STEPS`` (default ``8``).
"""

import json
import os
import time
from pathlib import Path

from repro.md.jobs import SimSpec
from repro.service import SimulationService
from repro.util.cpus import available_cpu_count

RESULTS_DIR = Path(__file__).parent / "results"

N_JOBS = int(os.environ.get("SERVICE_BENCH_JOBS", "6"))
STEPS = int(os.environ.get("SERVICE_BENCH_STEPS", "8"))
#: packed must beat serial by this factor — asserted only with >= 4 cores,
#: where lanes map onto real parallelism instead of time-slicing
MIN_PACKED_SPEEDUP = 1.15
MIN_CORES_FOR_GATE = 4


def _batch_specs() -> list[SimSpec]:
    """A mixed batch: mostly small jobs plus one heavier straggler."""
    specs = [
        SimSpec(waters=20 + 5 * (i % 3), steps=STEPS, seed=100 + i)
        for i in range(N_JOBS - 1)
    ]
    specs.append(SimSpec(waters=60, steps=STEPS, seed=99))
    return specs


def _run_batch(specs, lanes: int, workdir) -> float:
    """Wall seconds to run the whole batch on a service with ``lanes``."""
    svc = SimulationService(
        worker_slots=2, lanes=lanes, slice_steps=4, workdir=workdir
    )
    t0 = time.perf_counter()
    with svc:
        for i, spec in enumerate(specs):
            svc.submit(spec, job_id=f"bench-{i:02d}")
        svc.run_until_idle(timeout=1200)
        wall = time.perf_counter() - t0
        bad = [j.id for j in svc.jobs() if j.state.value != "completed"]
        assert not bad, f"jobs did not complete: {bad}"
    return wall


def test_service_throughput(tmp_path):
    specs = _batch_specs()
    cores = available_cpu_count()

    serial_wall = _run_batch(specs, lanes=1, workdir=tmp_path / "serial")
    packed_wall = _run_batch(specs, lanes=3, workdir=tmp_path / "packed")

    serial_jph = len(specs) / serial_wall * 3600.0
    packed_jph = len(specs) / packed_wall * 3600.0
    speedup = serial_wall / packed_wall

    result = {
        "n_jobs": len(specs),
        "steps_per_job": STEPS,
        "cpu_count": cores,
        "serial": {"wall_s": serial_wall, "jobs_per_hour": serial_jph},
        "packed": {
            "wall_s": packed_wall,
            "jobs_per_hour": packed_jph,
            "lanes": 3,
        },
        "speedup": speedup,
        "gated": cores >= MIN_CORES_FOR_GATE,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_service.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )

    lines = [
        "Simulation service throughput: packed vs serial",
        f"  {len(specs)} jobs x {STEPS} steps, host cores: {cores}",
        "",
        f"  {'mode':>8} {'wall s':>10} {'jobs/hour':>12}",
        f"  {'serial':>8} {serial_wall:>10.2f} {serial_jph:>12.0f}",
        f"  {'packed':>8} {packed_wall:>10.2f} {packed_jph:>12.0f}",
        "",
        f"  speedup (serial/packed): {speedup:.2f}x",
    ]
    if cores < MIN_CORES_FOR_GATE:
        lines.append(
            f"  NOTE: {cores}-core host — lanes time-slice one CPU, so this"
        )
        lines.append(
            "  measures scheduling overhead only; speedup gate skipped."
        )
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / "BENCH_service.txt").write_text(text)
    print("\n" + text)

    # completing every job with correct accounting is always asserted;
    # the throughput gate only where cores make it meaningful
    if cores >= MIN_CORES_FOR_GATE:
        assert speedup >= MIN_PACKED_SPEEDUP, (
            f"packed ran {speedup:.2f}x vs serial "
            f"(floor {MIN_PACKED_SPEEDUP}x on a {cores}-core host)"
        )
