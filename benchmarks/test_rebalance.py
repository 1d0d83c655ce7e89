"""Measurement-based rebalancing benchmark: static vs. rebalanced map.

The load-balancing analogue of the parallel-engine benchmark: the skewed
water box (2x density step along x) run with an injected 2x slowdown on
worker 0, once with the static cost-model assignment
(``rebalance_every=0``) and once with the paper's greedy+refine schedule.
Both runs integrate the *same* trajectory — the engine's reduction is
assignment-independent — so the comparison isolates scheduling quality:
steps/sec and the measured max/mean worker-load ratio.

On a single-core host workers time-share one CPU and migrating tasks
cannot raise throughput, so the >= 1.25x speedup floor is only asserted
when ``os.cpu_count() >= 2`` (the host context is recorded either way).
The load-ratio improvement — skew and slowdown absorbed into a near-flat
profile — is asserted unconditionally.

Results land in ``benchmarks/results/BENCH_rebalance.json`` (+ ``.txt``).
Environment knobs for CI: ``REBALANCE_BENCH_WATERS`` (default ``400``),
``REBALANCE_BENCH_STEPS`` (default ``100``) and ``REBALANCE_BENCH_EVERY``
(default ``50``).
"""

import json
import os
import time
from pathlib import Path

from repro.builder import skewed_water_box
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import ParallelEngine

RESULTS_DIR = Path(__file__).parent / "results"

WATERS = int(os.environ.get("REBALANCE_BENCH_WATERS", "400"))
CUTOFF = 8.0
SKEW = 2.0
FAULT_PLAN = "slow=0@0-infx2"  # worker 0 runs 2x slower throughout
WORKERS = 2
WARMUP_STEPS = 1
MEASURE_STEPS = int(os.environ.get("REBALANCE_BENCH_STEPS", "100"))
REBALANCE_EVERY = int(os.environ.get("REBALANCE_BENCH_EVERY", "50"))
#: acceptance floor for the rebalanced configuration on a multi-core host
MIN_SPEEDUP = 1.25


def _fresh_system():
    system = skewed_water_box(WATERS, seed=11, skew=SKEW, relax=False)
    system.assign_velocities(300.0, seed=11)
    return system


def _measure(rebalance_every: int) -> dict:
    with ParallelEngine(
        _fresh_system(),
        NonbondedOptions(cutoff=CUTOFF),
        VelocityVerlet(dt=1.0),
        workers=WORKERS,
        rebalance_every=rebalance_every,
        fault_plan=FAULT_PLAN,
    ) as engine:
        engine.run(WARMUP_STEPS)
        t0 = time.perf_counter()
        reports = engine.run(MEASURE_STEPS)
        wall = time.perf_counter() - t0
        loads = engine._nb.worker_loads()
        return {
            "rebalance_every": rebalance_every,
            "workers_live": engine.workers,
            "parallel_pool": engine.parallel,
            "steps_per_sec": round(MEASURE_STEPS / wall, 4),
            "max_worker_load_ms": round(float(loads.max()) * 1e3, 4),
            "mean_worker_load_ms": round(float(loads.mean()) * 1e3, 4),
            "max_over_mean_load": round(float(loads.max() / loads.mean()), 4),
            "n_rebalances": engine._nb.n_rebalances,
            "remap_steps": engine.remap_steps,
            "total_energy": reports[-1].total,
        }


def test_rebalance_benchmark():
    static = _measure(0)
    rebalanced = _measure(REBALANCE_EVERY)
    speedup = rebalanced["steps_per_sec"] / static["steps_per_sec"]

    payload = {
        "system": {
            "n_atoms": WATERS * 3,
            "cutoff_A": CUTOFF,
            "density_skew": SKEW,
            "dt_fs": 1.0,
        },
        "protocol": {
            "warmup_steps": WARMUP_STEPS,
            "measured_steps": MEASURE_STEPS,
            "workers": WORKERS,
            "injected_slowdown": FAULT_PLAN,
        },
        "host": {"cpu_count": os.cpu_count()},
        "static": static,
        "rebalanced": rebalanced,
        "speedup_rebalanced_vs_static": round(speedup, 3),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_rebalance.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    lines = [
        "Rebalancing benchmark (skewed box, 2x-slowed worker 0)",
        "",
        f"{WATERS * 3} atoms at {CUTOFF} A cutoff, {MEASURE_STEPS} measured"
        f" steps, {os.cpu_count()} CPU core(s)",
        "",
        f"  {'config':>16} {'steps/sec':>10} {'max load':>10} {'max/mean':>9}",
    ]
    for label, row in (("static", static), ("rebalanced", rebalanced)):
        lines.append(
            f"  {label:>16} {row['steps_per_sec']:>10.4f} "
            f"{row['max_worker_load_ms']:>8.2f}ms {row['max_over_mean_load']:>9.3f}"
        )
    lines.append(f"\n  speedup: {speedup:.3f}x")
    (RESULTS_DIR / "BENCH_rebalance.txt").write_text("\n".join(lines) + "\n")

    # physics gate: rebalancing must not change the trajectory at all
    assert abs(rebalanced["total_energy"] - static["total_energy"]) <= 1e-9 * abs(
        static["total_energy"]
    ), "rebalanced run diverged from the static trajectory"

    assert static["n_rebalances"] == 0
    assert rebalanced["n_rebalances"] >= 1, "no LB decision in the measured window"
    assert rebalanced["remap_steps"], "rebalancing moved no tasks"

    # scheduling-quality gate: the measured worker-load profile must flatten
    assert rebalanced["max_over_mean_load"] < static["max_over_mean_load"], (
        f"rebalancing did not flatten the load profile: "
        f"{rebalanced['max_over_mean_load']} vs static {static['max_over_mean_load']}"
    )

    if (os.cpu_count() or 1) >= 2 and rebalanced["parallel_pool"]:
        assert speedup >= MIN_SPEEDUP, (
            f"rebalanced speedup {speedup:.2f}x below the {MIN_SPEEDUP}x floor"
        )
