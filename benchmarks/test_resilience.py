"""Fault-tolerance benchmark: recovery overhead on the real engine.

Runs the supervised :class:`~repro.md.parallel.ParallelEngine` over the
same water box four times — clean, with a SIGKILL'd worker, with a hung
(SIGSTOP'd) worker, and with a 5x slowdown window — and measures what each
fault costs relative to the clean run.  Every faulted trajectory must end
at the same total energy as the clean one: recovery is bit-identical by
construction (task-ordered reduction + reference-position binning), and
this benchmark is where that claim meets the wall clock.

The acceptance gate (amortized kill-recovery overhead ≤ 25% of the clean
steady-state step time) is asserted only on multi-core hosts: on a single
core the respawned worker's catch-up work serializes with the driver, so
the overhead measures the CPU, not the supervisor.  Hang-recovery overhead
is reported but not gated — detection latency is dominated by the hang
threshold (a policy choice), not by recovery machinery.

Results land in ``benchmarks/results/BENCH_resilience.json`` (+ ``.txt``)
and the per-event recovery log in ``RECOVERY_resilience.log``.
Environment knobs for CI: ``RESILIENCE_BENCH_WORKERS`` (default ``4``)
and ``RESILIENCE_BENCH_STEPS`` (default ``8``).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.builder import small_water_box
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine
from repro.pool import HAS_POSIX_SIGNALS, RecoveryPolicy
from repro.util.faults import FaultPlan

pytestmark = pytest.mark.skipif(
    not (HAS_SHARED_MEMORY and HAS_POSIX_SIGNALS),
    reason="needs shared memory and POSIX signals",
)

RESULTS_DIR = Path(__file__).parent / "results"

WATERS = 600  # 1,800 atoms: enough tasks for 4 workers, fast enough for CI
CUTOFF = 8.0
WORKERS = int(os.environ.get("RESILIENCE_BENCH_WORKERS", "4"))
STEPS = int(os.environ.get("RESILIENCE_BENCH_STEPS", "8"))
FAULT_STEP = 3  # evaluation the fault lands on (after EWMA has settled)
#: kill-recovery overhead budget, as a fraction of clean steady-state step
#: time, amortized over the run; gated only when cores can actually overlap
MAX_KILL_OVERHEAD_FRACTION = 0.25

POLICY = RecoveryPolicy(respawn_backoff_s=0.01, hang_timeout_s=2.0)

SCENARIOS = [
    ("clean", ""),
    ("kill", f"kill=1@{FAULT_STEP}"),
    ("hang", f"hang=0@{FAULT_STEP}"),
    ("slow", f"slow=1@{FAULT_STEP}-{FAULT_STEP + 2}x5"),
]


def _fresh_system():
    system = small_water_box(WATERS, seed=11, relax=False)
    system.assign_velocities(300.0, seed=11)
    return system


def _run_scenario(spec: str) -> dict:
    plan = FaultPlan.parse(spec) if spec else None
    with ParallelEngine(
        _fresh_system(),
        NonbondedOptions(cutoff=CUTOFF),
        workers=WORKERS,
        timeout=60.0,
        fault_plan=plan,
        recovery=POLICY,
    ) as engine:
        assert engine.parallel, "pool fell back before the benchmark started"
        engine.step()  # warmup: first force eval + pairlist build
        t0 = time.perf_counter()
        reports = engine.run(STEPS)
        wall = time.perf_counter() - t0
        res = engine.resilience
        return {
            "wall_s": wall,
            "step_s": wall / STEPS,
            "total_energy": reports[-1].total,
            "mode": res.mode,
            "live_workers": engine.workers,
            "resilience": res.to_dict(),
        }


def test_resilience_benchmark():
    runs = {name: _run_scenario(spec) for name, spec in SCENARIOS}
    clean = runs["clean"]

    # physics gate: every recovered trajectory ends where the clean one does
    for name in ("kill", "hang", "slow"):
        got, want = runs[name]["total_energy"], clean["total_energy"]
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (
            f"{name}: recovered energy {got} != clean {want}"
        )
    assert runs["kill"]["resilience"]["kills_detected"] == 1
    assert runs["hang"]["resilience"]["hangs_detected"] == 1
    assert runs["slow"]["resilience"]["events"] == []

    rows = []
    for name, spec in SCENARIOS:
        run = runs[name]
        overhead = (run["wall_s"] - clean["wall_s"]) / STEPS
        rows.append(
            {
                "scenario": name,
                "fault_plan": spec,
                "wall_s": round(run["wall_s"], 4),
                "step_s": round(run["step_s"], 4),
                "overhead_per_step_s": round(overhead, 4),
                "overhead_fraction": round(overhead / clean["step_s"], 3),
                "mode": run["mode"],
                "live_workers": run["live_workers"],
                "recovery_time_s": round(
                    run["resilience"]["recovery_time_s"], 4
                ),
                "respawns": run["resilience"]["respawns"],
                "bit_identical_energy": run["total_energy"]
                == clean["total_energy"],
            }
        )

    multi_core = (os.cpu_count() or 1) >= 2
    kill_row = next(r for r in rows if r["scenario"] == "kill")
    if multi_core:
        assert kill_row["overhead_fraction"] <= MAX_KILL_OVERHEAD_FRACTION, (
            f"kill recovery cost {kill_row['overhead_fraction']:.0%} of a "
            f"step (budget {MAX_KILL_OVERHEAD_FRACTION:.0%})"
        )

    payload = {
        "system": {"n_atoms": WATERS * 3, "cutoff_A": CUTOFF},
        "protocol": {
            "workers": WORKERS,
            "measured_steps": STEPS,
            "fault_step": FAULT_STEP,
            "policy": {
                "max_respawns": POLICY.max_respawns,
                "respawn_backoff_s": POLICY.respawn_backoff_s,
                "hang_timeout_s": POLICY.hang_timeout_s,
            },
        },
        "host": {"cpu_count": os.cpu_count()},
        "gate": {
            "max_kill_overhead_fraction": MAX_KILL_OVERHEAD_FRACTION,
            "enforced": multi_core,
        },
        "scenarios": rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_resilience.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    log_lines = []
    for name, _spec in SCENARIOS:
        for ev in runs[name]["resilience"]["events"]:
            log_lines.append(
                f"{name}: step {ev['step']} worker {ev['worker']} "
                f"{ev['kind']} -> {ev['action']} "
                f"(detected {ev['detection_s']:.3f}s, "
                f"recovered {ev['recovery_s']:.3f}s, "
                f"{ev['tasks_moved']} tasks moved) {ev['detail']}".rstrip()
            )
    (RESULTS_DIR / "RECOVERY_resilience.log").write_text(
        "\n".join(log_lines) + "\n" if log_lines else "no recovery events\n"
    )

    lines = [
        "Fault-tolerance benchmark (wall-clock on this host)",
        "",
        f"{WATERS * 3} atoms, {WORKERS} workers, {STEPS} measured steps, "
        f"{os.cpu_count()} CPU core(s); "
        f"gate {'enforced' if multi_core else 'reported only (single core)'}",
        "",
        f"  {'scenario':>8} {'step_s':>8} {'overhead':>9} {'mode':>10} "
        f"{'respawns':>9} {'bitwise':>8}",
    ]
    for row in rows:
        lines.append(
            f"  {row['scenario']:>8} {row['step_s']:>8.4f} "
            f"{row['overhead_fraction']:>8.0%} {row['mode']:>10} "
            f"{row['respawns']:>9} {str(row['bit_identical_energy']):>8}"
        )
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / "BENCH_resilience.txt").write_text(text)
    print("\n" + text)
