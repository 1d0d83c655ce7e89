#!/usr/bin/env python
"""Fault tolerance on the real parallel engine.

The supervised worker pool is the one runtime with failures, injected
into live OS processes: the demo runs a water box on the supervised
:class:`~repro.md.parallel.ParallelEngine`, SIGKILLs one worker and
SIGSTOPs another mid-run via a :class:`~repro.util.faults.FaultPlan`,
and shows that the supervisor detects each fault, respawns the worker, and
finishes with a trajectory **bit-identical** to an unfaulted run — the
payoff of task-ordered force reduction plus reference-position binning
(a respawned worker rebuilds the dead worker's pair lists mid-skin-window
from the shared reference positions, so the rebuild schedule never shifts).

Also demonstrated: an atomic disk checkpoint written mid-run, then a resume
from it that lands on the same trajectory.

Run:  python examples/resilience_demo.py
"""

import numpy as np

from repro.builder import small_water_box
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import ParallelEngine
from repro.pool import RecoveryPolicy
from repro.util.faults import FaultPlan
from repro.runtime.checkpoint import load_run_checkpoint, restore_run_checkpoint

WATERS = 600
OPTS = NonbondedOptions(cutoff=8.0)
STEPS = 6


def fresh_system():
    system = small_water_box(WATERS, seed=7, relax=False)
    system.assign_velocities(300.0, seed=5)
    return system


def run(fault=None, policy=None, **engine_kwargs):
    system = fresh_system()
    with ParallelEngine(
        system,
        options=OPTS,
        workers=2,
        timeout=30.0,
        fault_plan=fault,
        recovery=policy,
        **engine_kwargs,
    ) as engine:
        assert engine.parallel
        reports = engine.run(STEPS)
        resilience = engine.resilience
    return system, reports[-1].total, resilience


def main() -> None:
    print(f"{WATERS * 3} atoms, 2 workers, {STEPS} steps\n")

    print("clean run ...")
    clean_system, clean_energy, _ = run()

    print("faulted run: SIGKILL worker 1 at step 2, SIGSTOP worker 0 at step 4")
    fault = FaultPlan.parse("kill=1@2,hang=0@4")
    policy = RecoveryPolicy(respawn_backoff_s=0.01, hang_timeout_s=2.0)
    faulted_system, faulted_energy, res = run(fault=fault, policy=policy)

    print(f"\n  pool mode after recovery: {res.mode}")
    for ev in res.events:
        print(
            f"  step {ev.step}: worker {ev.worker} {ev.kind} -> {ev.action} "
            f"(detected in {ev.detection_s:.3f}s, healed in {ev.recovery_s:.3f}s)"
        )
    identical = np.array_equal(clean_system.positions, faulted_system.positions)
    print(f"\n  energy clean   : {clean_energy:+.10f} kcal/mol")
    print(f"  energy faulted : {faulted_energy:+.10f} kcal/mol")
    print(f"  trajectory bit-identical to the unfaulted run: {identical}")

    print("\ncheckpoint/resume: write at step 3, resume, continue to step", STEPS)
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ckpt"
        ckpt_system = fresh_system()
        with ParallelEngine(
            ckpt_system,
            options=OPTS,
            workers=2,
            timeout=30.0,
            checkpoint_every=3,
            checkpoint_path=path,
        ) as engine:
            engine.run(STEPS - 1)  # one checkpoint lands at step 3

        resumed_system = fresh_system()
        with ParallelEngine(
            resumed_system, options=OPTS, workers=2, timeout=30.0
        ) as engine:
            cp = load_run_checkpoint(path)
            restore_run_checkpoint(engine, cp)
            print(f"  resumed from step {cp.step}")
            engine.run(STEPS - 1 - cp.step)

        identical = np.array_equal(
            ckpt_system.positions, resumed_system.positions
        )
        print(f"  resumed trajectory bit-identical to checkpointed run: {identical}")


if __name__ == "__main__":
    main()
