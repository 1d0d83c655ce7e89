#!/usr/bin/env python
"""Fault-tolerant runtime: kill a processor mid-run, finish anyway (extension).

The paper's runtime assumptions (migratable objects, measurement-based
load database, message-driven scheduling) are exactly the ingredients of
the in-memory double-checkpointing protocols later built on Charm++.
This demo exercises the reproduction's resilience layer:

1. a deterministic fail-stop fault kills one simulated processor mid-run;
   the runtime detects it, restores the latest surviving checkpoint onto
   the buddy processors, rebalances around the dead processor, and
   replays — the run completes with one fewer processor;
2. the headline invariant: with real kernels (numeric mode), the
   recovered trajectory matches the fault-free one to ~1e-15 — recovery
   is bit-for-bit up to floating-point reassociation;
3. message-level faults (drop/delay/duplicate) degrade timing but never
   correctness, and the whole schedule is reproducible from one seed.

Run:  python examples/fault_tolerance_demo.py
"""

import numpy as np

from repro.builder import mini_assembly, small_water_box
from repro.core import ParallelSimulation, SimulationConfig
from repro.util.faults import FaultPlan


def timing_demo() -> None:
    print("=" * 72)
    print("1. Surviving a processor failure (timing mode, mini assembly)")
    print("=" * 72)
    system = mini_assembly()

    base = dict(n_procs=8, lb_schedule=("greedy+refine", "refine"))
    clean = ParallelSimulation(system, SimulationConfig(**base)).run()
    print(f"fault-free      : {clean.time_per_step * 1e3:8.2f} ms/step")

    # kill processor 3 partway through; checkpoint every 2 rounds
    plan = FaultPlan.parse(f"seed=11,kill=3@{clean.time_per_step * 2:.6f}")
    cfg = SimulationConfig(**base, fault_plan=plan, checkpoint_interval=2)
    res = ParallelSimulation(system, cfg).run()
    rec = res.recovery
    print(f"with proc death : {res.time_per_step * 1e3:8.2f} ms/step "
          f"(finished on {cfg.n_procs - len(res.dead_procs)} live procs)")
    print(f"  dead processors      {list(res.dead_procs)}")
    print(f"  checkpoints taken    {rec.checkpoints_taken}"
          f" ({rec.checkpoint_time_s * 1e3:.2f} ms modeled)")
    print(f"  detection latency    {rec.detection_latency_s * 1e3:.3f} ms")
    print(f"  steps replayed       {rec.steps_replayed}")
    print(f"  recovery wall-clock  {rec.recovery_time_s * 1e3:.2f} ms")
    assert res.dead_procs, "the injected failure should have fired"
    assert all(p not in res.dead_procs for p in res.final.placement.values())


def numeric_invariant_demo() -> None:
    print()
    print("=" * 72)
    print("2. Recovery preserves the trajectory (numeric mode, 100 waters)")
    print("=" * 72)
    system = small_water_box(100, seed=4)
    system.assign_velocities(300.0, seed=9)

    base = dict(
        n_procs=4, numeric=True, dt=1.0, cutoff=6.0,
        lb_schedule=(), steps_per_phase=6, measure_last=1,
    )
    ref = ParallelSimulation(system, SimulationConfig(**base)).run_phase_only()
    ref_pos = ref.backend.positions.copy()
    ref_vel = ref.backend.velocities.copy()

    # kill a processor just before round 3 completes
    t_kill = ref.timings.completion_times[2] * 0.9
    plan = FaultPlan.parse(f"seed=5,kill=1@{t_kill:.9f}")
    cfg = SimulationConfig(**base, fault_plan=plan, checkpoint_interval=2)
    faulted = ParallelSimulation(system, cfg).run_phase_only()

    dpos = np.abs(faulted.backend.positions - ref_pos).max()
    dvel = np.abs(faulted.backend.velocities - ref_vel).max()
    print(f"processor 1 killed at t={t_kill * 1e3:.3f} ms "
          f"(steps replayed: {faulted.recovery.steps_replayed})")
    print(f"max |delta position| vs fault-free : {dpos:.3e} A")
    print(f"max |delta velocity| vs fault-free : {dvel:.3e} A/fs")
    ok = np.allclose(faulted.backend.positions, ref_pos,
                     rtol=1e-12, atol=1e-12)
    print(f"identical within 1e-12             : {ok}")
    assert ok and dvel < 1e-12


def message_fault_demo() -> None:
    print()
    print("=" * 72)
    print("3. Graceful degradation under message faults (timing mode)")
    print("=" * 72)
    system = mini_assembly()
    base = dict(n_procs=8, lb_schedule=("greedy+refine",))

    clean = ParallelSimulation(system, SimulationConfig(**base)).run()
    rows = [("none", clean, None)]
    for spec in ("seed=3,drop=0.02", "seed=3,drop=0.02,delay=0.05@1e-4,dup=0.02"):
        plan = FaultPlan.parse(spec)
        cfg = SimulationConfig(**base, fault_plan=plan)
        rows.append((spec, ParallelSimulation(system, cfg).run(), plan))

    print(f"{'fault spec':>44} {'ms/step':>9}  dropped/delayed/duplicated")
    for spec, res, plan in rows:
        rec = res.recovery
        counts = ("-" if plan is None else
                  f"{rec.messages_dropped}/{rec.messages_delayed}"
                  f"/{rec.messages_duplicated}")
        print(f"{spec:>44} {res.time_per_step * 1e3:>9.2f}  {counts}")

    # determinism: the same seed reproduces the same run exactly
    cfg = SimulationConfig(**base, fault_plan=rows[-1][2])
    again = ParallelSimulation(system, cfg).run()
    same = again.time_per_step == rows[-1][1].time_per_step
    print(f"\nsame seed, same run twice -> identical step time: {same}")
    assert same


def main() -> None:
    timing_demo()
    numeric_invariant_demo()
    message_fault_demo()
    print("\nAll fault-tolerance invariants hold.")


if __name__ == "__main__":
    main()
