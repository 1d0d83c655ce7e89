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
2. message-level faults (drop/delay/duplicate) degrade timing but never
   correctness, and the whole schedule is reproducible from one seed.

The simulated machine models time, not positions.  That recovery keeps the
*physics* — the recovered trajectory bit-identical to the unfaulted one —
is shown on the real engine with live worker processes by
``examples/resilience_demo.py``.

Run:  python examples/fault_tolerance_demo.py
"""

from repro.builder import mini_assembly
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


def message_fault_demo() -> None:
    print()
    print("=" * 72)
    print("2. Graceful degradation under message faults (timing mode)")
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
    message_fault_demo()
    print("\nAll fault-tolerance invariants hold.")


if __name__ == "__main__":
    main()
