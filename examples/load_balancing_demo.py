#!/usr/bin/env python
"""Measurement-based load balancing in action (paper §3.2).

Runs the bR-like vacuum protein — the paper's stress test for load
imbalance (all atoms concentrated in a few patches) — across the three LB
stages and compares the paper's strategy against the baselines.

Run:  python examples/load_balancing_demo.py
"""

from repro.builder.benchmarks import br_like
from repro.core import ParallelSimulation, SimulationConfig
from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL


def show_three_stage_cycle(problem) -> None:
    print("=== Three-stage LB cycle (paper §3.2) on bR @ 32 processors ===")
    cfg = SimulationConfig(n_procs=32)
    result = ParallelSimulation(problem.system, cfg, problem=problem).run()
    for phase in result.phases:
        t = phase.timings.time_per_step
        print(
            f"  after {phase.strategy_applied:>13}: {t * 1e3:8.2f} ms/step  "
            f"(imbalance x{phase.stats['imbalance_ratio']:.2f}, "
            f"{phase.stats['n_proxies']:.0f} proxies)"
        )
    print(f"  speedup: {result.speedup:.1f} on 32 processors\n")


def compare_strategies(problem) -> None:
    print("=== Strategy comparison @ 32 processors ===")
    print(f"{'strategy':>18} {'ms/step':>9} {'imbalance':>10} {'proxies':>8}")
    for schedule, label in [
        ((), "none (static)"),
        (("random",), "random"),
        (("round_robin",), "round robin"),
        (("greedy_load_only",), "load-only greedy"),
        (("greedy",), "paper greedy"),
        (("greedy+refine", "refine"), "greedy+refine"),
    ]:
        cfg = SimulationConfig(n_procs=32, lb_schedule=schedule)
        result = ParallelSimulation(problem.system, cfg, problem=problem).run()
        final = result.final
        print(
            f"{label:>18} {final.timings.time_per_step * 1e3:>9.2f} "
            f"x{final.stats['imbalance_ratio']:>9.2f} "
            f"{final.stats['n_proxies']:>8.0f}"
        )
    print()


def show_audit(problem) -> None:
    from repro.analysis.audit import performance_audit

    print("=== Performance audit (Table 1 style) @ 32 processors ===")
    cfg = SimulationConfig(n_procs=32)
    result = ParallelSimulation(problem.system, cfg, problem=problem).run()
    print(performance_audit(result).format())


if __name__ == "__main__":
    system = br_like()
    problem = DecomposedProblem.build(system, DEFAULT_COST_MODEL)
    print(f"bR-like system: {system.n_atoms} atoms, "
          f"{problem.decomposition.n_patches} patches, "
          f"{len(problem.descriptors)} compute objects\n")
    show_three_stage_cycle(problem)
    compare_strategies(problem)
    show_audit(problem)
