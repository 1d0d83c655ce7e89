#!/usr/bin/env python
"""Projections-style timeline views and the multicast optimization
(paper §4.1, §4.2.3, Figures 3-4).

Runs the mini assembly twice on a simulated 8-processor machine — once with
the naive multicast (pack per destination) and once with the optimized one
(pack once) — and renders Upshot-style timelines of the same step window so
the shortened integration blocks are visible, as in Figures 3 vs 4.

Run:  python examples/projections_timeline.py
"""

from repro.analysis.timeline import render_timeline
from repro.builder.benchmarks import mini_assembly
from repro.core import ParallelSimulation, SimulationConfig
from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL


def run(problem, optimized: bool):
    cfg = SimulationConfig(
        n_procs=8,
        optimized_multicast=optimized,
        trace_final_phase=True,
    )
    return ParallelSimulation(problem.system, cfg, problem=problem).run()


def main() -> None:
    system = mini_assembly()
    problem = DecomposedProblem.build(system, DEFAULT_COST_MODEL)

    for optimized in (False, True):
        result = run(problem, optimized)
        trace = result.final.trace
        times = result.final.timings.completion_times
        t0, t1 = times[-3], times[-1]  # a two-step window, as in the paper
        label = "optimized" if optimized else "naive"
        print(f"--- {label} multicast: "
              f"{result.time_per_step * 1e3:.2f} ms/step ---")
        print(render_timeline(trace, procs=list(range(8)), t0=t0, t1=t1,
                              width=96))
        summary = result.final.summary
        integ = summary.time_per_category.get("integration", 0.0)
        send = summary.send_overhead_per_proc.sum()
        print(f"integration work {integ * 1e3:.2f} ms, "
              f"send/pack overhead {send * 1e3:.2f} ms "
              f"(over {result.config.steps_per_phase} steps)\n")


if __name__ == "__main__":
    main()
