#!/usr/bin/env python
"""Why *measurement-based* load balancing (paper §2.1, ref [3]).

Runs the mini assembly on a simulated 8-processor cluster where two
processors run at one-third speed (external load / slower nodes).  The
cost model cannot know this — it predicts identical object times on every
processor — so a balancer fed model loads keeps overloading the
stragglers, while the measurement-fed balancer sees the inflated object
times and routes work away, exactly the paper's argument:

    "a runtime system can employ a measurement-based approach: it can
    measure the object computation and communication patterns over a
    period of time, and base its object remapping decisions on these
    measurements"

Run:  python examples/straggler_demo.py
"""

import numpy as np

from repro.builder.benchmarks import mini_assembly
from repro.core import ParallelSimulation, SimulationConfig
from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL


def run(problem, use_measured: bool, factors):
    cfg = SimulationConfig(
        n_procs=8,
        use_measured_loads=use_measured,
        proc_speed_factors=factors,
        lb_schedule=("greedy+refine", "refine", "refine"),
    )
    return ParallelSimulation(problem.system, cfg, problem=problem).run()


def main() -> None:
    system = mini_assembly()
    problem = DecomposedProblem.build(system, DEFAULT_COST_MODEL)
    factors = np.ones(8)
    factors[1] = factors[5] = 3.0
    print("8 simulated processors; procs 1 and 5 run at 1/3 speed\n")
    print(f"{'balancer input':>18} {'ms/step':>9} {'phase trajectory (ms)':>40}")
    for use_measured, label in ((False, "cost model"), (True, "measurements")):
        res = run(problem, use_measured, factors)
        trajectory = " -> ".join(
            f"{p.timings.time_per_step * 1e3:.1f}" for p in res.phases
        )
        print(f"{label:>18} {res.time_per_step * 1e3:>9.2f} {trajectory:>40}")
    print(
        "\nThe measured-load balancer converges to a faster steady state by"
        "\nmigrating work off the stragglers that only measurement reveals."
    )


if __name__ == "__main__":
    main()
