"""Measurement-based balancing on a heterogeneous machine.

The paper's central methodological claim (§2.1): "a runtime system can
employ a measurement-based approach: it can measure the object computation
and communication patterns over a period of time, and base its object
remapping decisions on these measurements.  We have shown that such
measurement-based load balancing leads to accurate load predictions."

The cleanest falsifiable consequence: on a machine with *stragglers*
(externally loaded or slower processors, ref [3]) the cost model is wrong —
it predicts identical per-object times everywhere — so only a balancer fed
with *measured* loads can route work away from slow processors.
"""

import numpy as np
import pytest

from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.core.simulation import (
    ParallelSimulation,
    SimulationConfig,
)
from repro.runtime.machine import MachineModel
from repro.runtime.scheduler import Scheduler


class TestSchedulerSpeedFactors:
    def test_validation(self):
        m = MachineModel("m", 1.0, 0, 0, 0, 0, 1e9)
        with pytest.raises(ValueError):
            Scheduler(2, m, proc_speed_factors=np.array([1.0]))
        with pytest.raises(ValueError):
            Scheduler(2, m, proc_speed_factors=np.array([1.0, 0.0]))

    def test_slow_processor_takes_longer(self):
        from repro.runtime.chare import Chare

        m = MachineModel("m", 1.0, 0, 0, 0, 0, 1e30, local_send_overhead_s=0)

        class Worker(Chare):
            def go(self):
                return 1.0

        sched = Scheduler(2, m, proc_speed_factors=np.array([1.0, 3.0]))
        a, b = Worker(), Worker()
        oa, ob = sched.register(a, 0), sched.register(b, 1)
        sched.inject(oa, "go", {})
        sched.inject(ob, "go", {})
        sched.run()
        busy = sched.trace.summary().busy_time_per_proc
        assert busy[1] == pytest.approx(3.0 * busy[0])


class TestStragglerBalancing:
    @pytest.fixture(scope="class")
    def problem(self, request):
        assembly = request.getfixturevalue("assembly")
        return DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)

    def run(self, problem, use_measured: bool):
        # two of eight processors run at one third speed
        factors = np.ones(8)
        factors[1] = 3.0
        factors[5] = 3.0
        cfg = SimulationConfig(
            n_procs=8,
            use_measured_loads=use_measured,
            proc_speed_factors=factors,
            lb_schedule=("greedy+refine", "refine", "refine"),
        )
        return ParallelSimulation(problem.system, cfg, problem=problem).run()

    def test_measured_loads_beat_model_loads_with_stragglers(self, problem):
        measured = self.run(problem, use_measured=True)
        model = self.run(problem, use_measured=False)
        assert measured.time_per_step < model.time_per_step

    def test_measured_lb_still_improves_over_static(self, problem):
        measured = self.run(problem, use_measured=True)
        assert (
            measured.time_per_step
            < measured.phases[0].timings.time_per_step
        )
