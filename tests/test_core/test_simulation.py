"""The full parallel simulation: protocol completion, LB improvement,
scaling behaviour, configuration validation."""

import numpy as np
import pytest

from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.core.simulation import (
    ParallelSimulation,
    SimulationConfig,
)
from repro.runtime.machine import ASCI_RED, T3E_900


@pytest.fixture(scope="module")
def assembly_problem(request):
    assembly = request.getfixturevalue("assembly")
    return DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)


class TestConfigValidation:
    def test_rejects_bad_procs(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_procs=0)

    def test_rejects_bad_measure_window(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_procs=1, steps_per_phase=3, measure_last=5)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_procs=1, lb_schedule=("nonsense",))

    def test_combo_strategy_accepted(self):
        SimulationConfig(n_procs=1, lb_schedule=("greedy+refine",))

    @pytest.mark.parametrize("field", ["numeric", "dt"])
    def test_models_time_not_positions(self, field):
        # the simulator carries loads; it has no position-advancing mode
        # to switch on, so neither a numeric flag nor a timestep is settable
        with pytest.raises(TypeError, match=field):
            SimulationConfig(n_procs=1, **{field: 1.0})

    @pytest.mark.parametrize(
        "field", ["fault_plan", "checkpoint_interval", "failure_detection_timeout"]
    )
    def test_models_no_failures(self, field):
        # a loaded machine is proc_speed_factors; processor failures and
        # their recovery are the supervised pool's, so none is settable here
        with pytest.raises(TypeError, match=field):
            SimulationConfig(n_procs=1, **{field: 1})


class TestProtocol:
    def test_all_steps_complete(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=4, steps_per_phase=5, measure_last=2)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        for ph in res.phases:
            assert len(ph.timings.completion_times) == 5

    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_every_phase_runs_its_rounds_in_order(
        self, assembly, assembly_problem, steps
    ):
        """A phase is one run of ``steps`` rounds: each completes, after
        the one before it."""
        cfg = SimulationConfig(
            n_procs=4, steps_per_phase=steps, measure_last=1,
            lb_schedule=("greedy+refine",),
        )
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        assert len(res.phases) == 2
        for ph in res.phases:
            times = ph.timings.completion_times
            assert len(times) == steps
            assert times[0] > 0 and np.all(np.diff(times) > 0)

    def test_phase_count_follows_schedule(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=2, lb_schedule=("greedy+refine", "refine"))
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        assert len(res.phases) == 3
        assert res.phases[0].strategy_applied == "static"
        assert res.phases[1].strategy_applied == "greedy+refine"
        assert res.phases[2].strategy_applied == "refine"

    def test_single_processor_matches_sequential_reference(
        self, assembly, assembly_problem
    ):
        cfg = SimulationConfig(n_procs=1, lb_schedule=())
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        # on one processor there is no remote messaging: only local overheads
        assert res.time_per_step == pytest.approx(res.sequential_reference_s, rel=0.05)

    def test_fault_free_phases_reproduce_pinned_completion_times(
        self, assembly, assembly_problem
    ):
        """Each phase's completion times are pinned bit for bit
        (float.hex)."""
        cfg = SimulationConfig(
            n_procs=4, steps_per_phase=5, measure_last=2,
            lb_schedule=("greedy+refine", "refine"),
        )
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        static = [
            "0x1.5e1f97cd9f3edp-2", "0x1.584a6565874e5p-1",
            "0x1.00c27f721f7eap+0", "0x1.555fcc317b5bdp+0",
            "0x1.a8fe32ab8baf0p+0",
        ]
        balanced = [
            "0x1.f9542426b226cp-3", "0x1.ed8879068bda4p-2",
            "0x1.6edf1eb1fabbdp-1", "0x1.e6fa00e0af8a8p-1",
            "0x1.2f0f0b7ac29a7p+0",
        ]
        assert [
            [float(t).hex() for t in ph.timings.completion_times]
            for ph in res.phases
        ] == [static, balanced, balanced]

    def test_step_times_positive_and_steady(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=4)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        diffs = res.final.timings.step_times
        assert np.all(diffs > 0)
        tail = diffs[-3:]
        assert tail.max() / tail.min() < 1.5  # steady state


class TestLoadBalancing:
    def test_lb_improves_step_time(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=6)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        static = res.phases[0].timings.time_per_step
        balanced = res.final.timings.time_per_step
        assert balanced < static

    def test_lb_reduces_imbalance_metric(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=6)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        assert (
            res.final.stats["imbalance_ratio"]
            <= res.phases[0].stats["imbalance_ratio"] + 1e-9
        )

    def test_measured_loads_populated(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=4)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        ph = res.phases[0]
        assert len(ph.measured_loads) > 0
        assert all(v >= 0 for v in ph.measured_loads.values())

    def test_model_load_mode(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=4, use_measured_loads=False)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        assert res.time_per_step > 0


class TestScaling:
    def test_speedup_grows_with_processors(self, assembly, assembly_problem):
        speeds = []
        for procs in (1, 2, 4, 8):
            cfg = SimulationConfig(n_procs=procs)
            res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
            speeds.append(res.speedup)
        assert speeds == sorted(speeds)
        assert speeds[-1] > 4.0

    def test_more_processors_than_patches_still_works(
        self, assembly, assembly_problem
    ):
        """8 patches, 16 processors: grainsize splitting lets the balancer
        use the patchless processors (the paper's whole point)."""
        cfg = SimulationConfig(n_procs=16)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        cfg1 = SimulationConfig(n_procs=8)
        res8 = ParallelSimulation(assembly, cfg1, problem=assembly_problem).run()
        assert res.time_per_step < res8.time_per_step

    def test_faster_machine_faster_steps(self, assembly, assembly_problem):
        r_red = ParallelSimulation(
            assembly, SimulationConfig(n_procs=4, machine=ASCI_RED),
            problem=assembly_problem,
        ).run()
        r_t3e = ParallelSimulation(
            assembly, SimulationConfig(n_procs=4, machine=T3E_900),
            problem=assembly_problem,
        ).run()
        assert r_t3e.time_per_step < r_red.time_per_step

    def test_gflops_computed(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=4)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        assert res.gflops > 0
        assert res.flops_per_step > 1e6


class TestOptimizationToggles:
    def test_naive_multicast_not_faster(self, assembly, assembly_problem):
        """At identical placement (no LB divergence) the naive multicast can
        only add packing work, never remove it."""
        opt = ParallelSimulation(
            assembly,
            SimulationConfig(n_procs=8, optimized_multicast=True, lb_schedule=()),
            problem=assembly_problem,
        ).run()
        naive = ParallelSimulation(
            assembly,
            SimulationConfig(n_procs=8, optimized_multicast=False, lb_schedule=()),
            problem=assembly_problem,
        ).run()
        assert naive.time_per_step >= opt.time_per_step * 0.999

    def test_trace_final_phase(self, assembly, assembly_problem):
        cfg = SimulationConfig(n_procs=2, trace_final_phase=True)
        res = ParallelSimulation(assembly, cfg, problem=assembly_problem).run()
        assert res.final.trace is not None
        assert len(res.final.trace.records) > 0
        assert res.phases[0].trace is None
