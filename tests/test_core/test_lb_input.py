"""The simulator's load-balancer input (paper §2.2): the scheduler's load
sums become per-step loads in ``_collect_phase``, and ``_build_problem``
turns them into the strategy-facing :class:`LBProblem`."""

import numpy as np
import pytest

from repro.core.problem import DecomposedProblem
from repro.core.simulation import ParallelSimulation, SimulationConfig
from repro.costmodel.model import DEFAULT_COST_MODEL


@pytest.fixture(scope="module")
def assembly_problem(request):
    assembly = request.getfixturevalue("assembly")
    return DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)


def simulation(assembly, problem, **overrides):
    cfg = SimulationConfig(n_procs=4, lb_schedule=(), **overrides)
    return ParallelSimulation(assembly, cfg, problem=problem)


def split_busy_time(sim, phase):
    """Per-step busy seconds as the problem sees them: the non-migratable
    background plus every migratable compute's measured load."""
    migratable = sum(
        load
        for index, load in phase.measured_loads.items()
        if sim.descriptors[index].migratable
    )
    return float(phase.background_per_step.sum()) + migratable


class TestCollectPhase:
    def test_loads_are_per_step(self, assembly, assembly_problem):
        """Every round does the same work, so a phase twice as long measures
        the same per-step loads."""
        short = simulation(assembly, assembly_problem, steps_per_phase=4)
        long = simulation(assembly, assembly_problem, steps_per_phase=8)
        a, b = short.run_phase_only(), long.run_phase_only()
        assert a.measured_loads.keys() == b.measured_loads.keys()
        for index, load in a.measured_loads.items():
            assert b.measured_loads[index] == pytest.approx(load, rel=1e-12)
        np.testing.assert_allclose(
            b.background_per_step, a.background_per_step, rtol=1e-12
        )

    def test_busy_time_splits_into_compute_loads_and_background(
        self, assembly, assembly_problem
    ):
        """Each busy second is either a migratable compute's or background:
        nothing is counted twice and nothing is dropped."""
        sim = simulation(assembly, assembly_problem, steps_per_phase=4)
        phase = sim.run_phase_only()
        busy = float(phase.summary.busy_time_per_proc.sum())
        assert split_busy_time(sim, phase) == pytest.approx(busy / 4, rel=1e-12)
        assert np.all(phase.background_per_step > 0.0)
        assert set(phase.measured_loads) == {d.index for d in sim.descriptors}


class TestBuildProblem:
    @pytest.fixture()
    def sim(self, assembly, assembly_problem):
        return simulation(assembly, assembly_problem)

    def test_one_compute_per_migratable_descriptor(self, sim):
        problem = sim._build_problem(
            sim.initial_placement, {}, np.zeros(sim.config.n_procs)
        )
        migratable = [d.index for d in sim.descriptors if d.migratable]
        assert [c.index for c in problem.computes] == migratable
        assert len(migratable) < len(sim.descriptors)

    def test_measured_load_replaces_cost_model_load(self, sim):
        """One measured phase fully replaces the cost model: a measured
        compute carries its measurement exactly, an unmeasured one its
        cost-model load on this machine."""
        first, second = [d for d in sim.descriptors if d.migratable][:2]
        problem = sim._build_problem(
            sim.initial_placement, {first.index: 1.25e-3},
            np.zeros(sim.config.n_procs),
        )
        loads = {c.index: c.load for c in problem.computes}
        assert loads[first.index] == 1.25e-3
        assert loads[second.index] == second.load * sim.config.machine.cpu_factor

    def test_model_loads_when_measurements_are_off(
        self, assembly, assembly_problem
    ):
        sim = simulation(assembly, assembly_problem, use_measured_loads=False)
        measured = {d.index: 1.0 for d in sim.descriptors}
        problem = sim._build_problem(
            sim.initial_placement, measured, np.zeros(sim.config.n_procs)
        )
        cpu = sim.config.machine.cpu_factor
        by_index = {d.index: d for d in sim.descriptors}
        assert all(
            c.load == by_index[c.index].load * cpu for c in problem.computes
        )

    def test_fixed_computes_pin_proxies(self, sim):
        """A non-migratable compute needs every remote patch it reads on its
        home processor; strategies may reuse those proxies for free."""
        problem = sim._build_problem(
            sim.initial_placement, {}, np.zeros(sim.config.n_procs)
        )
        home = sim.patch_proc
        expected = {
            (q, int(home[d.home_patch]))
            for d in sim.descriptors
            if not d.migratable
            for q in d.patches
            if int(home[q]) != int(home[d.home_patch])
        }
        assert problem.existing_proxies == expected
        assert expected

    def test_placement_and_background_pass_through(self, sim):
        computes = [d for d in sim.descriptors if d.migratable]
        moved = computes[0]
        target = (int(sim.patch_proc[moved.home_patch]) + 1) % 4
        placement = {moved.index: target}
        background = np.array([0.5, 0.25, 0.0, 0.125])
        problem = sim._build_problem(placement, {}, background)
        procs = {c.index: c.proc for c in problem.computes}
        assert procs[moved.index] == target
        # a compute the placement does not name sits with its home patch
        other = computes[1]
        assert procs[other.index] == int(sim.patch_proc[other.home_patch])
        np.testing.assert_array_equal(problem.background, background)
        assert problem.patch_home == {
            p: int(sim.patch_proc[p]) for p in range(len(sim.patch_proc))
        }
