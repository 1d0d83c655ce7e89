"""DecomposedProblem: the shared prebuilt bundle."""

import pytest

from repro.costmodel.grainsize import GrainsizeConfig
from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.core.simulation import (
    ParallelSimulation,
    SimulationConfig,
)


@pytest.fixture(scope="module")
def problem(request):
    assembly = request.getfixturevalue("assembly")
    return DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)


class TestBuild:
    def test_counts_consistent_with_descriptors(self, problem):
        assert problem.counts.nonbonded_pairs == sum(
            d.n_pairs for d in problem.nb_descriptors
        )
        assert problem.counts.atoms == problem.system.n_atoms

    def test_descriptor_indices_unique_and_dense(self, problem):
        idx = [d.index for d in problem.descriptors]
        assert idx == list(range(len(idx)))

    def test_respects_grainsize_config(self, request):
        assembly = request.getfixturevalue("assembly")
        coarse = DecomposedProblem.build(
            assembly,
            DEFAULT_COST_MODEL,
            grainsize=GrainsizeConfig(split_self=False, split_pairs=False),
        )
        fine = DecomposedProblem.build(
            assembly, DEFAULT_COST_MODEL, grainsize=GrainsizeConfig(target_load_s=0.001)
        )
        assert len(fine.descriptors) > len(coarse.descriptors)

    def test_split_bonded_flag(self, request):
        assembly = request.getfixturevalue("assembly")
        merged = DecomposedProblem.build(
            assembly, DEFAULT_COST_MODEL, split_bonded=False
        )
        assert all(not d.migratable for d in merged.bonded_descriptors)


class TestSharedAcrossRuns:
    def test_same_problem_different_proc_counts(self, problem):
        r4 = ParallelSimulation(
            problem.system, SimulationConfig(n_procs=4), problem=problem
        ).run()
        r8 = ParallelSimulation(
            problem.system, SimulationConfig(n_procs=8), problem=problem
        ).run()
        assert r8.time_per_step < r4.time_per_step
        # shared problem: identical work counts
        assert r4.counts == r8.counts

    def test_problem_reuse_does_not_mutate(self, problem):
        loads_before = [d.load for d in problem.descriptors]
        ParallelSimulation(
            problem.system, SimulationConfig(n_procs=6), problem=problem
        ).run()
        assert [d.load for d in problem.descriptors] == loads_before


class TestNewStrategiesEndToEnd:
    @pytest.mark.parametrize("schedule", [("diffusion",), ("phase_aware", "refine")])
    def test_extension_strategies_run_and_help(self, problem, schedule):
        static = ParallelSimulation(
            problem.system, SimulationConfig(n_procs=8, lb_schedule=()),
            problem=problem,
        ).run()
        balanced = ParallelSimulation(
            problem.system, SimulationConfig(n_procs=8, lb_schedule=schedule),
            problem=problem,
        ).run()
        assert balanced.time_per_step < static.time_per_step
