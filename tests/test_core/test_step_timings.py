"""StepTimings and SimulationResult bookkeeping."""

import pickle

import numpy as np
import pytest

from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.core.simulation import (
    ParallelSimulation,
    SimulationConfig,
    StepTimings,
)


class TestStepTimings:
    def test_interior_mean(self):
        t = StepTimings([1.0, 2.0, 3.5, 5.0, 6.0], measure_last=2)
        # diffs: 1.0, 1.5, 1.5, 1.0 -> interior: 1.5, 1.5
        assert t.time_per_step == pytest.approx(1.5)

    def test_short_series_uses_all_diffs(self):
        t = StepTimings([1.0, 2.0], measure_last=4)
        assert t.time_per_step == pytest.approx(1.0)

    def test_single_completion(self):
        t = StepTimings([3.0], measure_last=1)
        assert t.time_per_step == pytest.approx(3.0)

    def test_empty(self):
        assert StepTimings([], measure_last=1).time_per_step == 0.0

    def test_step_times_diffs(self):
        t = StepTimings([0.0, 1.0, 3.0], measure_last=1)
        np.testing.assert_allclose(t.step_times, [1.0, 2.0])


class TestResultProperties:
    @pytest.fixture(scope="class")
    def result(self, request):
        assembly = request.getfixturevalue("assembly")
        problem = DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)
        return ParallelSimulation(
            assembly, SimulationConfig(n_procs=4), problem=problem
        ).run()

    def test_final_is_last_phase(self, result):
        assert result.final is result.phases[-1]

    def test_speedup_definition(self, result):
        assert result.speedup == pytest.approx(
            result.sequential_reference_s / result.time_per_step
        )

    def test_gflops_definition(self, result):
        assert result.gflops == pytest.approx(
            result.flops_per_step / result.time_per_step / 1e9
        )


class TestProblemPickleRoundtrip:
    def test_cache_roundtrip_preserves_behaviour(self, assembly, tmp_path):
        """The benchmark disk cache must reproduce identical runs."""
        problem = DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)
        blob = pickle.dumps(problem)
        problem2 = pickle.loads(blob)
        cfg = SimulationConfig(n_procs=4)
        r1 = ParallelSimulation(assembly, cfg, problem=problem).run()
        r2 = ParallelSimulation(problem2.system, cfg, problem=problem2).run()
        assert r1.time_per_step == pytest.approx(r2.time_per_step, rel=1e-12)
        assert r1.counts == r2.counts
