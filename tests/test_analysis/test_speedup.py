"""Scaling sweeps and table formatting (Tables 2-6)."""

import pytest

from repro.analysis.speedup import format_scaling_table, scaling_sweep
from repro.core.problem import DecomposedProblem
from repro.core.simulation import SimulationConfig
from repro.costmodel.model import DEFAULT_COST_MODEL


@pytest.fixture(scope="module")
def problem(request):
    assembly = request.getfixturevalue("assembly")
    return DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)


class TestScalingSweep:
    def test_rows_cover_proc_counts(self, problem):
        rows = scaling_sweep(problem, SimulationConfig(n_procs=1), [1, 2, 4])
        assert [r.procs for r in rows] == [1, 2, 4]

    def test_speedup_normalized_to_baseline(self, problem):
        rows = scaling_sweep(problem, SimulationConfig(n_procs=1), [1, 2, 4])
        assert rows[0].speedup == pytest.approx(1.0)

    def test_baseline_procs_convention(self, problem):
        """BC1-style: 'scaled relative to the speedup on two processors=2.0'."""
        rows = scaling_sweep(
            problem, SimulationConfig(n_procs=1), [2, 4], baseline_procs=2
        )
        assert rows[0].speedup == pytest.approx(2.0)

    def test_missing_baseline_falls_back_to_model(self, problem):
        rows = scaling_sweep(
            problem, SimulationConfig(n_procs=1), [4], baseline_procs=1
        )
        assert rows[0].speedup > 1.0

    def test_times_decrease(self, problem):
        rows = scaling_sweep(problem, SimulationConfig(n_procs=1), [1, 4])
        assert rows[1].time_per_step < rows[0].time_per_step


class TestFormatting:
    def test_table_layout(self, problem):
        rows = scaling_sweep(problem, SimulationConfig(n_procs=1), [1, 2])
        text = format_scaling_table(rows, title="Table X")
        assert "Table X" in text
        assert "Procs" in text and "Speedup" in text and "GFLOPS" in text
        assert len(text.splitlines()) == 4

    def test_paper_column(self, problem):
        rows = scaling_sweep(problem, SimulationConfig(n_procs=1), [1, 2])
        text = format_scaling_table(rows, paper_speedups={1: 1.0})
        assert "Paper speedup" in text
        assert "-" in text.splitlines()[-1]  # no paper value for P=2
