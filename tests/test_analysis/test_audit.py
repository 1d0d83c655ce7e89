"""Performance audit (Table 1)."""

import pytest

from repro.analysis.audit import performance_audit
from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.core.simulation import (
    ParallelSimulation,
    SimulationConfig,
)


@pytest.fixture(scope="module")
def run(request):
    assembly = request.getfixturevalue("assembly")
    problem = DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)
    cfg = SimulationConfig(n_procs=6)
    return ParallelSimulation(assembly, cfg, problem=problem).run()


class TestAudit:
    def test_accounting_identity(self, run):
        """Columns sum to the total, as in the paper's Table 1."""
        audit = performance_audit(run)
        a = audit.actual
        assert a.total == pytest.approx(
            a.nonbonded + a.bonds + a.integration + a.overhead + a.receives
            + a.imbalance + a.idle,
            rel=1e-9,
        )

    def test_ideal_is_sequential_over_p(self, run):
        audit = performance_audit(run)
        assert audit.ideal.total == pytest.approx(
            run.sequential_reference_s / run.config.n_procs, rel=1e-6
        )
        assert audit.ideal.overhead == 0.0
        assert audit.ideal.idle == 0.0

    def test_actual_total_exceeds_ideal(self, run):
        audit = performance_audit(run)
        assert audit.actual.total > audit.ideal.total

    def test_nonbonded_dominates(self, run):
        """Paper: 'eighty percent or more of the total computation'."""
        audit = performance_audit(run)
        work = audit.actual.nonbonded + audit.actual.bonds + audit.actual.integration
        assert audit.actual.nonbonded / work > 0.6

    def test_format_renders_all_columns(self, run):
        text = performance_audit(run).format()
        for col in ("Total", "Non-bonded", "Bonds", "Integration", "Overhead",
                    "Imbalance", "Idle", "Receives"):
            assert col in text
        assert "Ideal" in text and "Actual" in text

    def test_ms_conversion(self, run):
        audit = performance_audit(run)
        ms = audit.actual.as_ms()
        assert ms["total"] == pytest.approx(audit.actual.total * 1e3)
