"""Utilization profiles."""

import numpy as np
import pytest

from repro.analysis.utilization import (
    format_utilization,
    utilization_profile,
    workdb_utilization,
)
from repro.instrument import WorkDB
from repro.runtime.trace import TraceLog


def make_summary(busy):
    t = TraceLog(len(busy))
    for p, b in enumerate(busy):
        t.record_execution(p, 0, "x", "c", 0.0, b)
    return t.summary()


class TestProfile:
    def test_fractions(self):
        prof = utilization_profile(make_summary([0.5, 1.0, 0.0]), makespan=1.0)
        np.testing.assert_allclose(prof.utilization, [0.5, 1.0, 0.0])
        assert prof.mean == pytest.approx(0.5)
        assert prof.maximum == 1.0 and prof.minimum == 0.0

    def test_clipped_to_one(self):
        prof = utilization_profile(make_summary([2.0]), makespan=1.0)
        assert prof.utilization[0] == 1.0

    def test_idle_processors(self):
        prof = utilization_profile(make_summary([0.0, 0.02, 0.9]), makespan=1.0)
        assert prof.idle_processors() == 2

    def test_rejects_bad_makespan(self):
        with pytest.raises(ValueError):
            utilization_profile(make_summary([1.0]), makespan=0.0)


class TestWorkDBProfile:
    def test_busy_is_each_owners_predicted_load(self):
        """A worker is busy for its tasks' predicted loads, pinned ones
        included, once each; the slowest worker sets the makespan."""
        db = WorkDB()
        db.ensure_task(0, prior=0.0, owner=0)
        db.ensure_task(1, prior=0.0, owner=1)
        db.ensure_task(2, prior=0.0, owner=1, migratable=False)
        db.record(0, 0.5)
        db.record(1, 1.0)
        db.record(2, 1.0)
        prof = workdb_utilization(db, 3)
        assert prof.makespan == 2.0
        np.testing.assert_array_equal(prof.utilization, [0.25, 1.0, 0.0])
        np.testing.assert_array_equal(
            prof.utilization * prof.makespan, db.owner_loads(3)
        )

    def test_unmeasured_database_is_idle(self):
        prof = workdb_utilization(WorkDB(), 2)
        assert prof.makespan == 0.0
        np.testing.assert_array_equal(prof.utilization, [0.0, 0.0])


class TestFormatting:
    def test_one_row_per_proc_small(self):
        prof = utilization_profile(make_summary([0.5] * 8), makespan=1.0)
        out = format_utilization(prof)
        assert len(out.splitlines()) == 9

    def test_binned_for_large_machines(self):
        prof = utilization_profile(make_summary([0.5] * 256), makespan=1.0)
        out = format_utilization(prof, max_rows=32)
        assert len(out.splitlines()) <= 33
        assert "P0-" in out

    def test_percentages_shown(self):
        prof = utilization_profile(make_summary([0.25]), makespan=1.0)
        assert "25.0%" in format_utilization(prof)


class TestEndToEnd:
    def test_lb_raises_utilization(self, assembly):
        """The whole point: after balancing, fewer idle processors."""
        from repro.core.problem import DecomposedProblem
        from repro.costmodel.model import DEFAULT_COST_MODEL
        from repro.core.simulation import (
            ParallelSimulation,
            SimulationConfig,
        )

        problem = DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)
        cfg = SimulationConfig(n_procs=16)
        res = ParallelSimulation(assembly, cfg, problem=problem).run()
        before = utilization_profile(
            res.phases[0].summary, res.phases[0].timings.completion_times[-1]
        )
        after = utilization_profile(
            res.final.summary, res.final.timings.completion_times[-1]
        )
        assert after.mean > before.mean
