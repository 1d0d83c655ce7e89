"""Trace dump/load round trip."""

import numpy as np
import pytest

from repro.runtime.trace import TraceLog
from repro.runtime.tracefile import dump_trace, load_trace


def sample_trace():
    t = TraceLog(2, full=True)
    t.record_execution(0, 1, "a", "nonbonded", 0.0, 0.5, work=0.4,
                       send_overhead=0.06, recv_overhead=0.04)
    t.record_execution(1, 2, "b", "bonded", 0.2, 0.3, work=0.3)
    t.record_send(128.0)
    return t


class TestRoundTrip:
    def test_records_preserved(self, tmp_path):
        t = sample_trace()
        path = tmp_path / "trace.json"
        dump_trace(t, path)
        t2 = load_trace(path)
        assert len(t2.records) == 2
        r = t2.records[0]
        assert (r.proc, r.label, r.category) == (0, "a", "nonbonded")
        assert r.duration == pytest.approx(0.5)
        assert r.send_overhead == pytest.approx(0.06)

    def test_summary_preserved(self, tmp_path):
        t = sample_trace()
        path = tmp_path / "trace.json"
        dump_trace(t, path)
        s1 = t.summary()
        s2 = load_trace(path).summary()
        np.testing.assert_allclose(s2.busy_time_per_proc, s1.busy_time_per_proc)
        assert s2.messages_sent == s1.messages_sent
        assert s2.bytes_sent == s1.bytes_sent

    def test_analyses_work_on_loaded_trace(self, tmp_path):
        from repro.analysis.timeline import render_timeline

        t = sample_trace()
        path = tmp_path / "trace.json"
        dump_trace(t, path)
        out = render_timeline(load_trace(path), [0, 1], 0.0, 1.0, width=20)
        assert "N" in out and "B" in out

    def test_version_check(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError):
            load_trace(path)

    def test_end_to_end_simulation_trace(self, assembly, tmp_path):
        from repro.core.problem import DecomposedProblem
        from repro.costmodel.model import DEFAULT_COST_MODEL
        from repro.core.simulation import (
            ParallelSimulation,
            SimulationConfig,
        )

        problem = DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)
        cfg = SimulationConfig(n_procs=4, trace_final_phase=True)
        res = ParallelSimulation(assembly, cfg, problem=problem).run()
        path = tmp_path / "run.json"
        dump_trace(res.final.trace, path)
        loaded = load_trace(path)
        assert len(loaded.records) == len(res.final.trace.records)
