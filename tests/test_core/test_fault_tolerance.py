"""End-to-end fault tolerance: kill a processor, recover, same physics.

The headline invariant: a run with an injected mid-run processor failure
recovers from the in-memory double checkpoint and produces final per-atom
positions, velocities, and energies identical (within 1e-12) to the
fault-free run.
"""

import numpy as np
import pytest

from repro.core import ParallelSimulation, SimulationConfig
from repro.runtime.checkpoint import UnrecoverableFailure
from repro.util.faults import FaultPlan

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# --------------------------------------------------------------------- #
# timing mode: survival, accounting, degraded placement
# --------------------------------------------------------------------- #
class TestTimingModeRecovery:
    @pytest.fixture(scope="class")
    def clean(self, request):
        system = request.getfixturevalue("assembly")
        cfg = SimulationConfig(n_procs=4, lb_schedule=("greedy+refine",))
        return ParallelSimulation(system, cfg).run()

    def test_checkpoint_only_run_matches_structure(self, assembly, clean):
        """With checkpointing but no faults, results are complete and the
        overhead is pure checkpoint time."""
        cfg = SimulationConfig(
            n_procs=4, lb_schedule=("greedy+refine",), checkpoint_interval=2
        )
        res = ParallelSimulation(assembly, cfg).run()
        rec = res.recovery
        assert res.dead_procs == ()
        assert rec.n_failures == 0
        assert rec.checkpoints_taken > 0
        assert rec.checkpoint_time_s > 0
        # completion count identical to the plain run
        assert len(res.final.timings.completion_times) == len(
            clean.final.timings.completion_times
        )

    def test_mid_run_kill_completes_with_accounting(self, assembly, clean):
        t_kill = clean.time_per_step * 2.5
        plan = FaultPlan.parse(f"seed=7,kill=2@{t_kill}")
        cfg = SimulationConfig(
            n_procs=4,
            lb_schedule=("greedy+refine",),
            fault_plan=plan,
            checkpoint_interval=2,
        )
        res = ParallelSimulation(assembly, cfg).run()
        rec = res.recovery
        assert res.dead_procs == (2,)
        assert rec.n_failures == 1
        assert rec.events[0].procs == (2,)
        assert rec.detection_latency_s == pytest.approx(
            cfg.failure_detection_timeout
        )
        assert rec.recovery_time_s > 0
        # every step still completed, in order
        times = res.final.timings.completion_times
        assert len(times) == cfg.steps_per_phase
        assert all(b > a for a, b in zip(times, times[1:]))
        # nothing remains placed on the dead processor
        for phase in res.phases:
            if 2 in phase.dead_procs:
                assert all(p != 2 for p in phase.placement.values())

    def test_unrecoverable_double_failure_raises(self, assembly):
        # both kills land inside the first checkpoint interval: with 4
        # procs, buddies are adjacent, so killing a chare's owner AND its
        # buddy before the next cut loses both copies
        plan = FaultPlan.parse("seed=1,kill=0@0.02,kill=1@0.02")
        cfg = SimulationConfig(
            n_procs=4,
            lb_schedule=(),
            fault_plan=plan,
            checkpoint_interval=100,
        )
        with pytest.raises(UnrecoverableFailure):
            ParallelSimulation(assembly, cfg).run()


# --------------------------------------------------------------------- #
# numeric mode: the recovery-equivalence invariant
# --------------------------------------------------------------------- #
class TestNumericInvariant:
    BASE = dict(
        n_procs=4,
        numeric=True,
        dt=1.0,
        cutoff=6.0,
        lb_schedule=(),
        steps_per_phase=6,
        measure_last=1,
    )

    @pytest.fixture(scope="class")
    def reference(self, request):
        system = request.getfixturevalue("water100")
        system.assign_velocities(300.0, seed=9)
        ref = ParallelSimulation(
            system, SimulationConfig(**self.BASE)
        ).run_phase_only()
        return system, ref

    def test_recovered_run_matches_fault_free(self, reference):
        system, ref = reference
        t_kill = float(ref.timings.completion_times[2]) * 0.9
        plan = FaultPlan.parse(f"seed=5,kill=1@{t_kill!r}")
        cfg = SimulationConfig(
            **self.BASE, fault_plan=plan, checkpoint_interval=2
        )
        faulted = ParallelSimulation(system, cfg).run_phase_only()

        assert faulted.recovery.n_failures == 1
        assert faulted.recovery.steps_replayed > 0
        b0, b1 = ref.backend, faulted.backend
        assert np.allclose(b1.positions, b0.positions, rtol=1e-12, atol=1e-12)
        assert np.allclose(b1.velocities, b0.velocities, rtol=1e-12, atol=1e-12)
        assert np.allclose(b1.forces, b0.forces, rtol=1e-12, atol=1e-12)
        for step, energies in b0.energy_by_step.items():
            for key, val in energies.items():
                assert b1.energy_by_step[step][key] == pytest.approx(
                    val, rel=1e-12, abs=1e-12
                )

    def test_checkpoint_interval_one_also_matches(self, reference):
        system, ref = reference
        t_kill = float(ref.timings.completion_times[4]) * 0.99
        plan = FaultPlan.parse(f"seed=8,kill=3@{t_kill!r}")
        cfg = SimulationConfig(
            **self.BASE, fault_plan=plan, checkpoint_interval=1
        )
        faulted = ParallelSimulation(system, cfg).run_phase_only()
        assert faulted.recovery.n_failures == 1
        # at interval 1 at most one completed round is ever replayed
        assert faulted.recovery.steps_replayed <= 1
        assert np.allclose(
            faulted.backend.positions, ref.backend.positions,
            rtol=1e-12, atol=1e-12,
        )


# --------------------------------------------------------------------- #
# message faults: graceful degradation + determinism
# --------------------------------------------------------------------- #
class TestMessageFaults:
    def test_lossy_network_still_completes(self, assembly):
        plan = FaultPlan.parse("seed=3,drop=0.02,delay=0.05@1e-4,dup=0.02")
        cfg = SimulationConfig(
            n_procs=4, lb_schedule=("greedy+refine",), fault_plan=plan
        )
        res = ParallelSimulation(assembly, cfg).run()
        rec = res.recovery
        assert res.dead_procs == ()
        assert rec.messages_dropped > 0
        assert rec.messages_delayed > 0
        assert rec.messages_duplicated > 0
        assert len(res.final.timings.completion_times) == cfg.steps_per_phase

    def test_same_seed_same_run(self, assembly):
        plan = FaultPlan.parse("seed=3,drop=0.05,dup=0.05")
        cfg = SimulationConfig(n_procs=4, lb_schedule=(), fault_plan=plan)
        a = ParallelSimulation(assembly, cfg).run()
        b = ParallelSimulation(assembly, cfg).run()
        assert (
            a.final.timings.completion_times == b.final.timings.completion_times
        )
        assert a.recovery.messages_dropped == b.recovery.messages_dropped


# --------------------------------------------------------------------- #
# surfacing: audit block and CLI flags
# --------------------------------------------------------------------- #
class TestSurfacing:
    def test_audit_includes_recovery_block(self, assembly):
        from repro.analysis.audit import performance_audit

        plan = FaultPlan.parse("seed=7,kill=2@0.3")
        cfg = SimulationConfig(
            n_procs=4,
            lb_schedule=(),
            fault_plan=plan,
            checkpoint_interval=2,
        )
        res = ParallelSimulation(assembly, cfg).run()
        text = performance_audit(res).format()
        assert "Recovery overhead" in text
        assert "processor failures" in text
        assert "steps replayed" in text

    def test_audit_omits_block_without_resilience(self, assembly):
        from repro.analysis.audit import performance_audit

        cfg = SimulationConfig(n_procs=4, lb_schedule=())
        res = ParallelSimulation(assembly, cfg).run()
        assert "Recovery overhead" not in performance_audit(res).format()

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["audit", "--fault-plan", "seed=7,kill=1@0.5",
             "--checkpoint-interval", "2"]
        )
        assert args.fault_plan == "seed=7,kill=1@0.5"
        assert args.checkpoint_interval == 2
        plan = FaultPlan.parse(args.fault_plan)
        assert plan.failures[0].proc == 1

    def test_cli_audit_with_faults(self, capsys):
        from repro.cli import main

        rc = main(
            ["audit", "--system", "mini", "--procs", "4",
             "--fault-plan", "seed=7,kill=2@0.5", "--checkpoint-interval", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Recovery overhead" in out
        assert "procs [2]" in out
