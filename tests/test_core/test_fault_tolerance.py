"""End-to-end fault tolerance on the simulated machine: kill a processor,
recover from the in-memory double checkpoint, finish every step.

The simulator models time, not positions, so what is checked here is the
accounting (failures, detection, replayed rounds) and the degraded
placement.  That recovered *physics* is bit-identical to the unfaulted run
is checked on the real engine (``tests/test_md/test_conformance.py``).
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

    #: a 100-water box on 4 processors, one phase of 6 rounds
    WATER = dict(
        n_procs=4, cutoff=6.0, lb_schedule=(), steps_per_phase=6, measure_last=1
    )

    @pytest.fixture(scope="class")
    def water_clean(self, request):
        system = request.getfixturevalue("water100")
        return ParallelSimulation(
            system, SimulationConfig(**self.WATER)
        ).run_phase_only()

    def test_kill_before_round_three_replays(self, water100, water_clean):
        """A kill just before round 3 completes is one failure, and the
        rounds done since the last cut are replayed."""
        t_kill = float(water_clean.timings.completion_times[2]) * 0.9
        plan = FaultPlan.parse(f"seed=5,kill=1@{t_kill!r}")
        cfg = SimulationConfig(
            **self.WATER, fault_plan=plan, checkpoint_interval=2
        )
        faulted = ParallelSimulation(water100, cfg).run_phase_only()
        assert faulted.recovery.n_failures == 1
        assert faulted.recovery.steps_replayed > 0
        assert len(faulted.timings.completion_times) == cfg.steps_per_phase

    def test_checkpoint_interval_one_replays_at_most_one_round(
        self, water100, water_clean
    ):
        t_kill = float(water_clean.timings.completion_times[4]) * 0.99
        plan = FaultPlan.parse(f"seed=8,kill=3@{t_kill!r}")
        cfg = SimulationConfig(
            **self.WATER, fault_plan=plan, checkpoint_interval=1
        )
        faulted = ParallelSimulation(water100, cfg).run_phase_only()
        assert faulted.recovery.n_failures == 1
        # at interval 1 at most one completed round is ever replayed
        assert faulted.recovery.steps_replayed <= 1

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

    def test_a_kill_after_the_phase_strikes_the_phase_it_falls_in(self, assembly):
        """Phase 0 ends near 1.7 s: a kill at 3.0 s leaves it and phase 1
        as they run fault-free and strikes phase 2, not phase 0 with two
        rounds done and no periodic checkpoint taken."""
        base = dict(n_procs=4, steps_per_phase=5, checkpoint_interval=2)
        clean = ParallelSimulation(assembly, SimulationConfig(**base)).run()
        cfg = SimulationConfig(**base, fault_plan=FaultPlan.parse("kill=2@3.0"))
        res = ParallelSimulation(assembly, cfg).run()
        ends = [phase.timings.completion_times[-1] for phase in clean.phases]
        assert ends[0] < 3.0 < ends[0] + ends[1] + ends[2]
        for p in (0, 1):
            assert res.phases[p].recovery.events == []
            assert np.array_equal(
                res.phases[p].timings.completion_times,
                clean.phases[p].timings.completion_times,
            )
        (event,) = res.phases[2].recovery.events
        assert event.procs == (2,) and res.dead_procs == (2,)
        assert 0.0 < event.failure_time < 3.0 - ends[0]


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
