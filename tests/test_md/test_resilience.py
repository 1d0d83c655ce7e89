"""Fault injection and supervised recovery on the real parallel engine.

The contract under test: a worker SIGKILL'd, SIGSTOP'd, erroring, or
slowed mid-run is detected by the supervisor and healed — respawn first,
reassignment to survivors when respawns are exhausted, sequential fallback
only when nobody is left — and the recovered trajectory is **bit-identical**
to an unfaulted run at the same worker count.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.builder import small_water_box
from repro.md.engine import SequentialEngine
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine, ParallelNonbonded
from repro.pool import (
    HAS_POSIX_SIGNALS,
    FaultInjector,
    RecoveryPolicy,
    ResilienceStats,
)
from repro.util.faults import FaultPlan, ProcessorFailure

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

needs_signals = pytest.mark.skipif(
    not HAS_POSIX_SIGNALS, reason="platform lacks SIGKILL/SIGSTOP"
)

OPTS = NonbondedOptions(cutoff=8.0)


@pytest.fixture(scope="module")
def water600():
    return small_water_box(600, seed=7, relax=False)


@pytest.fixture(scope="module")
def sequential5(water600):
    """Positions after 5 worker-less steps from :func:`run_trajectory`'s
    start: the reference every single-fault run must reproduce."""
    seq = water600.copy()
    seq.assign_velocities(300.0, seed=5)
    with SequentialEngine(seq, OPTS) as eng:
        for _ in range(5):
            eng.step()
    return seq.positions.copy()


def run_trajectory(
    base, steps=6, workers=2, fault=None, policy=None, timeout=30.0
):
    """Run ``steps`` MD steps; returns (positions, velocities, E, engine facts)."""
    s = base.copy()
    s.assign_velocities(300.0, seed=5)
    with ParallelEngine(
        s,
        options=OPTS,
        workers=workers,
        timeout=timeout,
        fault_plan=fault,
        recovery=policy,
    ) as eng:
        assert eng.parallel
        reports = [eng.step() for _ in range(steps)]
        facts = {
            "resilience": eng.resilience,
            "parallel_at_end": eng.parallel,
            "live_workers": eng.workers,
        }
    return s.positions.copy(), s.velocities.copy(), reports[-1].total, facts


# --------------------------------------------------------------------------- #
# the engine's reading of a plan (the grammar: tests/test_util/test_faults.py)
# --------------------------------------------------------------------------- #
class TestEngineFaultPlan:
    def test_plan_beyond_pool_size_rejected_by_engine(self, water600):
        with pytest.raises(ValueError, match="worker 7"):
            ParallelNonbonded(
                water600.copy(), OPTS, n_workers=2, fault_plan="kill=7@1"
            )


class TestRecoveryPolicy:
    def test_backoff_is_exponential(self):
        pol = RecoveryPolicy(respawn_backoff_s=0.05)
        assert pol.backoff(0) == pytest.approx(0.05)
        assert pol.backoff(1) == pytest.approx(0.10)
        assert pol.backoff(2) == pytest.approx(0.20)

    def test_hang_threshold_clamps(self):
        pol = RecoveryPolicy(min_hang_timeout_s=1.0, hang_grace_factor=20.0)
        # no history yet: the full timeout is the only bound
        assert pol.hang_threshold(0.0, 30.0) == pytest.approx(30.0)
        # tiny steps clamp up to the floor
        assert pol.hang_threshold(0.001, 30.0) == pytest.approx(1.0)
        # normal steps scale by the grace factor
        assert pol.hang_threshold(0.2, 30.0) == pytest.approx(4.0)
        # never beyond the hard timeout
        assert pol.hang_threshold(10.0, 30.0) == pytest.approx(30.0)
        # an explicit setting wins
        pol = RecoveryPolicy(hang_timeout_s=2.0)
        assert pol.hang_threshold(10.0, 30.0) == pytest.approx(2.0)


# --------------------------------------------------------------------------- #
# live-process fault injection and recovery
# --------------------------------------------------------------------------- #
@needs_signals
class TestKillRecovery:
    def test_sigkill_recovered_bit_identical(self, water600):
        p_ref, v_ref, e_ref, _ = run_trajectory(water600)
        p, v, e, facts = run_trajectory(water600, fault="kill=1@3")
        res = facts["resilience"]
        assert res.kills_detected == 1
        assert res.respawns == 1
        assert res.mode == "full"
        assert facts["parallel_at_end"]
        assert np.array_equal(p, p_ref)
        assert np.array_equal(v, v_ref)
        assert e == e_ref

    def test_detection_under_two_seconds(self, water600):
        _, _, _, facts = run_trajectory(water600, fault="kill=0@2")
        events = facts["resilience"].events
        assert len(events) == 1
        assert events[0].kind == "died"
        assert events[0].detection_s < 2.0

    def test_both_workers_killed_same_run(self, water600):
        p_ref, _, e_ref, _ = run_trajectory(water600)
        p, _, e, facts = run_trajectory(water600, fault="kill=0@2,kill=1@4")
        res = facts["resilience"]
        assert res.kills_detected == 2
        assert res.respawns == 2
        assert np.array_equal(p, p_ref)
        assert e == e_ref

    def test_exhausted_respawns_reassign_to_survivors(self, water600):
        p_ref, _, e_ref, _ = run_trajectory(water600)
        pol = RecoveryPolicy(max_respawns=0)
        p, _, e, facts = run_trajectory(water600, fault="kill=1@3", policy=pol)
        res = facts["resilience"]
        assert res.respawns == 0
        assert res.tasks_reassigned > 0
        assert res.mode == "degraded"
        assert res.degraded_steps > 0
        # the pool kept running, one worker short — not the sequential path
        assert facts["parallel_at_end"]
        assert facts["live_workers"] == 1
        assert np.array_equal(p, p_ref)
        assert e == e_ref

    def test_all_workers_lost_degrades_to_sequential(self, water600):
        p_ref, _, _, _ = run_trajectory(water600)
        pol = RecoveryPolicy(max_respawns=0)
        with pytest.warns(RuntimeWarning, match="pool degraded"):
            p, _, _, facts = run_trajectory(
                water600, fault="kill=0@2,kill=1@4", policy=pol
            )
        res = facts["resilience"]
        assert res.mode == "sequential"
        assert not facts["parallel_at_end"]
        # the bottom rung runs the lost workers' tasks in-process: same bits
        assert np.array_equal(p, p_ref)


@needs_signals
class TestHangRecovery:
    def test_finite_hang_rides_through(self, water600):
        # a short SIGSTOP resumes before the adaptive hang threshold fires:
        # the step is just slow, no recovery action is taken
        p_ref, _, e_ref, _ = run_trajectory(water600)
        p, _, e, facts = run_trajectory(water600, fault="hang=0@2x0.3")
        assert np.array_equal(p, p_ref)
        assert e == e_ref

    def test_infinite_hang_detected_and_respawned(self, water600):
        p_ref, _, e_ref, _ = run_trajectory(water600)
        p, _, e, facts = run_trajectory(water600, fault="hang=1@3")
        res = facts["resilience"]
        assert res.hangs_detected == 1
        assert res.respawns == 1
        assert np.array_equal(p, p_ref)
        assert e == e_ref

    def test_first_evaluation_hang_uses_adaptive_threshold(self, water600):
        """A worker frozen in the very first evaluation is detected on its
        peer's ack latency, scaled by the policy's grace factor — not at
        the hard 30 s timeout, since no clean step has calibrated
        detection yet."""
        p_ref, _, e_ref, _ = run_trajectory(water600, steps=2)
        p, _, e, facts = run_trajectory(
            water600, steps=2, fault="hang=0@1", timeout=30.0
        )
        res = facts["resilience"]
        assert res.hangs_detected == 1
        (event,) = res.events
        assert (event.step, event.worker, event.kind) == (1, 0, "hung")
        assert event.detail.startswith("silent for"), event.detail
        assert "threshold" in event.detail and "timeout" not in event.detail
        assert np.array_equal(p, p_ref)
        assert e == e_ref

    def test_repeat_faulted_runs_bit_identical(self, water600):
        a = run_trajectory(water600, fault="kill=1@2")
        b = run_trajectory(water600, fault="kill=1@2")
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert a[2] == b[2]


class TestSlowdownInjection:
    def test_slowdown_does_not_change_physics(self, water600):
        p_ref, _, e_ref, _ = run_trajectory(water600, steps=4)
        p, _, e, facts = run_trajectory(
            water600, steps=4, fault="slow=0@1-3x5"
        )
        assert facts["resilience"].n_failures == 0
        assert np.array_equal(p, p_ref)
        assert e == e_ref


@needs_signals
class TestRecoveryAccounting:
    def test_workdb_mirrors_supervisor_counters(self, water600):
        s = water600.copy()
        s.assign_velocities(300.0, seed=5)
        with ParallelEngine(
            s, options=OPTS, workers=2, timeout=30.0, fault_plan="kill=1@2"
        ) as eng:
            for _ in range(4):
                eng.step()
            db = eng.workdb
            assert db.recovery.get("kills") == 1
            assert db.recovery.get("respawns") == 1
            # and the analysis layer surfaces it
            from repro.analysis import format_recovery_summary

            line = format_recovery_summary(db)
            assert "kills=1" in line and "respawns=1" in line

    def test_recovery_survives_dump_reload(self, water600, tmp_path):
        s = water600.copy()
        s.assign_velocities(300.0, seed=5)
        with ParallelEngine(
            s, options=OPTS, workers=2, timeout=30.0, fault_plan="kill=0@2"
        ) as eng:
            for _ in range(3):
                eng.step()
            path = tmp_path / "db.json"
            eng.workdb.dump(path)
        from repro.instrument import WorkDB

        db = WorkDB.load_file(path)
        assert db.recovery.get("kills") == 1

    def test_stats_to_dict_roundtrip_fields(self):
        stats = ResilienceStats()
        d = stats.to_dict()
        for key in (
            "mode",
            "kills_detected",
            "hangs_detected",
            "respawns",
            "tasks_reassigned",
            "degraded_steps",
            "recovery_time_s",
        ):
            assert key in d


# --------------------------------------------------------------------------- #
# property: any single-worker fault schedule recovers to the reference
# --------------------------------------------------------------------------- #
@needs_signals
class TestRecoveryProperty:
    @given(
        kind=st.sampled_from(["kill", "hang"]),
        worker=st.integers(min_value=0, max_value=1),
        step=st.integers(min_value=1, max_value=4),
    )
    # the first-evaluation hang and a last-step kill always run, whatever
    # the draw
    @example(kind="hang", worker=0, step=1)
    @example(kind="kill", worker=1, step=4)
    @settings(max_examples=5, deadline=None)
    def test_single_fault_matches_sequential_and_repeats(
        self, water600, sequential5, kind, worker, step
    ):
        spec = f"{kind}={worker}@{step}"
        p1, v1, e1, facts = run_trajectory(water600, steps=5, fault=spec)
        assert facts["parallel_at_end"]
        assert facts["resilience"].n_failures == 1
        # recovered forces integrate to the worker-less trajectory, bitwise
        assert np.array_equal(p1, sequential5)
        # and the faulted run is exactly repeatable
        p2, v2, e2, _ = run_trajectory(water600, steps=5, fault=spec)
        assert np.array_equal(p1, p2)
        assert np.array_equal(v1, v2)
        assert e1 == e2


# --------------------------------------------------------------------------- #
# injector unit behaviour against throwaway processes
# --------------------------------------------------------------------------- #
@needs_signals
class TestFaultInjector:
    def _spawn_sleeper(self):
        import multiprocessing as mp

        proc = mp.get_context("fork").Process(target=time.sleep, args=(60.0,))
        proc.start()
        return proc

    def test_kill_fires_once(self):
        proc = self._spawn_sleeper()
        try:
            inj = FaultInjector(FaultPlan.parse("kill=0@2"))
            assert inj.inject(1, {0: proc.pid}) == []
            fired = inj.inject(2, {0: proc.pid})
            assert len(fired) == 1
            proc.join(timeout=5.0)
            assert not proc.is_alive()
            assert inj.inject(2, {0: proc.pid}) == []  # once only
        finally:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)

    def test_finite_hang_resumes_via_poll(self):
        proc = self._spawn_sleeper()
        try:
            inj = FaultInjector(FaultPlan.parse("hang=0@1x0.2"))
            inj.inject(1, {0: proc.pid})
            deadline = time.monotonic() + 5.0
            resumed = []
            while time.monotonic() < deadline and not resumed:
                resumed = inj.poll()
                time.sleep(0.05)
            assert resumed == [0]
        finally:
            inj.release_all()
            proc.kill()
            proc.join(timeout=5.0)

    @staticmethod
    def _wait_for_state(pid, stopped: bool) -> bool:
        """Whether ``pid``'s scheduler state (``/proc/<pid>/stat``) became
        stopped (``T``) or not stopped; signals land asynchronously, so the
        state is polled — a liveness bound, never the assertion itself."""
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            with open(f"/proc/{pid}/stat") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
            if (state == "T") == stopped:
                return True
            time.sleep(0.01)
        return False

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
    @pytest.mark.parametrize("spec", ["hang=0@1", "hang=0@1x60"])
    def test_release_all_unfreezes(self, spec):
        """What the injector did, read back from the kernel and from its own
        books: frozen after ``inject``, running and forgotten after
        ``release_all`` — an indefinite hang as much as a finite one."""
        proc = self._spawn_sleeper()
        try:
            inj = FaultInjector(FaultPlan.parse(spec))
            assert len(inj.inject(1, {0: proc.pid})) == 1
            assert [(w, pid) for w, pid, _ in inj._stopped] == [(0, proc.pid)]
            assert self._wait_for_state(proc.pid, stopped=True)
            assert inj.poll() == []  # not due: only release_all continues it
            inj.release_all()
            assert inj._stopped == []
            assert self._wait_for_state(proc.pid, stopped=False)
        finally:
            proc.kill()
            proc.join()

    def test_dead_pid_is_swallowed(self):
        proc = self._spawn_sleeper()
        proc.kill()
        proc.join(timeout=5.0)
        inj = FaultInjector(FaultPlan.parse("kill=0@1"))
        inj.inject(1, {0: proc.pid})  # must not raise


# --------------------------------------------------------------------------- #
# disk checkpoint/resume on the parallel engine
# --------------------------------------------------------------------------- #
class TestParallelCheckpointResume:
    """Resume must reproduce the checkpointed run bit-for-bit.

    (An *unfaulted, uncheckpointed* run can differ at the last ulp because
    writing a checkpoint pins a pairlist rebuild at the next evaluation —
    the rebuild schedule, not the physics, shifts.  The contract is that
    the resumed run continues the checkpointed run exactly.)
    """

    def _fresh(self, base):
        s = base.copy()
        s.assign_velocities(300.0, seed=5)
        return s

    def test_resume_is_bit_identical(self, water600, tmp_path):
        from repro.runtime.checkpoint import (
            load_run_checkpoint,
            restore_run_checkpoint,
        )

        path = tmp_path / "run.ckpt"
        # checkpointed run: 5 steps, one checkpoint written at step 3
        s_a = self._fresh(water600)
        with ParallelEngine(
            s_a,
            options=OPTS,
            workers=2,
            timeout=30.0,
            checkpoint_every=3,
            checkpoint_path=path,
        ) as eng:
            assert eng.parallel
            for _ in range(5):
                rep_a = eng.step()
            assert eng.n_checkpoints == 1

        cp = load_run_checkpoint(path)
        assert cp.step == 3

        s_b = self._fresh(water600)
        with ParallelEngine(s_b, options=OPTS, workers=2, timeout=30.0) as eng:
            restore_run_checkpoint(eng, cp)
            for _ in range(2):
                rep_b = eng.step()

        np.testing.assert_array_equal(s_b.positions, s_a.positions)
        np.testing.assert_array_equal(s_b.velocities, s_a.velocities)
        assert rep_b.total == rep_a.total

    @needs_signals
    def test_resume_after_fault_matches_clean_run(self, water600, tmp_path):
        """Worker SIGKILL'd after resume: the recovered, resumed trajectory
        still matches the checkpointed run continued without faults."""
        from repro.runtime.checkpoint import (
            load_run_checkpoint,
            restore_run_checkpoint,
        )

        path = tmp_path / "run.ckpt"
        s_a = self._fresh(water600)
        with ParallelEngine(
            s_a,
            options=OPTS,
            workers=2,
            timeout=30.0,
            checkpoint_every=3,
            checkpoint_path=path,
        ) as eng:
            for _ in range(5):
                eng.step()

        cp = load_run_checkpoint(path)
        # evaluation indices keep counting from the restored nb_seq.  The
        # kill goes with the first resumed evaluation, not the last: a
        # worker can ack its step before the signal lands, and then only
        # the next evaluation's liveness sweep finds it dead
        fault = FaultPlan(failures=(ProcessorFailure(0, cp.nb_seq + 1),))

        s_b = self._fresh(water600)
        with ParallelEngine(
            s_b, options=OPTS, workers=2, timeout=30.0, fault_plan=fault
        ) as eng:
            restore_run_checkpoint(eng, cp)
            for _ in range(2):
                eng.step()
            assert eng.resilience.kills_detected == 1
            assert eng.resilience.mode == "full"

        np.testing.assert_array_equal(s_b.positions, s_a.positions)
        np.testing.assert_array_equal(s_b.velocities, s_a.velocities)
