"""Fault injection and supervised recovery on the real parallel engine:
the engine's reading of a fault plan, the recovery policy, how fast and
how a fault is detected, what the WorkDB records of it, and the injector
itself against throwaway processes.

That the healed trajectory — respawn, reassignment to survivors, the
in-process fallback, a resume — is bit-identical to the sequential one is
held in ``test_conformance.py``.
"""

import os
import time

import pytest

from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine, ParallelNonbonded
from repro.pool import (
    HAS_POSIX_SIGNALS,
    FaultInjector,
    RecoveryPolicy,
    ResilienceStats,
)
from repro.util.faults import FaultPlan

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

needs_signals = pytest.mark.skipif(
    not HAS_POSIX_SIGNALS, reason="platform lacks SIGKILL/SIGSTOP"
)

OPTS = NonbondedOptions(cutoff=8.0)


def run_trajectory(base, fault, steps=6, timeout=30.0):
    """The resilience record of a ``steps``-step run of two worker
    processes under ``fault``."""
    s = base.copy()
    s.assign_velocities(300.0, seed=5)
    with ParallelEngine(
        s, options=OPTS, workers=2, timeout=timeout, fault_plan=fault
    ) as eng:
        assert eng.parallel
        eng.run(steps)
    return eng.resilience


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
class TestDetection:
    def test_detection_under_two_seconds(self, water600):
        events = run_trajectory(water600, "kill=0@2").events
        assert len(events) == 1
        assert events[0].kind == "died"
        assert events[0].detection_s < 2.0

    def test_first_evaluation_hang_uses_adaptive_threshold(self, water600):
        """A worker frozen in the very first evaluation is detected on its
        peer's ack latency, scaled by the policy's grace factor — not at
        the hard 30 s timeout, since no clean step has calibrated
        detection yet."""
        res = run_trajectory(water600, "hang=0@1", steps=2, timeout=30.0)
        assert res.hangs_detected == 1
        (event,) = res.events
        assert (event.step, event.worker, event.kind) == (1, 0, "hung")
        assert event.detail.startswith("silent for"), event.detail
        assert "threshold" in event.detail and "timeout" not in event.detail


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

