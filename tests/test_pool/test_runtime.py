"""The supervised pool runtime, exercised without any MD machinery.

Covers the generic dispatch/collect protocol, the recovery ladder
(respawn, reassign, degrade), lifecycle edges (atexit deregistration,
close racing an in-flight recovery respawn), and determinism of the
task-ordered results under recovery.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.pool import (
    HAS_SHARED_MEMORY,
    InProcessExecutor,
    RecoveryPolicy,
    SupervisedPool,
)
from repro.pool import runtime as pool_runtime
from repro.pool.protocol import STAT_TIME_NS, STAT_V0, STAT_V1, STAT_V2
from repro.util.faults import FaultPlan, SlowdownWindow

from tests.test_pool.synthetic import (
    BatchingProvider,
    ErroringProvider,
    FlappingProvider,
    SleepyProvider,
    SyntheticProvider,
)

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

N_TASKS = 12


def make_pool(n_workers=2, provider=None, **kw):
    provider = provider or SyntheticProvider(N_TASKS)
    assignment = np.arange(provider.n_tasks, dtype=np.int64) % n_workers
    kw.setdefault("timeout", 60.0)
    return SupervisedPool(provider, n_workers, assignment, **kw)


def run_step(pool, scale, rebuild=False):
    assert pool.begin_step()
    pool.dispatch(rebuild, scale)
    assert pool.collect()
    pool.finish_step()


class TestProtocol:
    def test_dispatch_collect_reduction(self):
        with make_pool() as pool:
            data = np.arange(N_TASKS, dtype=np.float64) + 1.0
            pool.view("data")[...] = data
            run_step(pool, 3.0, rebuild=True)
            np.testing.assert_array_equal(pool.scratch[:, 0], data * 3.0)
            stats = pool.stats[:N_TASKS]
            np.testing.assert_array_equal(stats[:, STAT_V0], data * 3.0)
            np.testing.assert_array_equal(stats[:, STAT_V1], data * 6.0)
            np.testing.assert_array_equal(stats[:, STAT_V2], 1.0)
            assert (stats[:, STAT_TIME_NS] > 0).all()

    def test_payload_reaches_every_step(self):
        with make_pool() as pool:
            pool.view("data")[...] = 1.0
            for scale in (1.0, 2.0, 5.0):
                run_step(pool, scale, rebuild=(scale == 1.0))
                np.testing.assert_array_equal(pool.scratch[:, 0], scale)

    def test_worker_rows_after_tasks(self):
        # end_step publishes into stats[n_tasks + worker_id]
        with make_pool() as pool:
            pool.view("data")[...] = 1.0
            run_step(pool, 1.0, rebuild=True)
            worker_rows = pool.stats[N_TASKS : N_TASKS + pool.n_workers]
            assert (worker_rows[:, 0] >= 1.0).all()

    def test_double_dispatch_raises(self):
        with make_pool() as pool:
            pool.begin_step()
            pool.dispatch(True, 1.0)
            with pytest.raises(RuntimeError, match="outstanding"):
                pool.dispatch(True, 1.0)
            assert pool.collect()
            pool.finish_step()

    def test_seq_is_settable(self):
        # clients realign the counter on checkpoint restore
        with make_pool() as pool:
            run_step(pool, 1.0, rebuild=True)
            assert pool.seq == 1
            pool.seq = 41
            run_step(pool, 1.0)
            assert pool.seq == 42

    def test_needs_two_workers(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_pool(n_workers=1)

    def test_reserved_segment_label(self):
        class BadProvider(SyntheticProvider):
            def segments(self):
                return {"scratch": ((4,), "float64")}

        with pytest.raises(ValueError, match="reserved"):
            make_pool(provider=BadProvider(N_TASKS))


class TestFaultPlan:
    """``fault_plan=`` is the pool's one source of injected faults."""

    def test_plan_for_a_missing_worker_refused_before_spawning(self):
        live = len(pool_runtime._LIVE_POOLS)
        with pytest.raises(
            ValueError, match="targets worker 2, but the pool has 2 workers"
        ):
            make_pool(fault_plan=FaultPlan.parse("slow=2@1-3x2"))
        assert len(pool_runtime._LIVE_POOLS) == live

    def test_plan_arms_kills_and_gives_each_worker_its_windows(self):
        plan = FaultPlan.parse("kill=1@2,slow=0@1-3x2,slow=0@5-6x3")
        with make_pool(fault_plan=plan) as pool:
            assert pool.fault_plan.slowdowns == (
                SlowdownWindow(0, 1.0, 3.0, 2.0), SlowdownWindow(0, 5.0, 6.0, 3.0)
            )
            pool.view("data")[...] = np.linspace(0.5, 6.0, N_TASKS)
            run_step(pool, 1.0, rebuild=True)
            expect = pool.scratch[:, 0].copy()
            # worker 1 is killed right after step 2's dispatch; it is
            # respawned in that collect, or at step 3's begin_step if its
            # ack beat the signal
            for _ in range(2):
                run_step(pool, 1.0)
                np.testing.assert_array_equal(pool.scratch[:, 0], expect)
            assert pool.resilience.respawns == 1


def kill_worker(pool, w):
    proc = pool.procs[w]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10.0)
    assert not proc.is_alive()


class TestInProcessExecutor:
    """No workers: the same tasks through the same per-step function."""

    def test_same_scratch_and_stats_as_a_two_process_pool(self):
        provider = SyntheticProvider(N_TASKS)
        data = np.linspace(0.5, 6.0, N_TASKS)
        local = InProcessExecutor(provider)
        local.view("data")[...] = data
        with make_pool(provider=provider) as pool:
            pool.view("data")[...] = data
            for scale, rebuild in ((3.0, True), (0.7, False), (1.9, True)):
                run_step(pool, scale, rebuild)
                local.run(rebuild, scale)
                np.testing.assert_array_equal(local.scratch, pool.scratch)
                values = [STAT_V0, STAT_V1, STAT_V2]
                np.testing.assert_array_equal(
                    local.stats[:N_TASKS, values], pool.stats[:N_TASKS, values]
                )
                assert (local.stats[:N_TASKS, STAT_TIME_NS] > 0).all()
            # one executor rebuilt as often as each worker did (end_step
            # publishes the count into the private row after the tasks)
            assert local.stats[N_TASKS, 0] == 2.0
            np.testing.assert_array_equal(pool.stats[N_TASKS:, 0], 2.0)
        assert (local.assignment == 0).all()



class TestThreadExecutor:
    """N evaluators on N threads: the pool's driver surface, no processes."""

    def threads(self, n_workers, provider=None):
        provider = provider or SyntheticProvider(N_TASKS)
        assignment = np.arange(provider.n_tasks, dtype=np.int64) % n_workers
        return InProcessExecutor(provider, n_workers, assignment, timeout=60.0)

    def test_one_evaluator_runs_on_the_calling_thread(self):
        executor = InProcessExecutor(SyntheticProvider(N_TASKS))
        evaluator = executor._evaluators[0]
        ran_on = []
        evaluator.begin_step = lambda payload: ran_on.append(
            threading.current_thread()
        )
        executor.run(True, 1.0)
        assert executor._threads == [] and ran_on == [threading.current_thread()]

    def test_more_threads_than_cores_reproduce_one_evaluator(self):
        """Four threads, a 1 us switch interval, many short steps: a collect
        that returned before every thread finished shows as a stale block,
        a lost wake-up as a timeout."""
        data = np.linspace(0.5, 6.0, N_TASKS)
        serial = InProcessExecutor(SyntheticProvider(N_TASKS))
        serial.view("data")[...] = data
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with self.threads(4) as threaded:
                threads = threaded._threads
                threaded.view("data")[...] = data
                for k in range(200):
                    scale, rebuild = 1.0 + k, k % 7 == 0
                    serial.run(rebuild, scale)
                    threaded.dispatch(rebuild, scale)
                    assert threaded.collect()
                    threaded.finish_step()
                    np.testing.assert_array_equal(threaded.scratch, serial.scratch)
                    np.testing.assert_array_equal(
                        threaded.stats[:N_TASKS, :3], serial.stats[:N_TASKS, :3]
                    )
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_an_evaluator_error_surfaces_after_every_thread(self):
        with self.threads(3, ErroringProvider(N_TASKS)) as threaded:
            threaded.view("data")[...] = 1.0
            threaded.dispatch(True, 2.0)
            with pytest.raises(RuntimeError, match="synthetic task failure") as info:
                threaded.collect()
            if hasattr(info.value, "add_note"):  # Python >= 3.11
                assert "repro-executor-0" in str(info.value.__notes__)
            # worker 0 stopped at task 0; the other threads finished theirs
            others = np.arange(N_TASKS) % 3 != 0
            np.testing.assert_array_equal(threaded.scratch[others, 0], 2.0)
            assert threaded.pending is None and threaded.active


class TestBatchedEvaluation:
    """An evaluator with ``eval_batch``: one call for the tasks it covers,
    the per-task loop for the rest — same scratch, same stats."""

    def test_batch_then_the_rest_equals_the_per_task_loop(self):
        data = np.linspace(0.5, 6.0, N_TASKS)
        plain = InProcessExecutor(SyntheticProvider(N_TASKS))
        batched = InProcessExecutor(BatchingProvider(N_TASKS))
        values = [STAT_V0, STAT_V1, STAT_V2]
        with make_pool(provider=BatchingProvider(N_TASKS)) as pool:
            for executor in (plain, batched, pool):
                executor.view("data")[...] = data
            for scale, rebuild in ((3.0, True), (0.7, False)):
                plain.run(rebuild, scale)
                batched.run(rebuild, scale)
                run_step(pool, scale, rebuild)
                for got in (batched, pool):
                    np.testing.assert_array_equal(got.scratch, plain.scratch)
                    np.testing.assert_array_equal(
                        got.stats[:N_TASKS, values], plain.stats[:N_TASKS, values]
                    )
                    # the evaluator's own clock for the tasks it batched
                    np.testing.assert_array_equal(
                        got.stats[0:N_TASKS:2, STAT_TIME_NS],
                        1000.0 * np.arange(1, N_TASKS + 1, 2),
                    )
                    assert (got.stats[1:N_TASKS:2, STAT_TIME_NS] > 0).all()

    def test_slowdown_scales_a_batchs_own_times_and_spins_for_the_difference(self):
        executor = InProcessExecutor(BatchingProvider(N_TASKS))
        executor.view("data")[...] = 1.0
        state, evaluator = executor._states[0], executor._evaluators[0]
        state.faults = FaultPlan.parse("slow=0@2-4x3,slow=0@3-4x2")
        for seq, factor in ((1, 1.0), (2, 3.0), (3, 6.0), (4, 1.0)):
            t0 = time.perf_counter_ns()
            pool_runtime.run_step(
                evaluator, state, executor.scratch, executor.stats, seq, seq == 1, 1.0
            )
            wall = time.perf_counter_ns() - t0
            own = evaluator.last_rows[:, STAT_TIME_NS]
            recorded = executor.stats[evaluator.batched, STAT_TIME_NS]
            np.testing.assert_array_equal(recorded, own * factor)
            assert wall >= (factor - 1.0) * own.sum()


class TestRecovery:
    def test_midstep_kill_respawned_same_result(self):
        # ~20 ms/task leaves a wide window to land the kill in flight
        with make_pool(provider=SleepyProvider(N_TASKS)) as pool:
            data = np.linspace(0.5, 6.0, N_TASKS)
            pool.view("data")[...] = data
            run_step(pool, 1.0, rebuild=True)
            expect = pool.scratch[:, 0].copy()
            pool.begin_step()
            pool.dispatch(False, 1.0)
            os.kill(pool.procs[0].pid, signal.SIGKILL)
            assert pool.collect()
            pool.finish_step()
            np.testing.assert_array_equal(pool.scratch[:, 0], expect)
            assert pool.resilience.respawns >= 1
            assert pool.n_live == pool.n_workers

    def test_idle_death_respawned_at_begin_step(self):
        with make_pool() as pool:
            data = np.linspace(0.5, 6.0, N_TASKS)
            pool.view("data")[...] = data
            run_step(pool, 1.0, rebuild=True)
            expect = pool.scratch[:, 0].copy()
            kill_worker(pool, 0)
            run_step(pool, 1.0)  # begin_step heals before dispatching
            np.testing.assert_array_equal(pool.scratch[:, 0], expect)
            assert pool.resilience.respawns == 1
            assert pool.n_live == pool.n_workers

    def test_respawn_budget_exhausted_reassigns(self):
        policy = RecoveryPolicy(max_respawns=0)
        with make_pool(n_workers=3, policy=policy) as pool:
            pool.view("data")[...] = 1.0
            run_step(pool, 2.0, rebuild=True)
            kill_worker(pool, 1)
            assert pool.begin_step()
            assert pool.n_live == 2
            assert 1 not in set(pool.assignment.tolist())
            assert pool.resilience.respawns == 0
            assert pool.resilience.tasks_reassigned > 0
            assert pool.resilience.mode == "degraded"
            # the new map must reach the survivors with the next rebuild
            pool.dispatch(True, 3.0, pool.assignment)
            assert pool.collect()
            pool.finish_step()
            np.testing.assert_array_equal(pool.scratch[:, 0], 3.0)

    def test_reassignment_between_steps_reaches_the_next_plain_step(self):
        # regression: a worker found dead by begin_step had its tasks moved,
        # but a following dispatch without rebuild or assignment told no
        # survivor, so the moved tasks' blocks kept the previous step's values
        policy = RecoveryPolicy(max_respawns=0)
        with make_pool(n_workers=3, policy=policy) as pool:
            pool.view("data")[...] = 1.0
            run_step(pool, 2.0, rebuild=True)
            kill_worker(pool, 1)
            run_step(pool, 3.0)
            assert pool.resilience.tasks_reassigned > 0
            np.testing.assert_array_equal(pool.scratch[:, 0], 3.0)

    def test_reassign_callback_controls_placement(self):
        seen = {}

        def reassign(dead, assignment, survivors):
            seen["args"] = (dead, sorted(survivors))
            new = assignment.copy()
            new[assignment == dead] = survivors[0]
            return new

        policy = RecoveryPolicy(max_respawns=0)
        with make_pool(n_workers=3, policy=policy, reassign=reassign) as pool:
            pool.view("data")[...] = 1.0
            run_step(pool, 1.0, rebuild=True)
            kill_worker(pool, 2)
            assert pool.begin_step()
            dead, survivors = seen["args"]
            assert dead == 2 and survivors == [0, 1]
            orphan_owners = {
                int(pool.assignment[t]) for t in range(N_TASKS) if t % 3 == 2
            }
            assert orphan_owners == {0}
            pool.dispatch(True, 4.0, pool.assignment)
            assert pool.collect()
            pool.finish_step()
            np.testing.assert_array_equal(pool.scratch[:, 0], 4.0)

    def test_erroring_task_degrades_and_reports(self):
        policy = RecoveryPolicy(max_respawns=1, max_recovery_rounds=2)
        pool = make_pool(provider=ErroringProvider(N_TASKS), policy=policy)
        try:
            pool.view("data")[...] = 1.0
            pool.begin_step()
            pool.dispatch(True, 1.0)
            with pytest.warns(RuntimeWarning, match="degraded"):
                assert not pool.collect()
            assert not pool.active
            assert pool.degraded_reason is not None
            assert pool.resilience.mode == "sequential"
        finally:
            pool.close()

    def test_flapping_worker_bounded_by_recovery_budget(self):
        # hang -> respawn -> hang: every incarnation hangs again on task 0.
        # Each recovery rung re-arms a fresh per-attempt deadline, so
        # without the total budget this ladder would churn through
        # ~max_respawns rungs per worker slot (minutes of wall clock)
        # before the rounds limit bites.  The budget must force the
        # degrade rung within a couple of seconds instead.
        policy = RecoveryPolicy(
            max_respawns=50,
            respawn_backoff_s=0.01,
            max_recovery_rounds=200,
            hang_timeout_s=0.25,
            recovery_budget_s=1.5,
        )
        pool = make_pool(provider=FlappingProvider(N_TASKS), policy=policy)
        try:
            pool.view("data")[...] = 1.0
            pool.begin_step()
            pool.dispatch(True, 1.0)
            t0 = time.monotonic()
            with pytest.warns(RuntimeWarning, match="recovery budget exhausted"):
                assert not pool.collect()
            elapsed = time.monotonic() - t0
            # generous for slow CI, but far below the pre-fix ladder's
            # ~100 rungs x (detection + respawn) wall time
            assert elapsed < 15.0
            assert pool.resilience.mode == "sequential"
            assert "budget" in (pool.degraded_reason or "")
        finally:
            pool.close()

    def test_recovery_budget_spares_healthy_recoveries(self):
        # a single clean kill + respawn must stay well inside the default
        # budget (recovery_budget_factor x timeout) and finish the step
        with make_pool(provider=SleepyProvider(N_TASKS)) as pool:
            data = np.linspace(0.5, 6.0, N_TASKS)
            pool.view("data")[...] = data
            run_step(pool, 1.0, rebuild=True)
            expect = pool.scratch[:, 0].copy()
            pool.begin_step()
            pool.dispatch(False, 1.0)
            os.kill(pool.procs[0].pid, signal.SIGKILL)
            assert pool.collect()
            pool.finish_step()
            np.testing.assert_array_equal(pool.scratch[:, 0], expect)
            assert pool.resilience.mode == "full"

    def test_recovery_budget_policy_validation(self):
        assert RecoveryPolicy(recovery_budget_s=2.0).recovery_budget(60.0) == 2.0
        assert RecoveryPolicy().recovery_budget(10.0) == 30.0
        with pytest.raises(ValueError, match="recovery_budget_s"):
            RecoveryPolicy(recovery_budget_s=0.0)
        with pytest.raises(ValueError, match="recovery_budget_factor"):
            RecoveryPolicy(recovery_budget_factor=0.5)

    def test_recovery_notes_forwarded(self):
        notes = []
        with make_pool(on_recovery_note=lambda label, n=1: notes.append(label)) as pool:
            pool.view("data")[...] = 1.0
            run_step(pool, 1.0, rebuild=True)
            kill_worker(pool, 0)
            run_step(pool, 1.0)
        assert "kills" in notes and "respawns" in notes


class TestLifecycle:
    def test_close_idempotent_and_releases_processes(self):
        pool = make_pool()
        procs = [p for p in pool.procs]
        pool.close()
        pool.close()
        assert not pool.active
        assert all(not p.is_alive() for p in procs)

    def test_atexit_registry_deregisters_on_close(self):
        # explicit close() must leave no dead-object callback behind: the
        # pool leaves the live registry the moment it closes
        pool = make_pool()
        assert pool in pool_runtime._LIVE_POOLS
        pool.close()
        assert pool not in pool_runtime._LIVE_POOLS

    def test_atexit_sweep_closes_stragglers(self):
        pool = make_pool()
        try:
            pool_runtime._close_live_pools()
            assert not pool.active
            assert pool not in pool_runtime._LIVE_POOLS
        finally:
            pool.close()

    def test_close_during_recovery_backoff_spawns_nothing(self):
        # close() landing inside the recovery ladder's backoff sleep must
        # not orphan a half-spawned replacement worker
        class ClosingPolicy(RecoveryPolicy):
            def backoff(self, attempt):
                pool_box["pool"].close()
                return 0.0

        pool_box = {}
        pool = make_pool(policy=ClosingPolicy())
        pool_box["pool"] = pool
        try:
            pool.view("data")[...] = 1.0
            run_step(pool, 1.0, rebuild=True)
            kill_worker(pool, 0)
            assert not pool.begin_step()  # close won the race: no heal
            assert not pool.active
            # nothing respawned into the torn-down pool
            assert pool.resilience.respawns == 0
            assert pool.procs == []
        finally:
            pool.close()

    def test_spawn_refused_on_closed_pool(self):
        pool = make_pool()
        pool.close()
        assert pool._spawn_worker(0) is False

    def test_close_between_spawn_start_and_return_reaps_worker(self):
        # the second guard: close() arriving after Process.start() but
        # before _spawn_worker returns must reap the half-spawned worker
        pool = make_pool()

        class RacingCtx:
            def __init__(self, ctx):
                self._ctx = ctx

            def Pipe(self, duplex=False):
                return self._ctx.Pipe(duplex=duplex)

            def Process(self, **kw):
                proc = self._ctx.Process(**kw)
                orig_start = proc.start

                def start():
                    orig_start()
                    pool._closed = True  # the racing close() lands here

                proc.start = start
                return proc

        try:
            pool._reap_worker(0)
            pool._ctx = RacingCtx(pool._ctx)
            assert pool._spawn_worker(0) is False
            assert pool._procs[0] is None
            assert pool._cmd_conns[0] is None
        finally:
            pool._closed = False  # the simulated close never tore down
            pool.close()
