"""The real shared-memory parallel engine.

Agreement with the reference functions (1e-9 at every worker count; see
``oracle.py``), determinism (same worker count -> bit-identical
trajectories), NVE energy conservation on the pool, and pool lifecycle
(no pool, close, context manager): without workers the same tasks run
in-process, bit-identically.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builder import small_water_box
from repro.md.engine import SequentialEngine, make_engine
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import (
    HAS_SHARED_MEMORY,
    ParallelEngine,
    ParallelNonbonded,
)
from repro.pool import RecoveryPolicy
from repro.pool import contiguous_partition as _contiguous_partition

from .oracle import assert_matches_reference

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

OPTS = NonbondedOptions(cutoff=8.0)


@pytest.fixture(scope="module")
def water600():
    """A 600-molecule water box (1800 atoms) — 2x2x2 task cells at 9.5 Å."""
    return small_water_box(600, seed=7, relax=False)


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_water_box_forces_and_energies(self, water600, workers):
        with ParallelEngine(water600.copy(), options=OPTS, workers=workers) as eng:
            assert eng.parallel == (workers > 1) and eng.workers == workers
            assert_matches_reference(eng)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_protein_ion_assembly(self, assembly, workers):
        with ParallelEngine(assembly.copy(), options=OPTS, workers=workers) as eng:
            assert eng.parallel
            assert_matches_reference(eng)

    def test_agreement_holds_across_steps(self, water600):
        """Pairlist reuse and rebuilds stay in agreement with per-call
        enumeration."""
        s = water600.copy()
        s.assign_velocities(300.0, seed=5)
        with ParallelEngine(s, OPTS, VelocityVerlet(dt=1.0), workers=2) as par:
            assert par.parallel
            for _ in range(5):
                par.step()
                assert_matches_reference(par, par._forces)
            assert par.pairlist.n_reuses > 0  # the Verlet lists actually amortize


class TestDeterminism:
    def test_same_worker_count_bit_identical(self, water600):
        trajectories = []
        for _run in range(2):
            s = water600.copy()
            s.assign_velocities(300.0, seed=13)
            with ParallelEngine(s, options=OPTS, workers=3) as eng:
                assert eng.parallel
                reports = eng.run(5)
            trajectories.append(
                (s.positions.copy(), s.velocities.copy(), reports[-1].total)
            )
        (p0, v0, e0), (p1, v1, e1) = trajectories
        assert np.array_equal(p0, p1)
        assert np.array_equal(v0, v1)
        assert e0 == e1


class TestEnergyConservation:
    def test_nve_drift_bound_200_steps_parallel(self):
        """Secular drift on the parallel path matches the sequential bound."""
        system = small_water_box(100, seed=4)
        system.assign_velocities(300.0, seed=11)
        opts = NonbondedOptions(cutoff=5.0, switch_dist=4.0)
        with ParallelEngine(
            system, opts, VelocityVerlet(dt=0.5), workers=2, skin=1.0
        ) as engine:
            assert engine.parallel
            e0 = engine.step().total
            totals = [rep.total for rep in engine.run(200)]
        rel_dev = np.abs(np.array(totals) - e0) / abs(e0)
        assert rel_dev.max() < 5e-3, f"max relative drift {rel_dev.max():.2e}"
        assert abs(totals[-1] - e0) / abs(e0) < 5e-3


class TestLifecycle:
    def test_workers_one_is_sequential(self, water600):
        eng = ParallelEngine(water600.copy(), options=OPTS, workers=1)
        assert not eng.parallel
        assert eng.workers == 1
        eng.close()  # no-op, must not raise

    def test_small_box_falls_back(self):
        # one task cell only -> nothing to distribute -> no pool
        s = small_water_box(50, seed=1, relax=False)
        with ParallelEngine(s, options=OPTS, workers=4) as eng:
            assert not eng.parallel
            assert_matches_reference(eng)

    def test_close_is_idempotent_and_degrades_gracefully(self, water600):
        eng = ParallelEngine(water600.copy(), options=OPTS, workers=2)
        assert eng.parallel
        pooled = eng.compute_forces()
        eng.close()
        eng.close()
        assert not eng.parallel
        # the engine still works after close: same tasks, in-process
        assert np.array_equal(eng.compute_forces(), pooled)

    def test_evaluator_protocol_errors(self, water600):
        nb = ParallelNonbonded(water600.copy(), OPTS, n_workers=2)
        assert nb.active
        try:
            with pytest.raises(RuntimeError, match="without a dispatch"):
                nb.collect()
            nb.dispatch()
            with pytest.raises(RuntimeError, match="outstanding"):
                nb.dispatch()
            nb.collect()
        finally:
            nb.close()
        # the pairing holds without workers too
        with pytest.raises(RuntimeError, match="without a dispatch"):
            nb.collect()
        nb.dispatch()
        with pytest.raises(RuntimeError, match="outstanding"):
            nb.dispatch()
        nb.collect()

    def test_the_layout_is_built_after_the_workers_start(self, water600):
        """On a rebuild step the driver publishes the reference positions
        and starts the workers first, then bins its reduction layout (read
        by collect() only) while they build their lists; a reuse step
        builds no layout."""
        nb = ParallelNonbonded(water600.copy(), OPTS, n_workers=2)
        events = []
        start, layout = nb._pool.dispatch, nb.pairlist._build

        def dispatching(rebuild, *args):
            events.append(("dispatch", rebuild))
            return start(rebuild, *args)

        def laying_out(*args):
            events.append(("layout", np.array_equal(nb._pool.view("ref"), args[0])))
            return layout(*args)

        nb._pool.dispatch, nb.pairlist._build = dispatching, laying_out
        try:
            assert nb.active
            first = nb.compute()
            assert events == [("dispatch", True), ("layout", True)]
            again = nb.compute()  # nothing moved: the lists are reused
            assert events[2:] == [("dispatch", False)]
            assert np.array_equal(again.forces, first.forces)
        finally:
            nb.close()

    def test_make_engine_factory(self, water600):
        seq = make_engine(water600.copy(), OPTS, workers=1)
        assert type(seq) is SequentialEngine
        with make_engine(water600.copy(), OPTS, workers=2) as par:
            assert isinstance(par, ParallelEngine)
            assert par.parallel

    def test_workers_clamped_to_task_count(self, water600):
        # 2x2x2 grid -> far fewer tasks than 64 requested workers
        with ParallelEngine(water600.copy(), options=OPTS, workers=64) as eng:
            assert eng.parallel
            assert 1 < eng.workers <= 64
            assert_matches_reference(eng)


class TestPartition:
    def test_balanced_and_contiguous(self):
        costs = np.ones(12)
        bounds = _contiguous_partition(costs, 4)
        assert bounds.tolist() == [0, 3, 6, 9, 12]

    def test_skewed_costs(self):
        costs = np.array([100.0, 1.0, 1.0, 1.0])
        bounds = _contiguous_partition(costs, 2)
        assert bounds[0] == 0 and bounds[-1] == 4
        assert np.all(np.diff(bounds) >= 0)

    def test_a_cut_goes_to_the_nearer_side_of_the_task_that_straddles_it(self):
        # ten small tasks and three large ones, the target inside the first
        # large one: 10 | 12, not 14 | 8
        costs = np.array([1.0] * 10 + [4.0] * 3)
        assert _contiguous_partition(costs, 2).tolist() == [0, 10, 13]
        assert _contiguous_partition(costs[::-1], 2).tolist() == [0, 3, 13]

    def test_zero_costs(self):
        bounds = _contiguous_partition(np.zeros(8), 4)
        assert bounds.tolist() == [0, 2, 4, 6, 8]

    def test_dominant_task_keeps_parts_nonempty(self):
        # all prefix targets land inside the huge last task: the raw cuts
        # collapse onto the end and starve every part but the last
        bounds = _contiguous_partition(np.array([1.0, 1.0, 1.0, 100.0]), 4)
        assert bounds.tolist() == [0, 1, 2, 3, 4]

    def test_leading_zero_costs_do_not_starve_parts(self):
        # searchsorted(side="left") skips past the zero-cost prefix
        bounds = _contiguous_partition(np.array([0.0, 0.0, 0.0, 1.0]), 2)
        assert bounds[0] == 0 and bounds[-1] == 4
        assert np.all(np.diff(bounds) >= 1)

    def test_more_parts_than_tasks(self):
        bounds = _contiguous_partition(np.ones(3), 5)
        assert bounds.tolist() == [0, 1, 2, 3, 3, 3]

    @given(
        costs=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        n_parts=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_partition_properties(self, costs, n_parts):
        costs = np.asarray(costs, dtype=np.float64)
        n_tasks = len(costs)
        bounds = _contiguous_partition(costs, n_parts)
        # shape, monotonicity, full coverage
        assert len(bounds) == n_parts + 1
        assert bounds[0] == 0 and bounds[-1] == n_tasks
        assert np.all(np.diff(bounds) >= 0)
        # no starved part while tasks last
        if n_tasks >= n_parts:
            assert np.all(np.diff(bounds) >= 1)
        else:
            assert np.all(np.diff(bounds)[:n_tasks] == 1)
        part_costs = np.array(
            [costs[bounds[k] : bounds[k + 1]].sum() for k in range(n_parts)]
        )
        total = float(costs.sum())
        assert part_costs.max(initial=0.0) <= total + 1e-9 * max(total, 1.0)
        # 2x-ideal quality bound whenever no single task exceeds the ideal
        ideal = total / n_parts
        if total > 0.0 and float(costs.max()) <= ideal:
            assert part_costs.max() <= 2.0 * ideal + 1e-6 * total

    @given(
        costs=st.lists(
            st.floats(min_value=0.5, max_value=1.0, allow_nan=False),
            min_size=24,
            max_size=48,
        ),
        n_parts=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_quality_near_uniform(self, costs, n_parts):
        # near-uniform costs always satisfy the c_max <= ideal premise, so
        # the 2x-ideal bound is exercised on every example
        costs = np.asarray(costs, dtype=np.float64)
        bounds = _contiguous_partition(costs, n_parts)
        part_costs = np.array(
            [costs[bounds[k] : bounds[k + 1]].sum() for k in range(n_parts)]
        )
        total = float(costs.sum())
        ideal = total / n_parts
        if float(costs.max()) <= ideal:
            assert part_costs.max() <= 2.0 * ideal + 1e-6 * total


#: what selects each executor: supervision means worker processes
EXECUTORS = {"threads": {}, "processes": {"recovery": RecoveryPolicy()}}


class TestPoolFailure:
    """Worker processes (the tests kill, stop and inspect them), and the
    close paths on threads as well."""

    def test_timeout_budget_starts_at_dispatch(self, water600):
        # regression: the deadline used to be computed inside collect(),
        # *after* the driver's 1-4 pass silently ate into the budget
        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, timeout=30.0,
            recovery=RecoveryPolicy(),
        )
        assert nb.active
        try:
            t0 = time.monotonic()
            nb.dispatch()
            assert nb._pool.deadline is not None
            assert nb._pool.deadline <= t0 + 30.0 + 1.0
            nb.collect()
            assert nb._pool.deadline is None
        finally:
            nb.close()

    def test_killed_worker_is_recovered_not_fatal(self, water600):
        # regression for the old one-way cliff: a dead worker used to close
        # the pool and raise; the supervisor now respawns it and the
        # evaluation completes bit-identically on the *live* pool
        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, timeout=60.0,
            recovery=RecoveryPolicy(),
        )
        try:
            assert nb.active
            first = nb.compute()
            nb._pool.procs[0].terminate()
            nb._pool.procs[0].join(timeout=5.0)
            again = nb.compute()
            assert nb.active  # recovered, not degraded to the fallback
            assert nb._pool.pending is None
            assert nb.resilience.kills_detected == 1
            assert nb.resilience.respawns == 1
            assert nb.resilience.mode == "full"
            assert np.array_equal(again.forces, first.forces)
            assert again.energy_lj == first.energy_lj
            assert again.energy_elec == first.energy_elec
        finally:
            nb.close()

    def test_dead_worker_detected_between_steps(self, water600):
        # liveness is swept at dispatch too, not only inside collect()
        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, timeout=60.0,
            recovery=RecoveryPolicy(),
        )
        try:
            assert nb.active
            nb.compute()
            nb._pool.procs[1].kill()
            nb._pool.procs[1].join(timeout=5.0)
            nb.compute()
            assert nb.resilience.kills_detected == 1
            assert nb.resilience.respawns == 1
        finally:
            nb.close()

    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_double_close_is_idempotent(self, water600, executor):
        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, timeout=60.0,
            **EXECUTORS[executor],
        )
        assert nb.active
        first = nb.compute()
        nb.close()
        assert not nb.active
        nb.close()  # second close must be a no-op, not an error
        assert not nb.active
        # the evaluator stays usable: the same tasks, in-process
        again = nb.compute()
        assert np.array_equal(again.forces, first.forces)
        assert again.energy_lj == first.energy_lj

    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_close_during_dispatch_is_safe(self, water600, executor):
        # close() with a collect() outstanding must drop the pending
        # evaluation so later compute() calls don't trip the pairing guard
        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, timeout=60.0,
            **EXECUTORS[executor],
        )
        assert nb.active
        nb.dispatch()
        nb.close()
        assert nb._pool.pending is None
        assert not nb.active
        res = nb.compute()  # the dropped evaluation's tasks, in-process
        assert np.isfinite(res.energy_lj)

    def test_teardown_latency_is_bounded(self, water600):
        # a pool with a SIGSTOP'd (unjoinable-by-wait) worker must still
        # close within the overall teardown budget, not 5 s per worker
        import os
        import signal

        if not hasattr(signal, "SIGSTOP"):
            pytest.skip("platform lacks SIGSTOP")
        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, timeout=60.0,
            recovery=RecoveryPolicy(),
        )
        try:
            assert nb.active
            nb.compute()
            for proc in nb._pool.procs:
                os.kill(proc.pid, signal.SIGSTOP)
            t0 = time.monotonic()
            nb.close()
            elapsed = time.monotonic() - t0
            budget = ParallelNonbonded._TEARDOWN_BUDGET_S
            assert elapsed < budget + 3.0, (
                f"teardown took {elapsed:.1f}s for 2 stopped workers "
                f"(budget {budget:.0f}s overall)"
            )
        finally:
            nb.close()


class Boom(RuntimeError):
    pass


def live(threads) -> set:
    """Those of ``threads`` that ``threading.enumerate()`` still lists."""
    return set(threads) & set(threading.enumerate())


class TestThreadFailure:
    """Threads have no recovery ladder: a failure surfaces from the step,
    bounded in time, and the engine stays usable with the same bits."""

    def test_task_exception_surfaces_from_step_after_every_thread(self, water600):
        s = water600.copy()
        s.assign_velocities(300.0, seed=5)
        with ParallelEngine(s, OPTS, VelocityVerlet(dt=1.0), workers=2) as eng:
            assert eng.driver_report()["executor"] == "threads"
            eng.step()
            nb = eng._nb
            slow, failing = nb._pool._evaluators
            batch = slow.eval_batch
            finished = []

            def slow_batch(scratch):
                time.sleep(0.3)
                out = batch(scratch)
                finished.append(True)
                return out

            def boom(scratch):
                raise Boom("task failure")

            slow.eval_batch, failing.eval_batch = slow_batch, boom
            n_evals, steps = nb.n_evals, eng.workdb.measured_steps
            with pytest.raises(Boom) as info:
                eng.step()
            assert finished  # the slow thread was done before it surfaced
            if hasattr(info.value, "add_note"):  # Python >= 3.11
                assert "executor thread repro-executor-1" in str(
                    info.value.__notes__
                )
            # nothing of the failed evaluation was reduced or recorded
            assert (nb.n_evals, eng.workdb.measured_steps) == (n_evals, steps)
            assert nb._pool.pending is None and eng.parallel

    def test_after_an_exception_the_evaluator_rebuilds_to_the_same_bits(
        self, water600
    ):
        nb = ParallelNonbonded(water600.copy(), OPTS, n_workers=2)
        try:
            first = nb.compute()
            failing = nb._pool._evaluators[1]
            failing.eval_batch = lambda scratch: failing.lists.cols.fill(-1)
            with pytest.raises(TypeError):  # and its lists are garbage now
                nb.compute()
            del failing.eval_batch
            again = nb.compute()  # a reuse step: only the failed one rebuilds
            assert nb.pairlist.n_builds == 1
            assert np.array_equal(again.forces, first.forces)
            assert again.energy_lj == first.energy_lj
        finally:
            nb.close()

    def test_silent_thread_raises_timeout_then_runs_in_process(self, water600):
        nb = ParallelNonbonded(water600.copy(), OPTS, n_workers=2, timeout=0.5)
        gate = threading.Event()
        threads = nb._pool._threads
        try:
            first = nb.compute()
            silent = nb._pool._evaluators[1]
            batch = silent.eval_batch

            def stuck(scratch):
                gate.wait(60.0)
                return batch(scratch)

            silent.eval_batch = stuck
            t0 = time.monotonic()
            with pytest.raises(TimeoutError, match="repro-executor-1"):
                nb.compute()
            assert time.monotonic() - t0 < 30.0
            assert not nb.active
            assert nb.driver_report()["executor"] == "in-process"
            again = nb.compute()  # the tasks, on the calling thread
            assert np.array_equal(again.forces, first.forces)
        finally:
            gate.set()
            nb.close()
        assert not live(threads)

    def test_close_joins_every_thread_with_a_dispatch_outstanding(self, water600):
        nb = ParallelNonbonded(water600.copy(), OPTS, n_workers=3)
        first = nb.compute()
        threads = nb._pool._threads
        assert len(threads) == 3 and live(threads) == set(threads)
        nb.dispatch()
        nb.close()
        nb.close()
        assert not live(threads)
        later = nb.compute()
        assert np.array_equal(later.forces, first.forces)


class NonInPlaceVerlet:
    """Velocity Verlet that hands ``force_fn`` a *fresh* positions array
    instead of mutating the one it was given — the integrator contract's
    other allowed shape (md/engine.py ``force_fn``).  Same arithmetic as
    :class:`repro.md.integrator.VelocityVerlet`."""

    def __init__(self, dt: float = 1.0) -> None:
        self.dt = dt

    def step(self, positions, velocities, forces, masses, force_fn):
        from repro.md.constants import ACC_CONVERSION

        kick = 0.5 * self.dt * ACC_CONVERSION
        v_half = velocities + kick * forces / masses[:, None]
        new_pos = positions + self.dt * v_half
        new_forces = force_fn(new_pos)
        velocities[...] = v_half + kick * new_forces / masses[:, None]
        return new_forces


class TestWrapSemantics:
    def test_construction_does_not_touch_positions(self):
        # parallel-engine construction used to wrap (and rebind) the
        # caller's positions; the sequential engine never did
        s = small_water_box(600, seed=7, relax=False)
        shifted = s.positions + np.asarray(s.box) * np.array([1.0, 0.0, 0.0])
        s.positions = shifted
        snapshot = shifted.copy()
        with ParallelEngine(s, options=OPTS, workers=2) as eng:
            assert eng.parallel
            assert s.positions is shifted
            assert np.array_equal(s.positions, snapshot)

    def test_non_in_place_integrator_matches_sequential(self, water600):
        def run(workers):
            s = water600.copy()
            s.assign_velocities(300.0, seed=5)
            with make_engine(
                s, OPTS, NonInPlaceVerlet(dt=1.0), workers=workers
            ) as eng:
                reports = eng.run(5)
            return s.positions.copy(), reports[-1].total

        p_seq, e_seq = run(1)
        p_par, e_par = run(3)
        assert np.array_equal(p_par, p_seq)
        assert e_par == e_seq
