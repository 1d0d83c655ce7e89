"""Measurement-based rebalancing of the real parallel engine: the
decisions, their schedule, the load they shed, the WorkDB that feeds them.

That a remap leaves a run's bits alone is ``test_conformance.py``'s; at
which steps maps change follows measured times, so it is asserted only
through recorded samples (:class:`TestScheduleDeterminism`).
"""

import numpy as np
import pytest

from repro.builder import skewed_water_box
from repro.instrument import WorkDB
from repro.md import lb_driver
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine, ParallelNonbonded

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="multiprocessing.shared_memory unavailable"
)

OPTS = NonbondedOptions(cutoff=6.0)


@pytest.fixture(scope="module")
def skewed150():
    return skewed_water_box(150, seed=3, skew=2.0, relax=False)


def run_parallel(system, n_steps, **kwargs):
    """Run a fresh engine on a copy; return its remap steps and LB log."""
    with ParallelEngine(
        system.copy(), options=OPTS, workers=2, skin=1.0, **kwargs
    ) as eng:
        eng.run(n_steps)
        return list(eng.remap_steps), [dict(r) for r in eng.rebalance_log]


class TestRemaps:
    def test_rebalancing_run_remaps_at_least_twice(self, water150):
        remaps, log = run_parallel(
            water150, 12, rebalance_every=4, fault_plan="slow=0@0-infx3"
        )
        assert len(log) >= 2, "two LB decisions expected in 12 steps"
        assert len(remaps) >= 2, "slowdown must force actual task migration"
        # remap points are step-indexed: installed at the dispatch after the
        # decision, strictly increasing
        assert remaps == sorted(set(remaps))

    def test_static_run_never_remaps(self, water150):
        remaps, log = run_parallel(water150, 5, rebalance_every=0)
        assert remaps == []
        assert log == []


class TestScheduleDeterminism:
    """The remap schedule is a function of the measured task times, so it
    repeats when the times do: the same recorded samples through ``WorkDB``
    and ``lb_driver`` give the same decisions."""

    N_CELLS = 8

    def decisions(self, samples):
        """The engine's cadence over recorded ``(step, task)`` samples: a
        decision every fourth step, greedy first and refine after, each
        new map installed before the next sample is taken."""
        cells = range(self.N_CELLS)
        pairs = [(a, b) for a in cells for b in cells if a <= b]
        self_task_of = {a: pairs.index((a, a)) for a in cells}
        db = WorkDB()
        assignment = np.arange(len(pairs)) % 2
        for tid, patches in enumerate(pairs):
            db.ensure_task(tid, patches, prior=1.0, owner=assignment[tid])
        out = []
        for step, row in enumerate(samples, 1):
            db.record_many(range(len(pairs)), row, owners=assignment)
            db.mark_step()
            if step % 4 == 0:
                problem = lb_driver.build_driver_problem(
                    db, 2, assignment, self_task_of, frozenset()
                )
                assignment, record = lb_driver.plan_rebalance(
                    problem, assignment, step, "refine" if out else "greedy"
                )
                out.append((assignment.tolist(), record))
        return out

    def test_same_task_times_give_the_same_decisions(self):
        rng = np.random.default_rng(5)
        n_tasks = self.N_CELLS * (self.N_CELLS + 1) // 2
        samples = rng.uniform(0.5e-3, 1.5e-3, (12, n_tasks))
        samples[:, ::2] *= 3.0  # what worker 0 starts with runs slow
        first = self.decisions(samples)
        assert len(first) == 3 and first[0][1]["moved"] > 0
        assert self.decisions(samples) == first


class TestLoadShrink:
    def test_refine_shrinks_max_worker_load(self, skewed150):
        """On the skewed box with a 5x-slowed worker 0, one refinement pass
        must cut the predicted max-worker load by at least 20%.

        ``rebalance_every=8`` matches the WorkDB measurement window, so the
        first decision sees pure measurements (the cost-model prior's blend
        weight has reached zero) and the full injected imbalance.  The 5x
        factor keeps the signal far above host scheduling jitter."""
        _, log = run_parallel(
            skewed150,
            9,
            rebalance_every=8,
            lb_strategy="refine",
            fault_plan="slow=0@0-infx5",
        )
        assert log, "at least one LB decision expected"
        first = log[0]
        assert first["strategy"] == "refine"
        assert first["moved"] > 0
        assert first["max_load_after"] <= 0.8 * first["max_load_before"]
        assert first["imbalance_ratio_after"] < first["imbalance_ratio_before"]

    def test_slowdown_creates_measurable_imbalance(self, water150):
        """The fault-injection hook itself, measured within one worker: its
        tasks take at least twice as long inside a 3x slowdown window as
        before it.  (Not against the other worker's wall time: host
        contention moves that ratio, but cannot shorten a busy-spin that
        is three times the task's own compute time.  And not against the
        first evaluations alone: a freshly forked worker pays its
        copy-on-write faults there, so the window opens at the fifth.)"""
        eng = ParallelEngine(
            water150.copy(), options=OPTS, workers=2, skin=1.0,
            fault_plan="slow=0@5-100x3",
        )
        try:
            eng.run(7)  # evaluations 1-4 before the window, 5-8 inside it
            slowed = [
                list(rec.window)
                for rec in eng.workdb.tasks.values()
                if rec.owner == 0
            ]
        finally:
            eng.close()
        assert slowed and all(len(times) == 8 for times in slowed)
        # per task the quietest sample of each half: a preempted sample
        # only ever reads longer
        before = sum(min(times[:4]) for times in slowed)
        inside = sum(min(times[4:]) for times in slowed)
        assert inside > 2.0 * before

    def test_greedy_then_refine_default_schedule(self, water150):
        _, log = run_parallel(
            water150, 10, rebalance_every=4, fault_plan="slow=0@0-infx2"
        )
        assert [r["strategy"] for r in log[:2]] == ["greedy", "refine"]


class TestWorkDBIntegration:
    def test_engine_workdb_dump_round_trip(self, water150, tmp_path):
        eng = ParallelEngine(
            water150.copy(), options=OPTS, workers=2, skin=1.0,
        )
        try:
            eng.run(3)
            db = eng.workdb
            assert db.measured_steps >= 3
            path = tmp_path / "workdb.json"
            db.dump(path)
            loads = db.owner_loads(2)
        finally:
            eng.close()
        clone = WorkDB.load_file(path)
        np.testing.assert_array_equal(clone.owner_loads(2), loads)
        assert all(rec.n_samples >= 3 for rec in clone.tasks.values())

    def test_every_task_measured_every_step(self, water150):
        eng = ParallelEngine(water150.copy(), options=OPTS, workers=2, skin=1.0)
        try:
            eng.run(2)
            db = eng.workdb
            assert len(db.tasks) == eng._nb._n_total
            # priors came from the cost model at startup
            assert all(
                rec.prior > 0 for rec in db.tasks.values() if rec.kind == "cell"
            )
        finally:
            eng.close()


class TestValidation:
    def test_negative_rebalance_every_rejected(self, water150):
        with pytest.raises(ValueError):
            ParallelNonbonded(water150.copy(), OPTS, n_workers=2, rebalance_every=-1)

    def test_unknown_strategy_rejected(self, water150):
        with pytest.raises(ValueError):
            ParallelNonbonded(
                water150.copy(), OPTS, n_workers=2,
                rebalance_every=5, lb_strategy="nope",
            )

    def test_nonpositive_slowdown_rejected(self, water150):
        with pytest.raises(ValueError):
            ParallelNonbonded(
                water150.copy(), OPTS, n_workers=2, fault_plan="slow=0@0-infx0"
            )
