"""SimulationService scheduling semantics: quotas, priorities, admission,
the shared slice queue, suspend/resume/cancel, and cross-job backend
isolation (the global-state leak regression).
"""

import dataclasses
import threading
import time

import pytest

import repro.backend as backend_registry
from repro.md.jobs import SimJob, SimSpec
from repro.service import (
    JobState,
    QuotaError,
    SimulationService,
    TenantQuota,
)

SMALL = {"waters": 15, "steps": 4, "seed": 1}


def make_service(**kwargs) -> SimulationService:
    kwargs.setdefault("worker_slots", 4)
    kwargs.setdefault("lanes", 2)
    kwargs.setdefault("slice_steps", 2)
    return SimulationService(**kwargs)


class TestSubmission:
    def test_submit_assigns_ids_and_tasks(self, tmp_path):
        svc = make_service(workdir=tmp_path)
        a = svc.submit(SMALL, tenant="t")
        b = svc.submit(SMALL, tenant="t")
        assert a.id != b.id
        assert a.state is JobState.QUEUED

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"spec": 5}, "spec must be an object"),
            ({"spec": []}, "spec must be an object"),
            ({"priority": float("inf")}, "priority must be an integer"),
            ({"priority": True}, "priority must be an integer"),
            ({"tenant": 3}, "tenant must be a string"),
        ],
    )
    def test_malformed_submission_is_a_value_error(self, tmp_path, kwargs, message):
        svc = make_service(workdir=tmp_path)
        kwargs = {"spec": SMALL, **kwargs}
        with pytest.raises(ValueError, match=message):
            svc.submit(**kwargs)
        assert svc.jobs() == []

    @pytest.mark.parametrize("every", [-1, 4])
    def test_rebalance_every_must_be_zero(self, tmp_path, every):
        with pytest.raises(ValueError, match="rebalance_every must be 0"):
            make_service(workdir=tmp_path, rebalance_every=every)

    def test_duplicate_id_rejected(self, tmp_path):
        svc = make_service(workdir=tmp_path)
        svc.submit(SMALL, job_id="x")
        with pytest.raises(ValueError, match="already exists"):
            svc.submit(SMALL, job_id="x")

    def test_auto_workers_rejected(self, tmp_path):
        svc = make_service(workdir=tmp_path)
        with pytest.raises(ValueError, match="explicit worker count"):
            svc.submit({**SMALL, "workers": 0})

    def test_oversized_job_rejected_at_submit(self, tmp_path):
        svc = make_service(workdir=tmp_path, worker_slots=2)
        with pytest.raises(ValueError, match="budget is 2"):
            svc.submit({**SMALL, "workers": 4})

    def test_max_queued_quota_raises_429_material(self, tmp_path):
        svc = make_service(
            workdir=tmp_path,
            default_quota=TenantQuota(max_queued=1),
        )
        svc.submit(SMALL, tenant="t")  # queued (scheduler not started)
        with pytest.raises(QuotaError, match="max_queued=1"):
            svc.submit(SMALL, tenant="t")
        # other tenants are unaffected
        svc.submit(SMALL, tenant="other")


class TestAdmission:
    """Admission policy tested synchronously: _admit_ready is called
    directly with the scheduler thread not running, so queue contents
    are deterministic."""

    def test_priority_then_fifo(self, tmp_path):
        svc = make_service(
            workdir=tmp_path,
            default_quota=TenantQuota(max_running=1),
        )
        low = svc.submit(SMALL, tenant="t", priority=0)
        high = svc.submit(SMALL, tenant="t", priority=5)
        svc._admit_ready()
        assert high.state is JobState.RUNNING
        assert low.state is JobState.QUEUED

    def test_worker_budget_packs_small_around_big(self, tmp_path):
        svc = make_service(workdir=tmp_path, worker_slots=3)
        big = svc.submit({**SMALL, "workers": 3}, priority=9)
        blocked = svc.submit({**SMALL, "workers": 2}, priority=5)
        seq = svc.submit(SMALL, priority=0)  # 0 slots: always fits
        svc._admit_ready()
        assert big.state is JobState.RUNNING and big.lease.slots == 3
        assert blocked.state is JobState.QUEUED  # no head-of-line block:
        assert seq.state is JobState.RUNNING  # the 0-slot job slips past
        assert svc.budget.leased == 3
        # releasing the big job lets the blocked one in
        svc._release_lease(big)
        big.state = JobState.COMPLETED
        svc._admit_ready()
        assert blocked.state is JobState.RUNNING

    def test_tenant_worker_cap_enforced(self, tmp_path):
        svc = make_service(
            workdir=tmp_path,
            worker_slots=8,
            default_quota=TenantQuota(max_running=8, max_workers=2),
        )
        a = svc.submit({**SMALL, "workers": 2}, tenant="t")
        b = svc.submit({**SMALL, "workers": 2}, tenant="t")
        other = svc.submit({**SMALL, "workers": 2}, tenant="u")
        svc._admit_ready()
        assert a.state is JobState.RUNNING
        assert b.state is JobState.QUEUED  # tenant t is at max_workers
        assert other.state is JobState.RUNNING  # tenant u unaffected


class TestSliceQueue:
    """Every slice goes to one shared queue of ``lanes`` threads."""

    def test_no_thread_idles_while_a_slice_waits(self, tmp_path, monkeypatch):
        """Jobs 0 and 2 are long, job 1 is one slice.  Once job 1 is done
        a thread is free, so slices of jobs 0 and 2 must run side by side
        — a map of job i to lane i % lanes would serialize them."""
        spans: dict[str, list[tuple[float, float]]] = {}
        lock = threading.Lock()
        step_slice = SimJob.step_slice

        def timed_slice(self, n):
            t0 = time.perf_counter()
            out = step_slice(self, n)
            time.sleep(0.02)  # long enough for slices to meet in time
            with lock:
                spans.setdefault(self.workdir.name, []).append(
                    (t0, time.perf_counter())
                )
            return out

        monkeypatch.setattr(SimJob, "step_slice", timed_slice)
        long = {**SMALL, "steps": 8}
        with make_service(
            workdir=tmp_path, lanes=2, slice_steps=2, rebalance_every=0
        ) as svc:
            jobs = [
                svc.submit(long, job_id="j0"),
                svc.submit({**SMALL, "steps": 2}, job_id="j1"),
                svc.submit(long, job_id="j2"),
            ]
            svc.run_until_idle(timeout=120)
            assert [j.state for j in jobs] == [JobState.COMPLETED] * 3
            assert svc.stats()["slices_done"] == 4 + 1 + 4
        assert [len(spans[j]) for j in ("j0", "j1", "j2")] == [4, 1, 4]
        assert any(
            a0 < b1 and b0 < a1
            for a0, a1 in spans["j0"]
            for b0, b1 in spans["j2"]
        ), spans


class TestLifecycle:
    def test_jobs_complete_and_match_solo(self, tmp_path):
        spec = SimSpec(waters=20, steps=8, seed=3, traj_every=4)
        solo = SimJob(spec, tmp_path / "solo")
        solo.open()
        while not solo.done:
            solo.step_slice(100)
        solo.close()

        with make_service(workdir=tmp_path / "svc") as svc:
            job = svc.submit(spec)
            svc.wait(job.id, [JobState.COMPLETED], timeout=120)
            assert job.sim.records == solo.records

    def test_cancel_queued_job(self, tmp_path):
        svc = make_service(workdir=tmp_path)
        job = svc.submit(SMALL)
        svc.cancel(job.id)
        assert job.state is JobState.CANCELLED
        svc.cancel(job.id)  # idempotent on terminal jobs

    def test_suspend_resume_via_service(self, tmp_path):
        spec = SimSpec(waters=20, steps=60, seed=2, checkpoint_every=5)
        with make_service(workdir=tmp_path, slice_steps=2) as svc:
            job = svc.submit(spec)
            svc.wait(job.id, [JobState.RUNNING], timeout=60)
            svc.suspend(job.id)
            svc.wait(job.id, [JobState.SUSPENDED], timeout=60)
            assert not job.sim.active  # engine released
            assert job.lease is None
            svc.resume(job.id)
            svc.wait(job.id, [JobState.COMPLETED], timeout=300)
            steps = [r["step"] for r in job.sim.records if r["type"] == "step"]
            assert steps == list(range(1, 61))  # exactly one record per step

    def test_suspend_queued_job_skips_admission(self, tmp_path):
        svc = make_service(workdir=tmp_path)
        job = svc.submit(SMALL)
        svc.suspend(job.id)
        assert job.state is JobState.SUSPENDED
        svc._admit_ready()
        assert job.state is JobState.SUSPENDED
        svc.resume(job.id)
        assert job.state is JobState.QUEUED
        with pytest.raises(ValueError, match="not suspended"):
            svc.resume(job.id)  # already re-queued

    def test_failed_job_carries_traceback(self, tmp_path, monkeypatch):
        def boom(self):
            raise RuntimeError("engine exploded")

        # patched before submit: the scheduler may open the job at once
        monkeypatch.setattr(SimJob, "open", boom)
        with make_service(workdir=tmp_path) as svc:
            job = svc.submit(SMALL)
            svc.wait(job.id, [JobState.FAILED], timeout=60)
            assert "engine exploded" in job.error
            assert svc.budget.leased == 0

    def test_stats_shape(self, tmp_path):
        with make_service(workdir=tmp_path) as svc:
            job = svc.submit(SMALL, tenant="t")
            svc.wait(job.id, [JobState.COMPLETED], timeout=120)
            stats = svc.stats()
            assert stats["jobs"] == {"completed": 1}
            assert stats["tenants"]["t"]["jobs"] == 1
            assert stats["budget"] == {"total": 4, "leased": 0}


class TestBackendIsolation:
    """Bugfix regression: per-job backends must ride the engine adapter,
    never the process-global default — one job requesting the compiled backend
    must not flip another job's kernels or blur WorkDB provenance."""

    @pytest.fixture
    def second_backend(self, monkeypatch):
        """A renamed copy of the numpy backend registered as the second
        backend, so the test does not need a compiler (a spec may only name
        a backend of ``BACKEND_NAMES``).

        The copy pickles by reference (module-level kernel functions), so
        spawned worker processes resolve it too, exactly like a real
        alternative backend."""
        fake = dataclasses.replace(
            backend_registry.get_backend("numpy"),
            name=backend_registry.BACKEND_NAMES[-1],
            compiled=True,
        )
        monkeypatch.setitem(backend_registry._instances, fake.name, fake)
        yield fake

    def test_concurrent_jobs_keep_backend_provenance_distinct(
        self, tmp_path, second_backend
    ):
        second = second_backend.name
        default_before = backend_registry.default_backend().name
        # waters=120 at cutoff 6.0 is the smallest box whose task count
        # sustains a real 2-worker pool (smaller boxes fall back)
        with make_service(workdir=tmp_path, worker_slots=4) as svc:
            a = svc.submit(
                {"waters": 120, "cutoff": 6.0, "steps": 3, "seed": 1,
                 "workers": 2, "backend": "numpy"}
            )
            b = svc.submit(
                {"waters": 120, "cutoff": 6.0, "steps": 3, "seed": 2,
                 "workers": 2, "backend": second}
            )
            svc.wait(a.id, [JobState.COMPLETED], timeout=300)
            svc.wait(b.id, [JobState.COMPLETED], timeout=300)
            prov_a = a.detail()
            prov_b = b.detail()
        # pre-fix code routed the request through set_default_backend, so
        # whichever job opened last stamped *both* engines and both WorkDBs
        assert prov_a["backend"] == "numpy"
        assert prov_b["backend"] == second
        assert prov_a["workdb_backend"] == "numpy"
        assert prov_b["workdb_backend"] == second
        # and the process-wide default never moved
        assert backend_registry.default_backend().name == default_before
