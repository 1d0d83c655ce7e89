"""The async multi-job scheduler behind ``repro serve``.

One :class:`SimulationService` multiplexes many concurrent simulations
onto shared machine capacity:

* **Admission** — submitted jobs queue per tenant (``max_queued``); the
  scheduler admits them by priority then FIFO, when the tenant's
  ``max_running``/``max_workers`` quota allows *and* the job's worker
  slots fit the shared :class:`~repro.pool.lease.WorkerBudget`.  A slot
  is a core a running job leases for one of its workers — an executor
  thread, or a worker process for a job with a fault plan.  A
  small job may be admitted past a big one that doesn't fit — packing,
  not head-of-line blocking.
* **Execution** — each running job is an asyncio coroutine stepping its
  engine in short slices.  Every slice goes straight to one shared,
  work-conserving queue: a thread pool of ``lanes`` threads, so at most
  ``lanes`` slices run at once and no thread idles while a running job
  has a slice waiting.  Slices of different jobs overlap in wall clock —
  a parallel engine's driver spends most of a slice waiting on its
  workers with the GIL released — while each job's own
  slices stay strictly serialized by its coroutine, so trajectories are
  bit-identical to solo runs (slicing only moves where slice boundaries
  fall, never what is computed).
* **Suspend/resume** — a suspended job's engine (and worker lease) is
  released; progress rolls back to its last durable checkpoint and the
  replayed steps are suppressed from the stream (they are bit-identical).

Thread model: public methods are thread-safe (REST handler threads call
them); all job state transitions happen on the scheduler thread's event
loop.  The service is also usable without the background thread in tests
via :meth:`run_until_idle`.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.md.jobs import SimJob, SimSpec
from repro.pool.lease import WorkerBudget
from repro.service.jobs import Job, JobState
from repro.service.quotas import QuotaError, TenantQuota

__all__ = ["SimulationService"]

#: scheduler idle poll; wake events cut the latency, this only bounds it
_POLL_S = 0.05


class SimulationService:
    """Run many concurrent simulations on one shared worker budget."""

    def __init__(
        self,
        worker_slots: int = 4,
        lanes: int = 2,
        slice_steps: int = 5,
        workdir: str | Path | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        rebalance_every: int = 0,
    ) -> None:
        """``worker_slots`` bounds the total workers across all running
        jobs: slots are cores leased by running jobs, one per worker
        thread (or worker process, for a job with a fault plan), not
        processes; ``lanes`` bounds how many slices (of any jobs) run
        at the same time; every slice is ``slice_steps`` steps.
        ``rebalance_every`` is accepted only as 0: jobs are not placed on
        lanes, so there is nothing to re-plan."""
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if slice_steps < 1:
            raise ValueError("slice_steps must be >= 1")
        if rebalance_every != 0:
            raise ValueError(
                "rebalance_every must be 0: slices run from one shared "
                "queue, there are no lane plans to rebalance"
            )

        self.budget = WorkerBudget(worker_slots)
        self.lanes = int(lanes)
        self.slice_steps = int(slice_steps)
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota or TenantQuota()
        self._own_workdir = workdir is None
        self.workdir = Path(
            tempfile.mkdtemp(prefix="repro-service-")
            if workdir is None
            else workdir
        )
        self.workdir.mkdir(parents=True, exist_ok=True)

        self._jobs: dict[str, Job] = {}
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._submit_seq = 0
        self._slices_done = 0
        self._stopping = False
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # submission and control (any thread)
    # ------------------------------------------------------------------ #
    def _quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def submit(
        self,
        spec: SimSpec | dict,
        tenant: str = "default",
        priority: int = 0,
        job_id: str | None = None,
    ) -> Job:
        """Queue one simulation; raises :class:`QuotaError` over quota."""
        if isinstance(spec, dict):
            spec = SimSpec.from_dict(spec)
        elif not isinstance(spec, SimSpec):
            raise ValueError("spec must be an object of SimSpec fields")
        if not isinstance(tenant, str):
            raise ValueError("tenant must be a string")
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ValueError("priority must be an integer")
        if spec.workers == 0:
            raise ValueError(
                "service jobs need an explicit worker count "
                "(workers=0 auto-sizing is a CLI-only convenience)"
            )
        if spec.worker_slots > self.budget.total:
            raise ValueError(
                f"job needs {spec.worker_slots} worker slots but the "
                f"service budget is {self.budget.total}"
            )
        with self._lock:
            n_queued = sum(
                1
                for j in self._jobs.values()
                if j.tenant == tenant and j.state is JobState.QUEUED
            )
            self._quota(tenant).check_submit(tenant, n_queued)
            if job_id is None:
                job_id = f"job-{len(self._jobs):04d}"
            if job_id in self._jobs:
                raise ValueError(f"job id {job_id!r} already exists")
            self._submit_seq += 1
            job = Job(
                id=job_id,
                tenant=tenant,
                priority=priority,
                spec=spec,
                sim=SimJob(spec, self.workdir / "jobs" / job_id),
                submit_seq=self._submit_seq,
            )
            self._jobs[job_id] = job
            job.note_event("submitted", tenant=tenant, priority=priority)
        self._kick()
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"no such job {job_id!r}") from None

    def jobs(self, tenant: str | None = None) -> list[Job]:
        with self._lock:
            out = list(self._jobs.values())
        if tenant is not None:
            out = [j for j in out if j.tenant == tenant]
        return sorted(out, key=lambda j: j.submit_seq)

    def records(self, job_id: str, start: int = 0) -> list[dict]:
        """Snapshot of a job's NDJSON records from index ``start``."""
        sim = self.get(job_id).sim
        return sim.records[int(start):]

    def suspend(self, job_id: str) -> None:
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                raise ValueError(f"job {job_id!r} is {job.state.value}")
            if job.state is JobState.QUEUED:
                job.state = JobState.SUSPENDED
                job.note_event("suspended")
                self._cond.notify_all()
            elif job.state is JobState.RUNNING:
                job.control = "suspend"
        self._kick()

    def resume(self, job_id: str) -> None:
        with self._lock:
            job = self.get(job_id)
            if job.state is not JobState.SUSPENDED:
                raise ValueError(
                    f"job {job_id!r} is {job.state.value}, not suspended"
                )
            job.state = JobState.QUEUED
            job.note_event("resumed")
        self._kick()

    def cancel(self, job_id: str) -> None:
        with self._lock:
            job = self.get(job_id)
            if job.terminal:
                return
            if job.state is JobState.RUNNING:
                job.control = "cancel"
            else:
                job.state = JobState.CANCELLED
                job.note_event("cancelled")
                self._cond.notify_all()
        self._kick()

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            tenants: dict[str, dict] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
                t = tenants.setdefault(
                    job.tenant, {"jobs": 0, "running": 0, "worker_slots": 0}
                )
                t["jobs"] += 1
                if job.state is JobState.RUNNING:
                    t["running"] += 1
                    t["worker_slots"] += job.spec.worker_slots
            return {
                "jobs": states,
                "tenants": tenants,
                "budget": {
                    "total": self.budget.total,
                    "leased": self.budget.leased,
                },
                "lanes": self.lanes,
                "slices_done": self._slices_done,
            }

    # ------------------------------------------------------------------ #
    # waiting (any thread)
    # ------------------------------------------------------------------ #
    def wait(self, job_id: str, states, timeout: float = 60.0) -> JobState:
        """Block until the job reaches one of ``states``; returns it."""
        states = {JobState(s) for s in states}
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs[job_id]
                if job.state in states:
                    return job.state
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id!r} still {job.state.value} "
                        f"after {timeout:.0f}s"
                    )
                self._cond.wait(min(remaining, _POLL_S * 4))

    def run_until_idle(self, timeout: float = 300.0) -> None:
        """Start if needed, then block until no job is queued or running."""
        self.start()
        deadline = time.monotonic() + timeout
        active = (JobState.QUEUED, JobState.RUNNING)
        with self._cond:
            while any(j.state in active for j in self._jobs.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"service still busy after {timeout:.0f}s")
                self._cond.wait(min(remaining, _POLL_S * 4))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._thread is not None:
                return
            self._stopping = False
            self._thread = threading.Thread(
                target=self._thread_main, name="repro-service", daemon=True
            )
            self._thread.start()

    def _thread_main(self) -> None:
        asyncio.run(self._main())

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop the scheduler and release every engine, lease, and segment."""
        with self._lock:
            self._stopping = True
            thread = self._thread
            self._thread = None
        self._kick()
        if thread is not None:
            thread.join(timeout=timeout)
        # belt-and-braces: close anything the scheduler didn't get to
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.sim.close()
            self._release_lease(job)
        self.budget.release_all()
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
        with self._cond:
            self._cond.notify_all()

    def __enter__(self) -> "SimulationService":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # scheduler internals (event-loop thread only)
    # ------------------------------------------------------------------ #
    def _kick(self) -> None:
        with self._lock:
            loop, wake = self._loop, self._wake
            self._cond.notify_all()
        if loop is not None and wake is not None:
            try:
                loop.call_soon_threadsafe(wake.set)
            except RuntimeError:  # loop already closed
                pass

    def _release_lease(self, job: Job) -> None:
        if job.lease is not None:
            job.lease.release()
            job.lease = None

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(
            max_workers=self.lanes, thread_name_prefix="repro-lane"
        )
        with self._lock:
            self._loop = loop
            self._wake = asyncio.Event()
            self._executor = executor
        tasks: dict[str, asyncio.Task] = {}
        try:
            while True:
                with self._lock:
                    if self._stopping:
                        break
                self._admit_ready()
                with self._lock:
                    runnable = [
                        j
                        for j in self._jobs.values()
                        if j.state is JobState.RUNNING and j.id not in tasks
                    ]
                for job in runnable:
                    tasks[job.id] = loop.create_task(self._run_job(job))
                for jid in [j for j, t in tasks.items() if t.done()]:
                    tasks.pop(jid)
                wake = self._wake
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), timeout=_POLL_S)
                except asyncio.TimeoutError:
                    pass
        finally:
            for t in tasks.values():
                t.cancel()
            if tasks:
                await asyncio.gather(*tasks.values(), return_exceptions=True)
            with self._lock:
                jobs = [
                    j for j in self._jobs.values() if j.sim.active
                ]
            for job in jobs:
                # in-flight slices already drained (gather above); close
                # engines off-loop so pool teardown can't wedge the loop
                await loop.run_in_executor(executor, job.sim.close)
                with self._lock:
                    self._release_lease(job)
            executor.shutdown(wait=True)
            with self._lock:
                self._loop = None
                self._wake = None
                self._executor = None
                self._cond.notify_all()

    def _admit_ready(self) -> None:
        with self._lock:
            queued = sorted(
                (
                    j
                    for j in self._jobs.values()
                    if j.state is JobState.QUEUED
                ),
                key=lambda j: (-j.priority, j.submit_seq),
            )
            for job in queued:
                quota = self._quota(job.tenant)
                running = [
                    x
                    for x in self._jobs.values()
                    if x.state is JobState.RUNNING and x.tenant == job.tenant
                ]
                slots = job.spec.worker_slots
                if not quota.admits(
                    len(running),
                    sum(x.spec.worker_slots for x in running),
                    slots,
                ):
                    continue  # tenant-full; other tenants may still admit
                lease = self.budget.try_acquire(slots, label=job.id)
                if lease is None:
                    continue  # doesn't fit now; a smaller job might
                job.lease = lease
                job.state = JobState.RUNNING
                job.note_event("admitted", worker_slots=slots)
                self._cond.notify_all()

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        executor = self._executor
        try:
            while True:
                with self._lock:
                    if self._stopping:
                        return
                    control, job.control = job.control, None
                if control == "cancel":
                    await self._finish(job, JobState.CANCELLED)
                    return
                if control == "suspend":
                    await loop.run_in_executor(executor, job.sim.suspend)
                    with self._lock:
                        self._release_lease(job)
                        job.state = JobState.SUSPENDED
                        job.note_event(
                            "suspended", checkpoint_step=job.sim.steps_done
                        )
                        self._cond.notify_all()
                    self._kick()
                    return
                if not job.sim.active:
                    await loop.run_in_executor(executor, job.sim.open)
                # straight onto the shared queue: the executor's threads
                # are the only cap on how many slices run at once
                before = job.sim.steps_done
                await loop.run_in_executor(
                    executor, job.sim.step_slice, self.slice_steps
                )
                if job.sim.steps_done > before:
                    with self._lock:
                        self._slices_done += 1
                if job.sim.done:
                    await self._finish(job, JobState.COMPLETED)
                    return
                await asyncio.sleep(0)
        except asyncio.CancelledError:
            raise
        except Exception:
            with self._lock:
                job.error = traceback.format_exc()
            await self._finish(job, JobState.FAILED)

    async def _finish(self, job: Job, state: JobState) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._executor, job.sim.close)
        with self._lock:
            self._release_lease(job)
            job.state = state
            job.note_event("finished", steps_done=job.sim.steps_done)
            self._cond.notify_all()
        self._kick()
