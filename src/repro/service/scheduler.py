"""The multi-job scheduler behind ``repro serve``.

One :class:`SimulationService` multiplexes many concurrent simulations
onto shared machine capacity:

* **Admission** — submitted jobs queue per tenant (``max_queued``); the
  scheduler admits them by priority then FIFO, when the tenant's
  ``max_running``/``max_workers`` quota allows *and* the job's worker
  slots fit the service's :class:`SlotBudget`.  A slot is a core a
  running job holds for one of its workers — an executor thread, or a
  worker process for a job with a fault plan.  A small job may be
  admitted past a big one that doesn't fit — packing, not head-of-line
  blocking.
* **Execution** — ``lanes`` threads each run one loop: admit, take the
  first job of one FIFO ready queue, run one unit of it outside the lock
  (open its engine, step one slice of ``slice_steps`` steps, suspend, or
  cancel), and put it back at the tail.  So at most ``lanes`` units run
  at once, and no lane idles while a running job waits.  Units of
  different jobs overlap in wall clock — a parallel engine's driver
  spends most of a slice waiting on its workers with the GIL released —
  while a job is held by at most one lane, so its own slices stay
  strictly serial and trajectories are bit-identical to solo runs
  (slicing only moves where slice boundaries fall, never what is
  computed).
* **Suspend/resume** — a suspended job's engine and slots are released;
  progress rolls back to its last durable checkpoint and the replayed
  steps are suppressed from the stream (they are bit-identical).

Thread model: public methods are thread-safe (REST handler threads call
them); every job state transition happens under the service's one
condition, which also wakes idle lanes and waiters — there is no poll.
"""

from __future__ import annotations

import collections
import itertools
import shutil
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.md.jobs import SimJob, SimSpec
from repro.service.jobs import Job, JobState
from repro.service.quotas import QuotaError, TenantQuota

__all__ = ["SimulationService"]


@dataclass
class SlotBudget:
    """The service's worker slots: ``total``, and how many the running
    jobs hold (``leased``); changed only under the service's lock."""

    total: int
    leased: int = 0


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
        jobs: slots are cores held by running jobs, one per worker
        thread (or worker process, for a job with a fault plan), not
        processes; ``lanes`` bounds how many units (of any jobs) run
        at the same time; every slice is ``slice_steps`` steps.
        ``rebalance_every`` is accepted only as 0: jobs are not placed on
        lanes, so there is nothing to re-plan."""
        if worker_slots < 0:
            raise ValueError("worker_slots must be >= 0")
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if slice_steps < 1:
            raise ValueError("slice_steps must be >= 1")
        if rebalance_every != 0:
            raise ValueError(
                "rebalance_every must be 0: slices run from one shared "
                "queue, there are no lane plans to rebalance"
            )

        self.budget = SlotBudget(int(worker_slots))
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
        #: running jobs waiting for a lane, oldest first
        self._ready: collections.deque[Job] = collections.deque()
        self._submit_seq = 0
        self._slices_done = 0
        self._stopping = False
        self._threads: list[threading.Thread] = []

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
        with self._cond:
            n_queued = sum(
                1
                for j in self._jobs.values()
                if j.tenant == tenant and j.state is JobState.QUEUED
            )
            self._quota(tenant).check_submit(tenant, n_queued)
            if job_id is None:
                # the first free number: an explicit id may hold any other
                job_id = next(
                    name
                    for n in itertools.count(len(self._jobs))
                    if (name := f"job-{n:04d}") not in self._jobs
                )
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
            self._cond.notify_all()
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
        with self._cond:
            job = self.get(job_id)
            if job.terminal:
                raise ValueError(f"job {job_id!r} is {job.state.value}")
            if job.state is JobState.QUEUED:
                job.state = JobState.SUSPENDED
                job.note_event("suspended")
                self._cond.notify_all()
            elif job.state is JobState.RUNNING:
                job.control = "suspend"

    def resume(self, job_id: str) -> None:
        with self._cond:
            job = self.get(job_id)
            if job.state is not JobState.SUSPENDED:
                raise ValueError(
                    f"job {job_id!r} is {job.state.value}, not suspended"
                )
            job.state = JobState.QUEUED
            job.note_event("resumed")
            self._cond.notify_all()

    def cancel(self, job_id: str) -> None:
        with self._cond:
            job = self.get(job_id)
            if job.terminal:
                return
            if job.state is JobState.RUNNING:
                job.control = "cancel"
            else:
                job.state = JobState.CANCELLED
                job.note_event("cancelled")
                self._cond.notify_all()

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
                self._cond.wait(remaining)

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
                self._cond.wait(remaining)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._threads:
                return
            self._stopping = False
            self._threads = [
                threading.Thread(
                    target=self._lane, name=f"repro-lane-{i}", daemon=True
                )
                for i in range(self.lanes)
            ]
            for thread in self._threads:
                thread.start()

    def shutdown(self, timeout: float = 30.0) -> None:
        """Stop the lanes and release every engine, slot, and segment."""
        with self._cond:
            self._stopping = True
            threads, self._threads = self._threads, []
            self._cond.notify_all()
        # a lane stops after the unit it is running
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.sim.close()
            with self._lock:
                self._release_lease(job)
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
    # scheduler internals (lane threads)
    # ------------------------------------------------------------------ #
    def _release_lease(self, job: Job) -> None:
        self.budget.leased -= job.lease
        job.lease = 0

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
                if self.budget.leased + slots > self.budget.total:
                    continue  # doesn't fit now; a smaller job might
                self.budget.leased += slots
                job.lease = slots
                job.state = JobState.RUNNING
                job.note_event("admitted", worker_slots=slots)
                self._ready.append(job)
                self._cond.notify_all()

    def _lane(self) -> None:
        """One lane: admit, take the oldest ready job, run one unit of it,
        put it back at the tail — until the service stops."""
        while True:
            with self._cond:
                while True:
                    if self._stopping:
                        return
                    self._admit_ready()
                    if self._ready:
                        break
                    self._cond.wait()
                job = self._ready.popleft()
                control, job.control = job.control, None
            try:
                state = self._run_unit(job, control)
            except Exception:
                job.sim.close()  # a no-op when the failure left no engine
                with self._lock:
                    job.error = traceback.format_exc()
                state = JobState.FAILED
            with self._cond:
                if state is None:
                    self._ready.append(job)
                    continue
                self._release_lease(job)
                job.state = state
                if state is JobState.SUSPENDED:
                    job.note_event(
                        "suspended", checkpoint_step=job.sim.steps_done
                    )
                else:
                    job.note_event("finished", steps_done=job.sim.steps_done)
                self._cond.notify_all()

    def _run_unit(self, job: Job, control: str | None) -> JobState | None:
        """Run one unit of ``job`` outside the lock; returns the state it
        leaves the job in, or None while it is still running."""
        sim = job.sim
        if control == "cancel":
            sim.close()
            return JobState.CANCELLED
        if control == "suspend":
            sim.suspend()
            return JobState.SUSPENDED
        if not sim.active:
            sim.open()
            return None
        before = sim.steps_done
        sim.step_slice(self.slice_steps)
        if sim.steps_done > before:
            with self._lock:
                self._slices_done += 1
        if sim.done:
            sim.close()
            return JobState.COMPLETED
        return None
