"""Service-side job records: state machine, events, REST serialization.

A :class:`Job` wraps one :class:`repro.md.jobs.SimJob` (the MD adapter
owning the live engine) with everything the *service* cares about —
tenant, priority, lifecycle state, control requests and the worker
lease.  The scheduler thread owns all state transitions; HTTP threads
only read snapshots and post control requests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.md.jobs import SimJob, SimSpec
    from repro.pool.lease import WorkerLease

__all__ = ["Job", "JobState", "TERMINAL_STATES"]


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: states a job never leaves
TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED}
)


@dataclass
class Job:
    """One submitted simulation, as the service tracks it."""

    id: str
    tenant: str
    priority: int
    spec: "SimSpec"
    sim: "SimJob"
    state: JobState = JobState.QUEUED
    submit_seq: int = 0  # FIFO tiebreak within a priority class
    lease: "WorkerLease | None" = None
    control: str | None = None  # pending "suspend" | "cancel" request
    error: str | None = None
    events: list[dict] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def note_event(self, kind: str, **details) -> None:
        self.events.append({"event": kind, "state": self.state.value, **details})

    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state.value,
            "steps_done": self.sim.steps_done,
            "steps_total": self.spec.steps,
            "workers": self.spec.workers,
        }

    def detail(self) -> dict:
        out = self.summary()
        out["spec"] = self.spec.to_dict()
        out["error"] = self.error
        out["events"] = list(self.events)
        out["n_records"] = len(self.sim.records)
        out.update(self.sim.backend_provenance())
        return out
