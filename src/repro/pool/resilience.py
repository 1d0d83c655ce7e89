"""Fault injection, recovery policy, and accounting for supervised pools.

The pool reads the one :class:`~repro.util.faults.FaultPlan` of both
runtimes, in its own clock: a fault's ``<when>`` is the 1-based evaluation
index (:func:`pool_fault_plan` refuses what a pool cannot honour).  Against
live operating-system processes the plan schedules:

* **SIGKILL** of a worker process (a
  :class:`~repro.util.faults.ProcessorFailure`) — fail-stop death;
* **SIGSTOP hangs** (a :class:`~repro.util.faults.ProcessorHang`) — the
  worker freezes for ``duration_s`` seconds (or forever), the failure mode
  a timeout-based supervisor must distinguish from mere slowness;
* **slowdown windows** — the plan's
  :meth:`~repro.util.faults.FaultPlan.slowdown_factor`, which the pool
  implements as a measured busy-spin.

The :class:`FaultInjector` fires the kills and hangs from the driver side
(the driver owns the pids), once per scheduled event, and un-freezes
finite hangs when their window expires.  Because events are step-indexed,
injection is fully deterministic — the same property that makes the
simulated machine's fault tests reproducible.  This half of the pool
knows nothing about what the workers compute.

:class:`RecoveryPolicy` configures the supervised pool's response ladder
(respawn with bounded retry + exponential backoff → reassign to
survivors → degraded serving by the pool's client) and
:class:`ResilienceStats` is the driver-side accounting that the WorkDB,
timeline renders, and ``BENCH_resilience.json`` surface.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

from repro.util.faults import FaultPlan

__all__ = [
    "HAS_POSIX_SIGNALS",
    "FaultInjector",
    "RecoveryPolicy",
    "RecoveryEventLog",
    "ResilienceStats",
    "pool_fault_plan",
]

#: SIGSTOP/SIGCONT (hang injection) and SIGKILL exist only on POSIX.
HAS_POSIX_SIGNALS = hasattr(signal, "SIGSTOP") and hasattr(signal, "SIGKILL")


def pool_fault_plan(plan: FaultPlan | str, n_workers: int = 0) -> FaultPlan:
    """``plan`` (or its clause string) as a supervised pool reads it.

    Refuses, naming the clause, what a pool cannot honour: a ``seed`` and
    the message faults (its workers exchange no simulated messages), a
    kill or hang at anything but a whole 1-based evaluation index, and —
    given ``n_workers`` — a target the pool does not have.
    """
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    if plan.seed is not None or plan.message_faults is not None:
        clause = (
            f"seed={plan.seed}"
            if plan.seed is not None
            else plan.message_faults.clause or "drop/delay/dup/retry"
        )
        raise ValueError(
            f"fault clause {clause!r}: the supervised pool honours kill, "
            "hang and slow only"
        )
    for fault in (*plan.failures, *plan.hangs):
        if not (fault.time >= 1 and float(fault.time).is_integer()):
            raise ValueError(
                f"fault clause {fault.clause!r}: a pool step is a 1-based "
                "evaluation index (a whole number >= 1)"
            )
    if n_workers:
        plan.check_targets(n_workers, "worker", "pool")
    return plan


class FaultInjector:
    """Fires a fault plan's kills and hangs against live worker processes.

    The driver calls :meth:`inject` right after dispatching each evaluation
    (so kills land while tasks are in flight) and :meth:`poll` from its
    wait loop (to SIGCONT finite hangs whose window expired).  Every event
    fires at most once; a worker that no longer exists (already dead,
    already recovered under a new pid) is skipped silently — injection
    must never take down the driver.
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not HAS_POSIX_SIGNALS and (plan.failures or plan.hangs):
            raise RuntimeError(
                "worker fault injection needs POSIX signals "
                "(SIGKILL/SIGSTOP); this platform has neither"
            )
        self.plan = plan
        self._fired: set[tuple[str, int, float]] = set()
        #: (worker, pid, resume_deadline) of every process this injector
        #: froze and has not continued; the deadline of an indefinite hang
        #: is ``inf`` — :meth:`poll` never resumes it, :meth:`release_all` does
        self._stopped: list[tuple[int, int, float]] = []

    @staticmethod
    def _signal(pid: int, signum: int) -> bool:
        try:
            os.kill(pid, signum)
            return True
        except (ProcessLookupError, PermissionError, OSError):
            return False

    def inject(self, step: int, pids: dict[int, int]) -> list[str]:
        """Fire every event scheduled at ``step``; returns what fired."""
        fired: list[str] = []
        for k in self.plan.failures:
            key = ("kill", k.proc, k.time)
            if k.time == step and key not in self._fired:
                self._fired.add(key)
                pid = pids.get(k.proc)
                if pid is not None and self._signal(pid, signal.SIGKILL):
                    fired.append(f"SIGKILL worker {k.proc} @step {step}")
        for h in self.plan.hangs:
            key = ("hang", h.proc, h.time)
            if h.time == step and key not in self._fired:
                self._fired.add(key)
                pid = pids.get(h.proc)
                if pid is not None and self._signal(pid, signal.SIGSTOP):
                    fired.append(f"SIGSTOP worker {h.proc} @step {step}")
                    self._stopped.append(
                        (h.proc, pid, time.monotonic() + h.duration_s)
                    )
        return fired

    def poll(self) -> list[int]:
        """SIGCONT finite hangs whose window expired; returns the workers."""
        if not self._stopped:
            return []
        now = time.monotonic()
        resumed: list[int] = []
        still: list[tuple[int, int, float]] = []
        for worker, pid, deadline in self._stopped:
            if now >= deadline:
                self._signal(pid, signal.SIGCONT)
                resumed.append(worker)
            else:
                still.append((worker, pid, deadline))
        self._stopped = still
        return resumed

    def release_all(self) -> None:
        """SIGCONT everything still stopped (teardown must not leave
        frozen children for the join loop to time out on)."""
        for _worker, pid, _deadline in self._stopped:
            self._signal(pid, signal.SIGCONT)
        self._stopped = []


# --------------------------------------------------------------------------- #
# recovery policy + accounting
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RecoveryPolicy:
    """How the supervised pool responds to dead, hung, or erroring workers.

    The ladder: a failed worker is respawned up to ``max_respawns`` times
    (per worker slot, with exponential backoff ``respawn_backoff_s * 2^n``);
    past that budget it is marked permanently dead and its tasks are
    reassigned to survivors through the WorkDB → LBProblem path (the same
    ``dead_procs`` marking the simulated balancer uses).  When no workers
    survive — or one evaluation needs more than ``max_recovery_rounds``
    recovery episodes — the pool degrades (closes; its client runs the
    tasks in-process) instead of raising.

    ``hang_timeout_s`` is the no-progress threshold after which a live but
    silent worker is declared hung and killed; ``None`` derives it per step
    as ``clamp(hang_grace_factor * EWMA(step wall time), min_hang_timeout_s,
    pool timeout)`` — no threshold is applied before the first completed
    step (cold starts legitimately take much longer than steady state).
    ``poll_interval_s`` bounds the supervisor's wait granularity: worker
    death interrupts the wait immediately via process sentinels, so this
    only paces hang/injector checks.

    ``recovery_budget_s`` caps the *total* wall clock one evaluation may
    spend across every recovery rung combined.  Each successful recovery
    re-arms the per-attempt deadline (a re-issued evaluation should not
    inherit a nearly expired one), so without this cap a flapping worker —
    hang, respawn, hang again — could stall a single evaluation for up to
    ``max_respawns × n_workers × timeout`` before the rounds limit bites.
    When the budget is exhausted the pool degrades immediately.  ``None``
    derives the cap as ``recovery_budget_factor × pool timeout``; pass
    ``math.inf`` to opt out.
    """

    max_respawns: int = 2
    respawn_backoff_s: float = 0.05
    max_recovery_rounds: int = 8
    hang_timeout_s: float | None = None
    min_hang_timeout_s: float = 1.0
    hang_grace_factor: float = 20.0
    poll_interval_s: float = 0.2
    recovery_budget_s: float | None = None
    recovery_budget_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if self.respawn_backoff_s < 0:
            raise ValueError("respawn_backoff_s must be >= 0")
        if self.max_recovery_rounds < 1:
            raise ValueError("max_recovery_rounds must be >= 1")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.recovery_budget_s is not None and self.recovery_budget_s <= 0:
            raise ValueError("recovery_budget_s must be positive")
        if self.recovery_budget_factor < 1.0:
            raise ValueError("recovery_budget_factor must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Backoff before respawn attempt ``attempt`` (0-based)."""
        return self.respawn_backoff_s * (2.0**attempt)

    def recovery_budget(self, timeout: float) -> float:
        """Total recovery wall clock one evaluation may consume."""
        if self.recovery_budget_s is not None:
            return self.recovery_budget_s
        return self.recovery_budget_factor * timeout

    def hang_threshold(self, step_wall_ewma: float, timeout: float) -> float:
        """Silence (seconds) after which a live worker counts as hung."""
        if self.hang_timeout_s is not None:
            return min(self.hang_timeout_s, timeout)
        if step_wall_ewma <= 0.0:
            return timeout  # no steady state yet: only the hard budget
        return min(
            max(self.hang_grace_factor * step_wall_ewma, self.min_hang_timeout_s),
            timeout,
        )


@dataclass
class RecoveryEventLog:
    """One recovery episode, as the driver saw it."""

    step: int  # evaluation index the episode interrupted (0 = between steps)
    worker: int
    kind: str  # "died" | "hung" | "error"
    action: str  # "respawned" | "reassigned" | "degraded"
    detection_s: float  # dispatch-to-detection latency (0 between steps)
    recovery_s: float  # detection-to-resolution wall time
    tasks_moved: int = 0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "worker": self.worker,
            "kind": self.kind,
            "action": self.action,
            "detection_s": self.detection_s,
            "recovery_s": self.recovery_s,
            "tasks_moved": self.tasks_moved,
            "detail": self.detail,
        }


@dataclass
class ResilienceStats:
    """Aggregate fault-tolerance accounting for one supervised pool.

    The real-engine sibling of the simulated runtime's
    :class:`~repro.runtime.checkpoint.RecoveryStats`: kills and hangs
    detected, respawns attempted and succeeded, tasks re-executed after
    reassignment, time spent recovering, and how long the pool has been
    running below full strength ("degraded").
    """

    events: list[RecoveryEventLog] = field(default_factory=list)
    kills_detected: int = 0
    hangs_detected: int = 0
    errors_detected: int = 0
    respawns: int = 0
    respawn_failures: int = 0
    tasks_reassigned: int = 0
    reassigned_by_kind: dict[str, int] = field(default_factory=dict)
    steps_redone: int = 0
    recovery_time_s: float = 0.0
    degraded_steps: int = 0
    degraded_since_step: int | None = None
    mode: str = "full"  # "full" | "degraded" | "sequential"

    @property
    def n_failures(self) -> int:
        return self.kills_detected + self.hangs_detected + self.errors_detected

    def note_event(self, event: RecoveryEventLog) -> None:
        self.events.append(event)
        if event.worker >= 0:
            # worker < 0 marks a synthetic pool-level event (e.g. the
            # degrade-to-sequential summary), not a per-worker detection
            if event.kind == "died":
                self.kills_detected += 1
            elif event.kind == "hung":
                self.hangs_detected += 1
            else:
                self.errors_detected += 1
        self.recovery_time_s += event.recovery_s

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "kills_detected": self.kills_detected,
            "hangs_detected": self.hangs_detected,
            "errors_detected": self.errors_detected,
            "respawns": self.respawns,
            "respawn_failures": self.respawn_failures,
            "tasks_reassigned": self.tasks_reassigned,
            "reassigned_by_kind": dict(self.reassigned_by_kind),
            "steps_redone": self.steps_redone,
            "recovery_time_s": self.recovery_time_s,
            "degraded_steps": self.degraded_steps,
            "events": [e.to_dict() for e in self.events],
        }
