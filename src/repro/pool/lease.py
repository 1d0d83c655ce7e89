"""Worker-slot leasing: one core budget shared by many executors.

The service layer runs many concurrent simulations, each owning its own
executor — worker threads, or a :class:`~repro.pool.runtime.SupervisedPool`
of processes under a fault plan (an executor's task structure is fixed per
workload at construction) — but the machine's cores are one shared
resource.  :class:`WorkerBudget` is the thread-safe allocator for that
resource: a job acquires a :class:`WorkerLease` for the slots its workers
will occupy, one core each, holds it for the executor's lifetime, and
releases it when the executor closes — so the total number of live workers
across every job stays bounded no matter how many jobs are queued.

Deliberately tiny and domain-free (this module is part of ``repro.pool``
and must not import any MD layer): the budget does not spawn anything and
does not know what a job is.  Admission policy — who waits, who runs,
priorities, quotas — lives with the caller (``repro.service``).
"""

from __future__ import annotations

import threading

__all__ = ["WorkerBudget", "WorkerLease"]


class WorkerLease:
    """A held allocation of worker slots; release exactly once.

    Usable as a context manager.  ``release()`` is idempotent, so a
    crash-path sweep may release a lease the happy path already returned.
    """

    __slots__ = ("slots", "label", "_budget", "_released")

    def __init__(self, budget: "WorkerBudget", slots: int, label: str) -> None:
        self.slots = int(slots)
        self.label = str(label)
        self._budget = budget
        self._released = False

    @property
    def active(self) -> bool:
        return not self._released

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._budget._give_back(self)

    def __enter__(self) -> "WorkerLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "released"
        return f"WorkerLease({self.slots} slots, {self.label!r}, {state})"


class WorkerBudget:
    """Thread-safe fixed budget of worker slots (cores).

    ``try_acquire`` never blocks: the service's admission loop polls it at
    scheduling boundaries, which keeps admission policy (priorities,
    quotas, fairness) out of this layer entirely.
    """

    def __init__(self, total_slots: int) -> None:
        total_slots = int(total_slots)
        if total_slots < 0:
            raise ValueError("total_slots must be >= 0")
        self._total = total_slots
        self._leased = 0
        self._lock = threading.Lock()
        self._live: set[WorkerLease] = set()

    @property
    def total(self) -> int:
        return self._total

    @property
    def leased(self) -> int:
        with self._lock:
            return self._leased

    @property
    def available(self) -> int:
        with self._lock:
            return self._total - self._leased

    @property
    def n_leases(self) -> int:
        with self._lock:
            return len(self._live)

    def try_acquire(self, slots: int, label: str = "") -> WorkerLease | None:
        """Lease ``slots`` worker slots, or return None if they don't fit.

        ``slots=0`` is legal (a driver-only sequential job) and always
        succeeds — it participates in lease accounting without consuming
        capacity.
        """
        slots = int(slots)
        if slots < 0:
            raise ValueError("slots must be >= 0")
        if slots > self._total:
            raise ValueError(
                f"lease of {slots} slots can never fit a budget of "
                f"{self._total} (raise the budget or shrink the job)"
            )
        with self._lock:
            if self._leased + slots > self._total:
                return None
            lease = WorkerLease(self, slots, label)
            self._leased += slots
            self._live.add(lease)
            return lease

    def _give_back(self, lease: WorkerLease) -> None:
        with self._lock:
            if lease in self._live:
                self._live.discard(lease)
                self._leased -= lease.slots

    def release_all(self) -> None:
        """Crash-path sweep: force-release every outstanding lease."""
        with self._lock:
            live = list(self._live)
        for lease in live:
            lease.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkerBudget({self._leased}/{self._total} leased, "
            f"{self.n_leases} leases)"
        )
