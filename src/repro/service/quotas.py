"""Per-tenant admission limits for the simulation service.

Quotas are two-phase, matching the scheduler's structure: ``max_queued``
is checked at *submission* (a tenant cannot flood the queue), while
``max_running`` and ``max_workers`` are checked at *admission* (a tenant's
jobs wait in the queue — without blocking other tenants — until its own
running set shrinks).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QuotaError", "TenantQuota"]


class QuotaError(Exception):
    """A submission or admission would exceed the tenant's quota."""


@dataclass(frozen=True)
class TenantQuota:
    """Limits for one tenant.

    ``max_workers`` caps the tenant's summed *worker slots* — cores, one
    per worker thread or process (sequential jobs count 0) — so one
    tenant cannot monopolize the service's shared worker slots even
    within its running limit.
    """

    max_running: int = 4
    max_queued: int = 16
    max_workers: int = 8

    def __post_init__(self) -> None:
        if self.max_running < 1:
            raise ValueError("max_running must be >= 1")
        if self.max_queued < 0:
            raise ValueError("max_queued must be >= 0")
        if self.max_workers < 0:
            raise ValueError("max_workers must be >= 0")

    def check_submit(self, tenant: str, n_queued: int) -> None:
        if n_queued >= self.max_queued:
            raise QuotaError(
                f"tenant {tenant!r} has {n_queued} queued jobs "
                f"(max_queued={self.max_queued})"
            )

    def admits(self, n_running: int, running_slots: int, new_slots: int) -> bool:
        """May a job needing ``new_slots`` worker slots start now?"""
        if n_running >= self.max_running:
            return False
        return running_slots + new_slots <= self.max_workers
