"""Generic task executors: threads, or a supervised shared-memory pool.

A reusable executor layer extracted from the MD parallel engine: the
in-process executor, which runs the tasks through one per-step loop on N
threads (or on the calling thread when no workers are attached), and the
supervised process pool kept for what only processes give — worker
supervision (spawn/respawn with pipes and sentinels), a collision-free
shared-memory segment registry, an epoch'd dispatch/collect step protocol
with per-task timing, deterministic fault injection, and the respawn →
reassign → degrade recovery ladder.

The runtime is domain-agnostic: it schedules opaque task ids described
by a :class:`TaskProvider` (see :mod:`repro.pool.protocol`) and imports
nothing from :mod:`repro.md` — the MD force-field workload plugs in
through :mod:`repro.md.tasks`, and any other workload (the synthetic
provider in ``tests/test_pool``, future multi-job services) can do the
same.
"""

from repro.pool.lease import WorkerBudget, WorkerLease
from repro.pool.partition import contiguous_partition
from repro.pool.protocol import (
    STAT_COLS,
    STAT_TIME_NS,
    STAT_V0,
    STAT_V1,
    STAT_V2,
    TaskEvaluator,
    TaskProvider,
)
from repro.pool.resilience import (
    HAS_POSIX_SIGNALS,
    FaultInjector,
    RecoveryEventLog,
    RecoveryPolicy,
    ResilienceStats,
    pool_fault_plan,
)
from repro.pool.runtime import InProcessExecutor, SupervisedPool
from repro.pool.segments import (
    HAS_SHARED_MEMORY,
    SegmentRegistry,
    attach_segment,
)

__all__ = [
    "HAS_POSIX_SIGNALS",
    "HAS_SHARED_MEMORY",
    "FaultInjector",
    "InProcessExecutor",
    "RecoveryEventLog",
    "RecoveryPolicy",
    "ResilienceStats",
    "STAT_COLS",
    "STAT_TIME_NS",
    "STAT_V0",
    "STAT_V1",
    "STAT_V2",
    "SegmentRegistry",
    "SupervisedPool",
    "TaskEvaluator",
    "TaskProvider",
    "WorkerBudget",
    "WorkerLease",
    "attach_segment",
    "contiguous_partition",
    "pool_fault_plan",
]
