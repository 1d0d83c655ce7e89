"""Simulation-as-a-service: many concurrent jobs on shared worker capacity.

An async scheduler (:class:`SimulationService`) runs many concurrent
simulations, each an engine-as-job adapter (:class:`repro.md.jobs.SimJob`)
stepped in slices, on a shared :class:`~repro.pool.lease.WorkerBudget`
with per-tenant quotas and priorities.  Slices of all running jobs are
drawn from one work-conserving queue of ``lanes`` threads, so a burst of
small jobs steps beside a long run instead of waiting behind it.

Front ends: a stdlib-``http.server`` REST API (:mod:`repro.service.api`)
with NDJSON metric/trajectory streaming, and the ``repro serve`` CLI.
"""

from repro.service.api import ServiceServer, serve
from repro.service.jobs import Job, JobState
from repro.service.quotas import QuotaError, TenantQuota
from repro.service.scheduler import SimulationService

__all__ = [
    "Job",
    "JobState",
    "QuotaError",
    "ServiceServer",
    "SimulationService",
    "TenantQuota",
    "serve",
]
