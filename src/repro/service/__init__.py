"""Simulation-as-a-service: many concurrent jobs on shared worker capacity.

A scheduler (:class:`SimulationService`) runs many concurrent
simulations, each an engine-as-job adapter (:class:`repro.md.jobs.SimJob`)
stepped in slices, on one shared count of worker slots with per-tenant
quotas and priorities.  Its ``lanes`` threads take the running jobs from
one FIFO ready queue, one slice at a time, so a burst of small jobs steps
beside a long run instead of waiting behind it.

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
