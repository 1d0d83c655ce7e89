"""The real engine's measurement layer (paper §2.2).

"The framework automatically instruments all Charm++ objects, collects
their timing and communication data at runtime (in a 'database'), and
provides a standard interface to different load balancing strategies."

The real engine (:mod:`repro.md.parallel`) records ``perf_counter_ns``
wall-clock samples per task into a :class:`WorkDB`: the samples (EWMA +
last-K window), the cost-model prior used before the first measurement,
task→patch affinity and ownership.  :func:`build_lb_problem` turns a
database into the strategy-facing
:class:`~repro.balancer.problem.LBProblem`.  The simulated runtime sums its
own modeled loads (:class:`repro.runtime.scheduler.Scheduler`) and builds
the same problem directly; it imports nothing from here.
"""

from repro.instrument.adapter import build_lb_problem, derive_proxies
from repro.instrument.workdb import TaskRecord, WorkDB

__all__ = ["WorkDB", "TaskRecord", "build_lb_problem", "derive_proxies"]
