"""Processor-utilization profiles (paper §4.1, summary level 2).

"Two types of trace information are stored in the summary profile.  The
first is the processor utilization for every processor throughout the
program run."

Provides the per-processor utilization vector and an ASCII profile
rendering (one bar per processor, or binned for large machines), plus the
aggregate statistics the paper's audits derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.trace import SummaryProfile

__all__ = [
    "UtilizationProfile",
    "utilization_profile",
    "workdb_utilization",
    "format_utilization",
]


@dataclass
class UtilizationProfile:
    """Busy fraction per processor over a measured interval."""

    utilization: np.ndarray  # in [0, 1] per processor
    makespan: float

    @property
    def mean(self) -> float:
        """Mean busy fraction across processors."""
        return float(self.utilization.mean()) if len(self.utilization) else 0.0

    @property
    def minimum(self) -> float:
        """Lowest per-processor busy fraction."""
        return float(self.utilization.min()) if len(self.utilization) else 0.0

    @property
    def maximum(self) -> float:
        """Highest per-processor busy fraction."""
        return float(self.utilization.max()) if len(self.utilization) else 0.0

    def idle_processors(self, threshold: float = 0.05) -> int:
        """Processors busy less than ``threshold`` of the time (the paper's
        'many processors with no work at all' before load balancing)."""
        return int(np.count_nonzero(self.utilization < threshold))


def utilization_profile(
    summary: SummaryProfile, makespan: float
) -> UtilizationProfile:
    """Build the profile from a summary and the measured wall interval."""
    if makespan <= 0:
        raise ValueError("makespan must be positive")
    util = np.clip(summary.busy_time_per_proc / makespan, 0.0, 1.0)
    return UtilizationProfile(utilization=util, makespan=makespan)


def workdb_utilization(db, n_workers: int) -> UtilizationProfile:
    """Profile of one modeled step from a :class:`repro.instrument.WorkDB`.

    The same chart the simulated runtime derives from its trace, but for the
    real parallel engine's measurement database (live, or reloaded from a
    ``--workdb-dump`` file with :meth:`WorkDB.load_file`): each worker's
    busy time is the predicted per-step load of its tasks, and the makespan
    is the slowest worker — the barrier every other worker waits on.
    """
    loads = db.owner_loads(n_workers)
    makespan = float(loads.max()) if len(loads) else 0.0
    if makespan <= 0.0:
        return UtilizationProfile(
            utilization=np.zeros(int(n_workers)), makespan=0.0
        )
    return UtilizationProfile(
        utilization=np.clip(loads / makespan, 0.0, 1.0), makespan=makespan
    )


def format_utilization(
    profile: UtilizationProfile, width: int = 50, max_rows: int = 64
) -> str:
    """ASCII utilization chart; bins processors when there are many."""
    util = profile.utilization
    n = len(util)
    lines = [
        f"utilization: mean {profile.mean:.1%}, min {profile.minimum:.1%}, "
        f"max {profile.maximum:.1%}, idle procs {profile.idle_processors()}"
    ]
    if n <= max_rows:
        groups = [(f"P{p}", util[p : p + 1]) for p in range(n)]
    else:
        per_bin = int(np.ceil(n / max_rows))
        groups = [
            (f"P{p}-{min(p + per_bin, n) - 1}", util[p : p + per_bin])
            for p in range(0, n, per_bin)
        ]
    for label, vals in groups:
        frac = float(vals.mean())
        bar = "#" * int(round(width * frac))
        lines.append(f"{label:>12} |{bar:<{width}}| {frac:5.1%}")
    return "\n".join(lines)
