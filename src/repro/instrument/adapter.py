"""The WorkDB → :class:`LBProblem` adapter of the real engine.

A strategy sees the ``ParallelEngine``'s measurements as the same problem
description the simulated runtime builds from its own load sums: per-task
predictive loads, patch affinity, current ownership, home processors,
existing proxies, and background load.
"""

from __future__ import annotations

import numpy as np

from repro.balancer.problem import ComputeItem, LBProblem
from repro.instrument.workdb import WorkDB

__all__ = ["build_lb_problem", "derive_proxies"]


def derive_proxies(
    db: WorkDB, patch_home: dict[int, int]
) -> set[tuple[int, int]]:
    """(patch, proc) pairs where current ownership implies a proxy.

    A task placed away from one of its patches' home processors forces the
    runtime to keep a proxy of that patch there — these already-paid
    communication costs are what the refinement strategy may reuse for
    free (paper §3.2).
    """
    proxies: set[tuple[int, int]] = set()
    for rec in db.tasks.values():
        if rec.owner < 0:
            continue
        for patch in rec.patches:
            if patch_home.get(patch) != rec.owner:
                proxies.add((patch, rec.owner))
    return proxies


def build_lb_problem(
    db: WorkDB,
    n_procs: int,
    patch_home: dict[int, int],
    background: np.ndarray,
    dead_procs=frozenset(),
    task_ids=None,
) -> LBProblem:
    """Build the strategy-facing problem from the measurement database.

    ``background`` is the per-worker load strategies pack migratable work
    around; existing proxies are derived from current task ownership via
    :func:`derive_proxies`.  ``task_ids`` restricts/orders the migratable
    computes (default: every migratable task in the database, sorted by
    id).
    """
    if task_ids is None:
        task_ids = sorted(
            tid for tid, rec in db.tasks.items() if rec.migratable
        )
    scale = db._prior_scale()
    computes = [
        ComputeItem(
            index=int(tid),
            load=db.load(tid, scale),
            patches=db.tasks[tid].patches,
            proc=int(db.tasks[tid].owner),
        )
        for tid in task_ids
    ]
    return LBProblem(
        n_procs=int(n_procs),
        computes=computes,
        background=np.asarray(background, dtype=np.float64),
        patch_home=dict(patch_home),
        existing_proxies=derive_proxies(db, patch_home),
        dead_procs=frozenset(dead_procs),
    )

