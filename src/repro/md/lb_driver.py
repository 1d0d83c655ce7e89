"""Measurement-driven placement decisions for the parallel engine driver.

The driver makes two kinds of placement decision from the WorkDB's
per-task cost measurements, both of which only change *where* tasks run
(the assignment-independent reduction keeps forces bit-identical):

* **periodic rebalance** — on the engine's cadence, build an LBProblem
  at the current measurement state, run the configured schedule, and
  stage the new map for the next rebuilding dispatch;
* **death reassignment** — the pool's recovery ladder calls back here
  when a worker dies permanently; the dead worker's orphans are placed
  on survivors through the same LB machinery, with a least-loaded sweep
  for anything the strategy leaves behind.

Extracted from ``repro.md.parallel`` so the orchestration class stays a
thin conductor over the pool runtime, the task providers, and this
placement logic.
"""

from __future__ import annotations

import numpy as np


def build_driver_problem(workdb, n_workers, assignment, self_task_of, dead_procs):
    """The strategy-facing LBProblem at the current measurement state."""
    from repro.instrument import build_lb_problem

    patch_home = {c: int(assignment[t]) for c, t in self_task_of.items()}
    return build_lb_problem(
        workdb,
        n_workers,
        patch_home,
        # non-migratable bonded groups never move during a periodic
        # rebalance (the adapter's default task set filters them out),
        # but their measured cost is real — feed it in as per-worker
        # background so the balancer packs movable work around it
        background=workdb.fixed_owner_loads(n_workers),
        dead_procs=dead_procs,
    )


def check_schedule(schedule: str) -> None:
    """Raise ``ValueError`` unless every ``+``-joined part of ``schedule``
    names a registered balancer strategy."""
    from repro.balancer.strategies import STRATEGIES

    for part in schedule.split("+"):
        if part not in STRATEGIES:
            raise ValueError(
                f"unknown LB strategy {part!r}; choose from {sorted(STRATEGIES)}"
            )


def plan_rebalance(problem, assignment, step, schedule):
    """One LB decision: run ``schedule`` on ``problem`` and return the
    new assignment plus a log record of the before/after placement."""
    from repro.balancer.problem import placement_stats
    from repro.balancer.strategies import solve

    placement = solve(problem, schedule)
    new_assignment = assignment.copy()
    for tid, proc in placement.items():
        new_assignment[tid] = proc
    current = {c.index: c.proc for c in problem.computes}
    before = placement_stats(problem, current)
    after = placement_stats(problem, placement)
    record = {
        "step": int(step),
        "strategy": schedule,
        "moved": int(np.count_nonzero(new_assignment != assignment)),
        "max_load_before": before["max_load"],
        "max_load_after": after["max_load"],
        "imbalance_ratio_before": before["imbalance_ratio"],
        "imbalance_ratio_after": after["imbalance_ratio"],
    }
    return new_assignment, record


def reassign_orphans(
    workdb, resilience, n_workers, self_task_of, w, assignment, survivors
):
    """Place dead worker ``w``'s tasks on survivors via the LB machinery.

    An LBProblem over the orphans with ``dead_procs`` marked,
    greedy-solved; a least-loaded sweep places whatever the LB path did
    not (every orphan MUST leave the dead slot).  Fixed-owner bonded
    groups are reassigned here too — their owner pin survives remaps,
    not death.
    """
    orphans = np.flatnonzero(assignment == w)
    new_assignment = assignment.copy()
    if len(orphans):
        placed = None
        try:
            from repro.balancer.strategies import solve
            from repro.instrument import build_lb_problem

            patch_home = {
                c: int(assignment[t]) for c, t in self_task_of.items()
            }
            background = np.zeros(n_workers)
            loads = workdb.owner_loads(n_workers)
            for s in survivors:
                background[s] = loads[s]
            dead = frozenset(set(range(n_workers)) - set(survivors))
            problem = build_lb_problem(
                workdb,
                n_workers,
                patch_home,
                background=background,
                dead_procs=dead,
                task_ids=orphans.tolist(),
            )
            placed = solve(problem, "greedy")
        except Exception:  # pragma: no cover - LB path must not be fatal
            placed = None
        if placed:
            for tid, proc in placed.items():
                new_assignment[tid] = proc
        leftovers = [
            tid for tid in orphans.tolist() if new_assignment[tid] == w
        ]
        if leftovers:
            loads = workdb.owner_loads(n_workers)
            load_of = {s: float(loads[s]) for s in survivors}
            for tid in leftovers:
                tgt = min(survivors, key=lambda s: (load_of[s], s))
                new_assignment[tid] = tgt
                load_of[tgt] += max(float(workdb.load(tid)), 1e-12)
        for tid in orphans.tolist():
            rec = workdb.tasks.get(tid)
            kind = rec.kind if rec is not None else "cell"
            resilience.reassigned_by_kind[kind] = (
                resilience.reassigned_by_kind.get(kind, 0) + 1
            )
            if rec is not None and not rec.migratable:
                # the group is pinned to its (new) owner from here on
                rec.owner = int(new_assignment[tid])
    return new_assignment
