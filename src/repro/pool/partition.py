"""Deterministic static partitioning of task costs onto workers.

The seed assignment of a supervised pool: contiguous, near-equal-cost
runs over the task order.  Generic — any client with a per-task cost
prior can use it (the MD engine seeds from its cost model, a synthetic
workload from uniform costs).
"""

from __future__ import annotations

import numpy as np

__all__ = ["contiguous_partition"]


def contiguous_partition(costs: np.ndarray, n_parts: int) -> np.ndarray:
    """Boundaries of ``n_parts`` contiguous, cost-balanced runs.

    Returns an int array ``bounds`` of length ``n_parts + 1`` with
    ``bounds[0] == 0`` and ``bounds[-1] == len(costs)``; part ``k`` owns
    tasks ``bounds[k]:bounds[k+1]``.  Deterministic: prefix-sum splitting at
    equal cost targets, each cut placed on whichever side of the task that
    straddles its target leaves the prefix nearer to it — so a cut misses
    its target by at most half a task, which is what matters when the tasks
    are few and large (one reciprocal task worth a third of the row beside
    36 cell tasks).

    Guarantees beyond the raw prefix cuts: whenever ``n_tasks >= n_parts``
    every part is nonempty (a single dominant task, or ``searchsorted``
    landing before a run of zero-cost tasks, would otherwise collapse
    several cuts onto one index and starve the trailing parts), and with
    ``n_parts > n_tasks`` the first ``n_tasks`` parts get one task each.
    The clamp moves a collapsed cut to the nearest admissible index, which
    never raises the maximum part cost: the part that previously held the
    dominant prefix only sheds tasks to its (previously empty) successors.
    """
    n_tasks = len(costs)
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    prefix = np.concatenate([[0.0], np.cumsum(costs)])
    total = float(prefix[-1])
    if total <= 0.0:
        bounds = np.linspace(0, n_tasks, n_parts + 1).round().astype(np.int64)
    else:
        targets = total * np.arange(1, n_parts) / n_parts
        cuts = np.searchsorted(prefix, targets, side="left")
        before = np.maximum(cuts - 1, 0)
        cuts = np.where(targets - prefix[before] < prefix[cuts] - targets, before, cuts)
        bounds = np.concatenate([[0], cuts, [n_tasks]]).astype(np.int64)
    # force strictly increasing bounds while tasks last: in the shifted
    # coordinate d[k] = bounds[k] - k, "every part nonempty" is plain
    # monotonicity, so one maximum.accumulate plus a clip to the feasible
    # band [0, n_tasks - n_parts] repairs collapsed cuts with the minimal
    # moves (and pins bounds[0] = 0, bounds[-1] = n_tasks)
    k = np.arange(n_parts + 1, dtype=np.int64)
    d = np.maximum.accumulate(np.clip(bounds, 0, n_tasks) - k)
    d = np.clip(d, 0, max(n_tasks - n_parts, 0))
    return np.minimum(d + k, n_tasks)
