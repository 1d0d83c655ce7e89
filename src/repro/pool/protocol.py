"""Contracts between the supervised pool runtime and its task providers.

The runtime (:mod:`repro.pool.runtime`) schedules *opaque* tasks: it
knows how many there are, where each task's scratch block lives, and how
long each execution took — never what a task computes.  Everything
domain-specific enters through two small interfaces:

* :class:`TaskProvider` — the driver-side description of a task family:
  how many tasks, how big the shared scratch must be, which extra shared
  data segments the tasks need (e.g. particle positions), and a factory
  for the worker-side evaluator.  The provider object is shipped to
  every worker process (by fork inheritance or pickle), so it must be
  picklable and must not hold live OS resources.
* :class:`TaskEvaluator` — the worker-process-side object built by the
  provider.  The runtime's generic worker loop calls it in a fixed
  order: :meth:`~TaskEvaluator.begin_step` with the driver's per-step
  payload, :meth:`~TaskEvaluator.rebuild` whenever the task→worker
  assignment changed or the driver requested it (returning the scratch
  block *offsets* that define the reduction layout), then — if the
  evaluator has one — ``eval_batch`` once, then
  :meth:`~TaskEvaluator.eval_task` once per owned task the batch did not
  cover, and finally :meth:`~TaskEvaluator.end_step` with the worker's
  private stats row.

Both are :class:`typing.Protocol` classes — structural, no inheritance
required — so providers (e.g. :mod:`repro.md.tasks`) depend only on this
module, never on runtime internals.

**Determinism contract**: the scratch layout returned by ``rebuild`` and
the driver's reduction over it must be derived from *task order*, never
from the assignment — that is what makes results bit-identical across
worker counts, remaps, and recovery (see the MD engine's docstring for
the worked example).  The runtime guarantees in return that a respawned
or reassigned worker re-runs ``rebuild`` before evaluating anything.

**The optional batch.**  The unit of scheduling need not be the unit of
inner-loop work: an evaluator may evaluate many of its tasks in one call.
It does so by having a method ``eval_batch(scratch) -> (tasks, rows)`` — not
part of :class:`TaskEvaluator`, which every evaluator must satisfy; the
runtime looks it up on the evaluator and, when it is missing, runs the
per-task loop over everything.  The call evaluates whichever of the
executor's tasks (those of the last ``rebuild``) the evaluator batches, each
into its own block of ``scratch`` (the layout that ``rebuild`` returned;
blocks are zeroed by the evaluator here, not by the runtime), and returns
their ids (an int array) and a ``(len(tasks), STAT_COLS)`` float64 array of
their stats rows — the three values *and* :data:`STAT_TIME_NS`, measured
per task by the evaluator itself, so the balancers keep a time for every
task on every step.  The runtime copies the rows into the stats array and
calls ``eval_task`` for the executor's remaining tasks only.

Per-task statistics travel through a shared ``(n_tasks + n_workers, 4)``
float64 array: columns :data:`STAT_V0`, :data:`STAT_V1`, :data:`STAT_V2`
carry the three values returned by ``eval_task`` (the provider assigns
their meaning), and :data:`STAT_TIME_NS` the measured wall time of the
task in nanoseconds (slowdown-injection inclusive: a single task is timed
by the runtime around ``eval_task`` and spun out to ``factor`` times its
time; after a batch the runtime spins once for ``(factor - 1)`` times the
sum of the batch's own task times and records each scaled by ``factor``).
Rows past ``n_tasks`` are per-worker rows handed to ``end_step``.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "STAT_V0",
    "STAT_V1",
    "STAT_V2",
    "STAT_TIME_NS",
    "STAT_COLS",
    "TaskEvaluator",
    "TaskProvider",
]

#: columns of the shared per-task stats array
STAT_V0, STAT_V1, STAT_V2, STAT_TIME_NS = range(4)
STAT_COLS = 4


@runtime_checkable
class TaskEvaluator(Protocol):
    """Worker-side task executor, built once per worker process."""

    def begin_step(self, payload: Any) -> None:
        """Receive the driver's per-step payload (e.g. the current box)."""

    def rebuild(self, my_tasks: list[int]) -> np.ndarray:
        """Refresh per-assignment state; return scratch block offsets.

        Called before the first evaluation and whenever the driver set
        the rebuild flag or changed this worker's assignment.  Returns an
        ``int64`` array of ``n_tasks + 1`` offsets: task ``t`` owns
        scratch rows ``offsets[t]:offsets[t + 1]``.  Must be derived
        deterministically from shared reference data so every worker
        (and the driver) agrees on the layout without communicating.
        """

    def eval_task(self, t: int, block: np.ndarray) -> tuple[float, float, float]:
        """Evaluate task ``t`` into its (pre-zeroed) scratch block.

        Returns three floats recorded in the task's stats row
        (:data:`STAT_V0`..:data:`STAT_V2`).
        """

    def end_step(self, out_row: np.ndarray) -> None:
        """Publish per-worker stats into this worker's private row."""

    def close(self) -> None:
        """Drop buffer views so the worker can unmap shared segments."""


@runtime_checkable
class TaskProvider(Protocol):
    """Driver-side description of a family of schedulable tasks."""

    @property
    def n_tasks(self) -> int:
        """Total number of tasks (fixed for the life of the pool)."""

    def scratch_shape(self) -> tuple[int, int]:
        """``(rows, width)`` of the shared float64 scratch array.

        ``rows`` must upper-bound every layout :meth:`TaskEvaluator.
        rebuild` can ever return, so the segment sized at pool start
        stays valid across rebuilds.
        """

    def segments(self) -> dict[str, tuple[tuple[int, ...], str]]:
        """Extra shared data segments: label → ``(shape, dtype name)``.

        The runtime creates each one, exposes a driver-side view via
        :meth:`~repro.pool.runtime.SupervisedPool.view`, and hands the
        worker-side views to :meth:`make_evaluator`.  Labels must not
        collide with the runtime's own ``"scratch"``/``"stats"``.
        """

    def make_evaluator(
        self, worker_id: int, n_workers: int, views: dict[str, np.ndarray]
    ) -> TaskEvaluator:
        """Build the worker-side evaluator (called in the worker process).

        ``views`` maps every label from :meth:`segments` plus
        ``"scratch"`` and ``"stats"`` to its mapped array.
        """
