"""A minimal synthetic TaskProvider for exercising the pool runtime alone.

Task ``t`` computes ``data[t] * scale`` (``scale`` arrives as the step
payload) and writes it into its one scratch row — enough to verify the
dispatch/collect protocol, the shared-memory plumbing, per-task stats,
and that recovery reproduces the exact same numbers.  No MD imports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SyntheticEvaluator:
    def __init__(self, n_tasks: int, worker_id: int, views: dict) -> None:
        self.n_tasks = int(n_tasks)
        self.worker_id = int(worker_id)
        self.data = views["data"]
        self.scale = 1.0
        self.rebuilds = 0

    def begin_step(self, payload) -> None:
        self.scale = float(payload)

    def rebuild(self, my_tasks):
        self.rebuilds += 1
        return np.arange(self.n_tasks + 1, dtype=np.int64)

    def eval_task(self, t: int, block: np.ndarray):
        val = float(self.data[t]) * self.scale
        block[...] = val
        return (val, 2.0 * val, 1.0)

    def end_step(self, out_row: np.ndarray) -> None:
        out_row[0] = float(self.rebuilds)

    def close(self) -> None:
        self.data = None


@dataclass
class SyntheticProvider:
    n: int

    @property
    def n_tasks(self) -> int:
        return self.n

    def scratch_shape(self):
        return (self.n, 3)

    def segments(self):
        return {"data": ((self.n,), "float64")}

    def make_evaluator(self, worker_id, n_workers, views):
        return SyntheticEvaluator(self.n, worker_id, views)


class BatchingEvaluator(SyntheticEvaluator):
    """Evaluates its even tasks in one ``eval_batch`` call (the protocol's
    optional batch), reporting ``1000 (t + 1)`` ns for task ``t``; the odd
    ones are left to ``eval_task``, and an even task reaching it is a bug."""

    def rebuild(self, my_tasks):
        self.batched = np.array([t for t in my_tasks if t % 2 == 0], dtype=np.int64)
        return super().rebuild(my_tasks)

    def eval_batch(self, scratch):
        rows = np.zeros((len(self.batched), 4))
        for k, t in enumerate(self.batched):
            rows[k, :3] = super().eval_task(t, scratch[t : t + 1])
            rows[k, 3] = 1000.0 * (t + 1)
        self.last_rows = rows.copy()
        return self.batched, rows

    def eval_task(self, t, block):
        assert t % 2 == 1, "a batched task reached the per-task loop"
        return super().eval_task(t, block)


class BatchingProvider(SyntheticProvider):
    def make_evaluator(self, worker_id, n_workers, views):
        return BatchingEvaluator(self.n, worker_id, views)


class SleepyEvaluator(SyntheticEvaluator):
    """Each task takes ~20 ms — wide enough to land mid-step faults."""

    def eval_task(self, t, block):
        import time

        time.sleep(0.02)
        return super().eval_task(t, block)


@dataclass
class SleepyProvider(SyntheticProvider):
    def make_evaluator(self, worker_id, n_workers, views):
        return SleepyEvaluator(self.n, worker_id, views)


class ErroringEvaluator(SyntheticEvaluator):
    """Raises deterministically on one task — every incarnation re-raises."""

    def eval_task(self, t, block):
        if t == 0:
            raise RuntimeError("synthetic task failure")
        return super().eval_task(t, block)


@dataclass
class ErroringProvider(SyntheticProvider):
    def make_evaluator(self, worker_id, n_workers, views):
        return ErroringEvaluator(self.n, worker_id, views)


class FlappingEvaluator(SyntheticEvaluator):
    """Hangs forever on task 0 — *every* incarnation hangs again.

    The canonical flapping worker: hang → respawn → hang.  Each respawn
    looks like progress to the supervisor, so without a total recovery
    budget the ladder re-arms a fresh timeout per rung.
    """

    def eval_task(self, t, block):
        if t == 0:
            import time

            while True:
                time.sleep(0.05)
        return super().eval_task(t, block)


@dataclass
class FlappingProvider(SyntheticProvider):
    def make_evaluator(self, worker_id, n_workers, views):
        return FlappingEvaluator(self.n, worker_id, views)
