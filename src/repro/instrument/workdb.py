"""The measurement database shared by the simulated and real runtimes.

One :class:`TaskRecord` per schedulable object (a compute descriptor in the
simulated runtime, a half-shell cell task in the real engine) holding:

* the **cost-model prior** — the load estimate used "before the first
  measurement" (paper §2.2),
* an **EWMA** of measured per-execution times plus the raw **last-K
  window** (the window is what serialization preserves, so a dump can be
  re-analyzed without losing the recent history),
* the accumulated **total** and invocation count (what the simulated
  runtime's :class:`~repro.runtime.stats.LBSnapshot` reports),
* the task's **patch affinity** and current **owner**.

:meth:`WorkDB.load` is the predictive load estimate strategies consume: the
prior while unmeasured, then a sample-count-weighted blend that lets
measurements dominate after ``prior_blend_samples`` executions.  When
``calibrate_prior`` is on, priors of still-unmeasured tasks are rescaled by
the measured/prior ratio of the measured ones, so cost-model units
(arbitrary) and wall-clock seconds can mix in one problem.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["TaskRecord", "WorkDB"]

#: default EWMA smoothing weight of the newest sample
DEFAULT_ALPHA = 0.3
#: default last-K window length (also the default measurement count after
#: which the prior's weight reaches zero)
DEFAULT_WINDOW = 8


@dataclass
class TaskRecord:
    """Measurement state of one schedulable task.

    Grainsize sub-tasks (paper §4.2.1–2) carry their identity here:
    ``parent`` is the index of the unsplit cell task the slice came from
    (``-1`` for a task that is not a slice), ``part``/``n_parts`` the slice
    coordinates.  The ``prior`` of a slice is the parent's prior inherited
    pro-rata by candidate count.
    """

    task_id: int
    patches: tuple[int, ...] = ()
    owner: int = -1
    prior: float = 0.0
    migratable: bool = True
    ewma: float = 0.0
    n_samples: int = 0
    total: float = 0.0
    window: deque = field(default_factory=lambda: deque(maxlen=DEFAULT_WINDOW))
    parent: int = -1
    part: int = 0
    n_parts: int = 1
    #: task kind: "cell" (half-shell pair task), "bonded" (per-cell bonded
    #: term group), "kspace" (the Ewald reciprocal PME task) — lets per-kind
    #: measured times feed the balancer and analysis tooling
    kind: str = "cell"

    @property
    def last(self) -> float:
        """Most recent sample (0.0 when unmeasured)."""
        return self.window[-1] if self.window else 0.0

    def window_mean(self) -> float:
        """Mean of the last-K window (0.0 when unmeasured)."""
        return float(np.mean(self.window)) if self.window else 0.0


class WorkDB:
    """Per-task wall-clock samples, priors, affinity, and background load.

    ``prior_blend_samples`` controls the prior-to-measurement handoff: the
    measured EWMA's weight grows linearly with the sample count and reaches
    1 after that many samples (``1`` reproduces the paper's simulated
    runtime, where one measured phase fully replaces the cost model).
    """

    def __init__(
        self,
        ewma_alpha: float = DEFAULT_ALPHA,
        window: int = DEFAULT_WINDOW,
        prior_blend_samples: int | None = None,
        calibrate_prior: bool = True,
    ) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if window < 1:
            raise ValueError("window must be >= 1")
        self.ewma_alpha = float(ewma_alpha)
        self.window = int(window)
        self.prior_blend_samples = int(
            prior_blend_samples if prior_blend_samples is not None else window
        )
        if self.prior_blend_samples < 1:
            raise ValueError("prior_blend_samples must be >= 1")
        self.calibrate_prior = bool(calibrate_prior)
        self.tasks: dict[int, TaskRecord] = {}
        self._background_total: dict[int, float] = {}
        self._background_ewma: dict[int, float] = {}
        self._background_samples: dict[int, int] = {}
        self.measured_steps = 0
        #: recovery accounting fed by the real engine's supervisor — event
        #: counters keyed by kind ("kills", "hangs", "errors", "respawns",
        #: "reassigned", "degraded", ...); empty on a fault-free run
        self.recovery: dict[str, int] = {}
        #: kernel backend the samples were measured under (``None`` until
        #: declared); a compiled kernel's sample is not comparable to a numpy one, so
        #: switching backends resets the measurement state
        self.backend: str | None = None
        #: backend resolved by each worker at spawn, keyed by worker id
        self.worker_backends: dict[int, str] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def ensure_task(
        self,
        task_id: int,
        patches: tuple[int, ...] = (),
        prior: float = 0.0,
        owner: int = -1,
        migratable: bool = True,
        parent: int = -1,
        part: int = 0,
        n_parts: int = 1,
        kind: str = "cell",
    ) -> TaskRecord:
        """Declare a task (idempotent); updates affinity/prior if given.

        ``parent``/``part``/``n_parts`` declare a grainsize slice (see
        :class:`TaskRecord`); they default to "not a slice".  ``kind``
        classifies the task ("cell", "bonded", "kspace").
        """
        rec = self.tasks.get(task_id)
        if rec is None:
            rec = self.tasks[task_id] = TaskRecord(
                task_id,
                tuple(int(p) for p in patches),
                int(owner),
                float(prior),
                migratable,
                window=deque(maxlen=self.window),
                parent=int(parent),
                part=int(part),
                n_parts=int(n_parts),
                kind=str(kind),
            )
        else:
            if patches:
                rec.patches = tuple(int(p) for p in patches)
            if prior:
                rec.prior = float(prior)
            if owner >= 0:
                rec.owner = int(owner)
            if parent >= 0:
                rec.parent = int(parent)
                rec.part = int(part)
                rec.n_parts = int(n_parts)
            if kind != "cell":
                rec.kind = str(kind)
        return rec

    def kind_loads(self) -> dict[str, float]:
        """Predicted load summed per task kind (balancer/report input)."""
        out: dict[str, float] = {}
        scale = self._prior_scale()
        for tid, rec in self.tasks.items():
            out[rec.kind] = out.get(rec.kind, 0.0) + self.load(tid, scale)
        return out

    def fixed_owner_loads(self, n_workers: int) -> np.ndarray:
        """Per-worker predicted load of *non-migratable* tasks only.

        This is the background term :func:`repro.instrument.adapter.
        build_lb_problem` packs migratable work around: fixed inter-cell
        bonded groups stay with their owner, so the balancer must see their
        load as immovable."""
        out = np.zeros(int(n_workers), dtype=np.float64)
        scale = self._prior_scale()
        for tid, rec in self.tasks.items():
            if not rec.migratable and 0 <= rec.owner < len(out):
                out[rec.owner] += self.load(tid, scale)
        return out

    def record(
        self,
        task_id: int,
        seconds: float,
        owner: int | None = None,
        migratable: bool | None = None,
    ) -> None:
        """Add one execution-time sample for ``task_id``."""
        rec = self.tasks.get(task_id)
        if rec is None:
            rec = self.ensure_task(task_id)
        s = float(seconds)
        rec.total += s
        rec.window.append(s)
        if rec.n_samples == 0:
            rec.ewma = s
        else:
            rec.ewma += self.ewma_alpha * (s - rec.ewma)
        rec.n_samples += 1
        if owner is not None:
            rec.owner = int(owner)
        if migratable is not None:
            rec.migratable = bool(migratable)
        if not rec.migratable and rec.owner >= 0:
            self._background_total[rec.owner] = (
                self._background_total.get(rec.owner, 0.0) + s
            )

    def record_many(
        self, task_ids, seconds, owners=None
    ) -> None:
        """Vectorized-ish bulk :meth:`record` (one step of the real engine)."""
        if owners is None:
            for tid, s in zip(task_ids, seconds):
                self.record(int(tid), float(s))
        else:
            for tid, s, w in zip(task_ids, seconds, owners):
                self.record(int(tid), float(s), owner=int(w))

    def record_background(self, worker: int, seconds: float) -> None:
        """Add one per-step background (non-migratable) load sample."""
        worker = int(worker)
        s = float(seconds)
        self._background_total[worker] = (
            self._background_total.get(worker, 0.0) + s
        )
        n = self._background_samples.get(worker, 0)
        if n == 0:
            self._background_ewma[worker] = s
        else:
            self._background_ewma[worker] += self.ewma_alpha * (
                s - self._background_ewma[worker]
            )
        self._background_samples[worker] = n + 1

    def mark_step(self) -> None:
        """Note that one simulation step's worth of data was recorded."""
        self.measured_steps += 1

    def note_recovery(self, kind: str, n: int = 1) -> None:
        """Count ``n`` recovery events of ``kind`` (kills, respawns, ...)."""
        self.recovery[str(kind)] = self.recovery.get(str(kind), 0) + int(n)

    def set_backend(self, name: str) -> None:
        """Declare the kernel backend the coming samples run under.

        Timings taken under different backends are not comparable (a compiled
        kernel can be an order of magnitude faster than the numpy
        reference), so if measurements already exist for a *different*
        backend the per-task measurement state (EWMA, windows, totals,
        background) is dropped — priors, affinity, and ownership survive,
        exactly the "before the first measurement" state of a fresh run.
        """
        name = str(name)
        if self.backend is not None and self.backend != name and any(
            rec.n_samples > 0 for rec in self.tasks.values()
        ):
            for rec in self.tasks.values():
                rec.ewma = 0.0
                rec.n_samples = 0
                rec.total = 0.0
                rec.window.clear()
            self._background_total.clear()
            self._background_ewma.clear()
            self._background_samples.clear()
            self.measured_steps = 0
        self.backend = name
        self.worker_backends = {
            w: b for w, b in self.worker_backends.items() if b == name
        }

    def note_worker_backend(self, worker: int, name: str) -> None:
        """Record the backend worker ``worker`` resolved at (re)spawn."""
        self.worker_backends[int(worker)] = str(name)

    def reset(self) -> None:
        """Drop all measurements, priors, and background state."""
        self.tasks.clear()
        self._background_total.clear()
        self._background_ewma.clear()
        self._background_samples.clear()
        self.measured_steps = 0
        self.recovery.clear()
        self.backend = None
        self.worker_backends.clear()

    # ------------------------------------------------------------------ #
    # predictive loads
    # ------------------------------------------------------------------ #
    def _prior_scale(self) -> float:
        """Measured-seconds per prior-unit over measured tasks (>= 1 sample)."""
        if not self.calibrate_prior:
            return 1.0
        ewma_sum = prior_sum = 0.0
        for rec in self.tasks.values():
            if rec.n_samples > 0 and rec.prior > 0.0:
                ewma_sum += rec.ewma
                prior_sum += rec.prior
        return ewma_sum / prior_sum if prior_sum > 0.0 and ewma_sum > 0.0 else 1.0

    def load(self, task_id: int, prior_scale: float | None = None) -> float:
        """Predicted per-execution load: prior, measurement, or blend."""
        rec = self.tasks[task_id]
        if prior_scale is None:
            prior_scale = self._prior_scale()
        if rec.n_samples == 0:
            return rec.prior * prior_scale
        if rec.prior <= 0.0:
            # no prior knowledge to blend against: trust the measurement
            return rec.ewma
        w = min(rec.n_samples / self.prior_blend_samples, 1.0)
        return w * rec.ewma + (1.0 - w) * rec.prior * prior_scale

    def loads(self, task_ids=None) -> np.ndarray:
        """Predicted loads for ``task_ids`` (default: all, sorted by id)."""
        if task_ids is None:
            task_ids = sorted(self.tasks)
        scale = self._prior_scale()
        return np.array([self.load(t, scale) for t in task_ids], dtype=np.float64)

    def owner_loads(self, n_workers: int) -> np.ndarray:
        """Predicted per-worker load: sum of each owner's task loads."""
        out = np.zeros(int(n_workers), dtype=np.float64)
        scale = self._prior_scale()
        for tid, rec in self.tasks.items():
            if 0 <= rec.owner < len(out):
                out[rec.owner] += self.load(tid, scale)
        return out

    def background_array(self, n_workers: int, per_step: bool = True) -> np.ndarray:
        """Per-worker background load (EWMA of per-step samples)."""
        out = np.zeros(int(n_workers), dtype=np.float64)
        source = self._background_ewma if per_step else self._background_total
        for worker, value in source.items():
            if 0 <= worker < len(out):
                out[worker] = value
        return out

    def background_totals(self) -> dict[int, float]:
        """Accumulated background seconds per worker (simulated-runtime view)."""
        return dict(self._background_total)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable dump of the full database."""
        return {
            "ewma_alpha": self.ewma_alpha,
            "window": self.window,
            "prior_blend_samples": self.prior_blend_samples,
            "calibrate_prior": self.calibrate_prior,
            "measured_steps": self.measured_steps,
            "recovery": dict(self.recovery),
            "backend": self.backend,
            "worker_backends": {
                str(k): v for k, v in self.worker_backends.items()
            },
            "background_total": {
                str(k): v for k, v in self._background_total.items()
            },
            "background_ewma": {
                str(k): v for k, v in self._background_ewma.items()
            },
            "background_samples": {
                str(k): v for k, v in self._background_samples.items()
            },
            "tasks": [
                {
                    "task_id": rec.task_id,
                    "patches": list(rec.patches),
                    "owner": rec.owner,
                    "prior": rec.prior,
                    "migratable": rec.migratable,
                    "ewma": rec.ewma,
                    "n_samples": rec.n_samples,
                    "total": rec.total,
                    "window": list(rec.window),
                    "parent": rec.parent,
                    "part": rec.part,
                    "n_parts": rec.n_parts,
                    "kind": rec.kind,
                }
                for rec in self.tasks.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkDB":
        """Rebuild a database from :meth:`to_dict` output."""
        db = cls(
            ewma_alpha=data["ewma_alpha"],
            window=data["window"],
            prior_blend_samples=data["prior_blend_samples"],
            calibrate_prior=data["calibrate_prior"],
        )
        db.measured_steps = int(data["measured_steps"])
        # dumps from before the resilience layer carry no recovery block
        db.recovery = {
            str(k): int(v) for k, v in data.get("recovery", {}).items()
        }
        # dumps from before the backend layer carry neither field
        raw_backend = data.get("backend")
        db.backend = str(raw_backend) if raw_backend is not None else None
        db.worker_backends = {
            int(k): str(v) for k, v in data.get("worker_backends", {}).items()
        }
        db._background_total = {
            int(k): float(v) for k, v in data["background_total"].items()
        }
        db._background_ewma = {
            int(k): float(v) for k, v in data["background_ewma"].items()
        }
        db._background_samples = {
            int(k): int(v) for k, v in data["background_samples"].items()
        }
        for t in data["tasks"]:
            rec = TaskRecord(
                int(t["task_id"]),
                tuple(int(p) for p in t["patches"]),
                int(t["owner"]),
                float(t["prior"]),
                bool(t["migratable"]),
                float(t["ewma"]),
                int(t["n_samples"]),
                float(t["total"]),
                deque(
                    (float(x) for x in t["window"]), maxlen=db.window
                ),
                parent=int(t.get("parent", -1)),
                part=int(t.get("part", 0)),
                n_parts=int(t.get("n_parts", 1)),
                kind=str(t.get("kind", "cell")),
            )
            db.tasks[rec.task_id] = rec
        return db

    def dump(self, path) -> None:
        """Write the database as JSON to ``path`` atomically.

        The write goes through a same-directory temp file + fsync +
        ``os.replace`` (:func:`repro.util.atomic_write_text`), so a driver
        killed mid-dump never leaves a truncated database behind — a reader
        sees the previous complete dump or the new one, never a torn file.
        """
        from repro.util import atomic_write_text

        atomic_write_text(path, json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load_file(cls, path) -> "WorkDB":
        """Read a database dumped with :meth:`dump`.

        Raises ``ValueError`` (with the path in the message) on a corrupt or
        truncated dump instead of leaking a bare ``JSONDecodeError``.
        """
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt WorkDB dump {path}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ValueError(
                f"corrupt WorkDB dump {path}: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        return cls.from_dict(data)
