"""Engine-as-job adapter: one simulation as a suspendable stream of steps.

The service layer (:mod:`repro.service`) schedules many concurrent
simulations; this module is the MD-side adapter it drives.  A
:class:`SimSpec` is a plain, JSON-round-trippable description of one run
(system, steps, engine configuration); a :class:`SimJob` owns the live
engine built from it and exposes the small surface the scheduler needs:

* ``open()`` / ``close()`` — build the engine (resuming from the job's
  durable checkpoint when one exists) and tear it down;
* ``step_slice(n)`` — advance up to ``n`` steps, returning NDJSON-ready
  metric/trajectory records;
* ``suspend()`` — close the engine, keeping the latest durable checkpoint.

Determinism contract: a job's trajectory is bit-identical to a solo run of
the same spec.  Slicing is invisible (an engine stepped 3+2 steps equals
one stepped 5), and suspend/resume rides the engine's own
``checkpoint_every`` schedule — suspension discards any steps past the
last durable checkpoint and replays them on resume, passing through the
exact rebuild-pinning points (:mod:`repro.runtime.checkpoint`) the
uninterrupted run passes through.  A spec with ``checkpoint_every=0`` is
still suspendable; it simply replays from step 0.

Backend isolation: the spec's ``backend`` is resolved per engine and
passed to :func:`repro.md.engine.make_engine` — never through the
process-wide default — so one job requesting the C backend cannot flip
another job's kernels mid-run (each engine's WorkDB keeps its own
``backend`` provenance).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.backend import BACKEND_NAMES
from repro.md.engine import POOL_KEYWORDS
from repro.md.ewald import MAX_KMAX

__all__ = ["MAX_WATERS", "SimSpec", "SimJob"]

#: Largest box a spec may ask for: a request sizes the arrays a worker or a
#: service lane allocates (and, under Ewald, the PME grid with the box edge,
#: ~144 points at this cap), so the boundary refuses what no lane should try
MAX_WATERS = 100_000

#: spec fields that must be non-negative
_NON_NEGATIVE = (
    "steps",
    "seed",
    "kmax",
    "checkpoint_every",
    "traj_every",
    "rebalance_every",
)

#: spec fields that are real numbers: each must be finite
_REAL = ("skew", "temperature", "dt", "cutoff", "skin", "timeout")

#: every spec field under the type it takes, as ``(type, label, names)``
_FIELD_TYPES = (
    (bool, "bool", ("relax", "ewald", "distribute")),
    (numbers.Integral, "int", ("waters", "workers", *_NON_NEGATIVE)),
    (numbers.Real, "float", _REAL),
    (str, "str", ("backend", "lb_strategy", "fault_plan")),
)

#: spec fields that may be null
_NULLABLE = ("skin", "timeout", "backend", "lb_strategy", "fault_plan")


@dataclass(frozen=True)
class SimSpec:
    """One simulation run, as a declarative JSON-friendly record.

    ``workers == 1`` runs the force tasks on the calling thread;
    ``workers >= 2`` runs a :class:`~repro.md.parallel.ParallelEngine` on
    that many executor threads (worker processes when ``fault_plan`` is
    set), whose count the service holds as cores of its shared worker
    slots while the job runs.
    """

    waters: int = 40
    seed: int = 0
    skew: float = 0.0
    relax: bool = False
    temperature: float = 25.0
    steps: int = 10
    dt: float = 1.0
    cutoff: float = 8.0
    skin: float | None = None
    workers: int = 1
    backend: str | None = None
    ewald: bool = False
    kmax: int = 4
    # no effect (bonded groups and the PME task are always force tasks);
    # accepted because benchmarks/perf/workloads.py still sets it — ROADMAP
    # item 2(d) deletes it with the harness's use
    distribute: bool = False
    rebalance_every: int = 0
    lb_strategy: str | None = None
    fault_plan: str | None = None
    checkpoint_every: int = 0
    traj_every: int = 0
    timeout: float | None = None

    def __post_init__(self) -> None:
        # everything wrong with a spec is a ValueError here — HTTP 400 at
        # submit — never a job that fails inside a scheduler lane
        for kind, label, names in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if value is None and name in _NULLABLE:
                    continue
                # a bool is an Integral to isinstance; JSON true is no count
                if not isinstance(value, kind) or (
                    isinstance(value, bool) and kind is not bool
                ):
                    raise ValueError(f"{name} must be {label}, got {value!r}")
        if not 1 <= self.waters <= MAX_WATERS:
            raise ValueError(f"waters must lie in [1, {MAX_WATERS}]")
        if self.kmax > MAX_KMAX:
            raise ValueError(f"kmax must be <= {MAX_KMAX}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")
        for name in _REAL:
            value = getattr(self, name)
            if value is not None and not _finite(value):
                raise ValueError(f"{name} must be finite")
        for name in (*_NON_NEGATIVE, "temperature", "skew", "skin"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.workers == 1:
            for name in _POOL_ONLY:
                if getattr(self, name):
                    raise ValueError(f"{name} needs workers >= 2")
        for name in ("dt", "cutoff", "timeout"):
            value = getattr(self, name)
            if value is not None and not value > 0:  # "not >" rejects NaN too
                raise ValueError(f"{name} must be positive")
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {', '.join(BACKEND_NAMES)}, "
                f"got {self.backend!r}"
            )
        if self.lb_strategy:
            from repro.md.lb_driver import check_schedule

            check_schedule(self.lb_strategy)
        if self.fault_plan:
            from repro.pool import pool_fault_plan

            try:
                pool_fault_plan(self.fault_plan, self.workers)
            except ValueError as exc:
                raise ValueError(f"bad fault_plan: {exc}") from None

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimSpec":
        """Build a spec from an untrusted JSON payload (REST submission)."""
        if not isinstance(data, dict):
            raise ValueError("spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown spec field(s): {', '.join(unknown)}")
        return cls(**data)

    @property
    def worker_slots(self) -> int:
        """Cores this spec's workers lease, threads or processes (0 when
        the tasks run on the calling thread)."""
        return 0 if self.workers == 1 else max(self.workers, 2)


#: spec fields that configure live workers
_POOL_ONLY = tuple(sorted(POOL_KEYWORDS.intersection(SimSpec.__dataclass_fields__)))


def _finite(value) -> bool:
    """Whether a real spec value is a finite float (an int too large for
    one is not)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _positions_digest(positions: np.ndarray) -> str:
    """Bitwise trajectory fingerprint: sha256 of the raw float64 bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(positions, dtype=np.float64).tobytes()
    ).hexdigest()


@dataclass
class SimJob:
    """A live engine driven in slices, with durable suspend/resume.

    Not thread-safe: the service scheduler serializes all calls on one
    job (concurrency happens *across* jobs, never within one).
    """

    spec: SimSpec
    workdir: Path
    engine: object | None = None
    steps_done: int = 0
    _records: list[dict] = field(default_factory=list)
    _emitted_step: int = 0
    _final_emitted: bool = False
    _provenance: dict | None = None

    def __post_init__(self) -> None:
        self.workdir = Path(self.workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / "checkpoint.npz"

    @property
    def spec_path(self) -> Path:
        """The spec of the run whose checkpoints the workdir holds."""
        return self.workdir / "spec.json"

    @property
    def done(self) -> bool:
        return self.steps_done >= self.spec.steps

    @property
    def active(self) -> bool:
        return self.engine is not None

    def _build_system(self):
        from repro.builder import skewed_water_box, small_water_box

        spec = self.spec
        if spec.skew > 0:
            system = skewed_water_box(
                spec.waters, seed=spec.seed, skew=spec.skew, relax=spec.relax
            )
        else:
            system = small_water_box(
                spec.waters, seed=spec.seed, relax=spec.relax
            )
        system.assign_velocities(spec.temperature, seed=spec.seed)
        return system

    def _build_engine(self, system):
        from repro.md.engine import make_engine
        from repro.md.integrator import VelocityVerlet
        from repro.md.nonbonded import NonbondedOptions

        spec = self.spec
        ewald = None
        if spec.ewald:
            from repro.md.ewald import EwaldOptions

            ewald = EwaldOptions(cutoff=spec.cutoff, kmax=spec.kmax)
        kwargs: dict = {}
        if spec.skin is not None:
            kwargs["skin"] = spec.skin
        if spec.checkpoint_every > 0:
            kwargs["checkpoint_every"] = spec.checkpoint_every
            kwargs["checkpoint_path"] = self.checkpoint_path
        # unset pool fields stay out: make_engine rejects them at workers == 1
        for name in _POOL_ONLY:
            if getattr(spec, name):
                kwargs[name] = getattr(spec, name)
        return make_engine(
            system,
            NonbondedOptions(cutoff=spec.cutoff),
            VelocityVerlet(dt=spec.dt),
            workers=spec.workers,
            backend=spec.backend,  # per-job, never the process default
            ewald=ewald,
            **kwargs,
        )

    def open(self) -> None:
        """Build (or rebuild) the engine, resuming from the durable
        checkpoint when one exists.

        A fresh run that checkpoints writes its spec next to the
        checkpoint; a resume refuses (``ValueError``) a checkpoint written
        under a spec that differs in anything but ``steps``, or one past
        this spec's ``steps``.  A checkpoint without a spec beside it
        resumes unchecked."""
        if self.engine is not None:
            return
        cp = None
        if self.checkpoint_path.exists():
            from repro.runtime.checkpoint import load_run_checkpoint

            cp = load_run_checkpoint(self.checkpoint_path)
            self._check_resume(int(cp.step))
        elif self.spec.checkpoint_every > 0:
            self.spec_path.write_text(json.dumps(self.spec.to_dict()))
        engine = self._build_engine(self._build_system())
        if cp is not None:
            from repro.runtime.checkpoint import restore_run_checkpoint

            try:
                restore_run_checkpoint(engine, cp)
            except BaseException:
                engine.close()  # a refused checkpoint leaves no workers
                raise
            self.steps_done = int(cp.step)
        self.engine = engine
        self.backend_provenance()  # snapshot while the engine is live

    def _check_resume(self, step: int) -> None:
        """Refuse a checkpoint at ``step`` that this spec cannot continue."""
        if step > self.spec.steps:
            raise ValueError(
                f"checkpoint in {self.workdir} is at step {step}, "
                f"past this run's {self.spec.steps} steps"
            )
        if not self.spec_path.exists():
            return
        written = json.loads(self.spec_path.read_text())
        for name, value in self.spec.to_dict().items():
            if name != "steps" and written.get(name) != value:
                raise ValueError(
                    f"checkpoint in {self.workdir} was written with "
                    f"{name}={written.get(name)!r}, not {value!r}"
                )

    # ------------------------------------------------------------------ #
    def step_slice(self, n: int) -> list[dict]:
        """Advance up to ``n`` steps; returns the new NDJSON records.

        Steps replayed after a suspend (those at or below the last emitted
        step) are recomputed — they must be, to rebuild the dynamical
        state — but not re-emitted: the replay is bit-identical to what
        the stream already carries, so the stream stays exactly one record
        per step, same as an uninterrupted run.
        """
        if self.engine is None:
            raise RuntimeError("job is not open")
        spec = self.spec
        n = min(int(n), spec.steps - self.steps_done)
        out: list[dict] = []
        for _ in range(max(n, 0)):
            report = self.engine.step()
            self.steps_done += 1
            if self.steps_done <= self._emitted_step:
                continue  # bit-identical replay of an already-emitted step
            self._emitted_step = self.steps_done
            out.append(
                {
                    "type": "step",
                    "step": self.steps_done,
                    "kinetic": report.kinetic,
                    "lj": report.lj,
                    "elec": report.elec,
                    "bonded": report.bonded.total,
                    "potential": report.potential,
                    "total": report.total,
                }
            )
            if spec.traj_every > 0 and self.steps_done % spec.traj_every == 0:
                out.append(self._frame_record())
        if self.done and not self._final_emitted:
            self._final_emitted = True
            out.append(self._frame_record(final=True))
        self._records.extend(out)
        return out

    def _frame_record(self, final: bool = False) -> dict:
        rec = {
            "type": "frame",
            "step": self.steps_done,
            "pos_sha256": _positions_digest(self.engine.system.positions),
        }
        if final:
            rec["final"] = True
        return rec

    @property
    def records(self) -> list[dict]:
        """Every record emitted so far (the job's NDJSON stream)."""
        return self._records

    # ------------------------------------------------------------------ #
    def backend_provenance(self) -> dict:
        """Which kernel backend this job actually ran (per-engine, plus
        the provenance its WorkDB recorded with the task timings).

        Snapshotted while the engine is live so the answer survives the
        engine's teardown — a completed job still reports its backend.
        """
        if self.engine is not None:
            self._provenance = {
                "backend": self.engine.backend.name,
                "workdb_backend": self.engine.workdb.backend,
            }
        if self._provenance is None:
            return {"backend": None, "workdb_backend": None}
        return dict(self._provenance)

    def suspend(self) -> None:
        """Release the engine (and its workers / leases).

        Progress past the last durable checkpoint is discarded and
        replayed on resume — the same steps, bit-identically, because
        resume passes through the identical rebuild-pinning points.
        """
        if self.engine is None:
            return
        engine = self.engine
        cp_step = 0
        if self.checkpoint_path.exists():
            from repro.runtime.checkpoint import load_run_checkpoint

            cp_step = int(load_run_checkpoint(self.checkpoint_path).step)
        # progress rolls back to the checkpoint; the emitted stream does
        # not (replayed steps are suppressed in step_slice)
        self.steps_done = cp_step
        self.engine = None
        engine.close()

    def close(self) -> None:
        """Tear the engine down without touching progress accounting."""
        if self.engine is None:
            return
        engine, self.engine = self.engine, None
        engine.close()
