"""The workload matrix and the code that runs one workload.

Engine rows run *rounds*: a round builds the system from the seed, makes
a fresh engine, takes the first step (that is the set-up), a few warm-up
steps and a fixed number of timed steps, then closes the engine.  The
same seed gives a bit-identical trajectory, so step ``i`` does the same
work in every round; rounds repeat until ``--seconds`` is used up and
per-step wall is the fastest of the rounds at the same step index.  The
service row repeats *batches* the same way: one batch is six jobs
submitted together to a fresh ``SimulationService``.

Sizes were chosen so that a run takes about ``run_seconds`` of
``BENCHMARK.json`` plus a few seconds of checks on a 2-core host; why
each workload is in the matrix is recorded in ``BENCHMARK.json`` and the
README.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import procstat
from .spans import Recorder, Tracing

CUTOFF = 8.0
TEMPERATURE = 300.0
#: the harness polls job states this often — and faster until the first
#: job has made progress, because that moment is the service's set-up time
POLL_S = 0.02
SETUP_POLL_S = 0.002
#: rounds (or batches) a run takes even when ``--seconds`` is shorter
MIN_ROUNDS = 3
#: cross-engine agreement of total energy at the same step index, checked
#: on the first ``REF_STEPS`` timed steps against the sequential engine
ENERGY_RTOL = 1e-6
REF_STEPS = 2
#: the service's slice length (its default)
SLICE_STEPS = 5
#: allowed swing of total energy over the timed steps, as a share of the
#: mean kinetic energy (unrelaxed flexible water at dt = 1 fs swings ~2 %)
DRIFT_TOL = 0.06


@dataclass(frozen=True)
class EngineWorkload:
    name: str
    waters: int
    workers: int
    kmax: int  # 0: cutoff electrostatics; > 0: Ewald with this kmax
    warmup: int
    steps: int
    cutoff: float = CUTOFF


@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    #: (waters, steps, workers, ewald kmax or 0)
    jobs: tuple[tuple[int, int, int, int], ...]
    checkpoint_every: int
    cutoff: float = CUTOFF


FULL = {
    w.name: w
    for w in (
        EngineWorkload("water2k-cutoff-pool2", 729, 2, 0, warmup=2, steps=24),
        EngineWorkload("water2k-cutoff-seq", 729, 1, 0, warmup=0, steps=4),
        EngineWorkload("water1k-ewald-pool2", 343, 2, 4, warmup=1, steps=24),
        ServiceWorkload(
            "service-mix6",
            jobs=(
                (729, 12, 2, 0), (216, 15, 1, 0), (216, 10, 1, 0),
                (216, 15, 1, 0), (343, 8, 1, 0), (216, 4, 1, 4),
            ),
            checkpoint_every=5,
        ),
    )
}

#: seconds-long versions of the same rows for the smoke test
TOY = {
    "water2k-cutoff-pool2": replace(
        FULL["water2k-cutoff-pool2"], waters=125, cutoff=6.0, steps=2
    ),
    "water2k-cutoff-seq": replace(
        FULL["water2k-cutoff-seq"], waters=125, cutoff=6.0, steps=2
    ),
    "water1k-ewald-pool2": replace(
        FULL["water1k-ewald-pool2"], waters=125, cutoff=6.0, kmax=3, steps=2
    ),
    "service-mix6": replace(
        FULL["service-mix6"],
        jobs=(
            (64, 8, 1, 0), (64, 8, 1, 0), (64, 8, 1, 0),
            (64, 8, 1, 0), (64, 8, 1, 2), (125, 8, 2, 0),
        ),
        checkpoint_every=4,
        cutoff=6.0,
    ),
}


def _digest(positions) -> str:
    import numpy as np

    return hashlib.sha256(
        np.ascontiguousarray(positions, dtype=np.float64).tobytes()
    ).hexdigest()


def rounds_until(seconds: float, run_one, rec: Recorder | None) -> list:
    """Call ``run_one(index, traced)`` until another call would overrun
    ``seconds``, and at least ``MIN_ROUNDS`` times.

    With a recorder, odd rounds run with the tracing wrappers installed
    (and one more round is the minimum): plain and traced rounds
    alternate, so the tracing overhead is measured inside the same run.
    """
    min_rounds = MIN_ROUNDS if rec is None else MIN_ROUNDS + 1
    out = []
    start = time.perf_counter()
    while True:
        if rec is not None and len(out) % 2 == 1:
            with Tracing(rec):
                out.append(run_one(len(out), True))
        else:
            out.append(run_one(len(out), False))
        elapsed = time.perf_counter() - start
        if len(out) >= min_rounds and elapsed + elapsed / len(out) > seconds:
            return out


@dataclass
class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ---------------------------------------------------------------------- #
# engine rows
# ---------------------------------------------------------------------- #
@dataclass
class Round:
    setup_s: float = 0.0
    build_s: float = 0.0
    spawn_s: float = 0.0
    close_s: float = 0.0
    wall_s: float = 0.0
    step_s: list[float] = field(default_factory=list)
    rebuilt: list[bool] = field(default_factory=list)
    total: list[float] = field(default_factory=list)
    kinetic: list[float] = field(default_factory=list)
    n_pairs: int = 0
    #: cumulative user CPU (driver + workers) at each timed-step boundary
    cpu_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    digest: str = ""
    traced: bool = False
    #: read from the live engine before it closes (see ``layers``)
    engine_stats: dict = field(default_factory=dict)


def build_system(waters: int, seed: int):
    from repro.builder import small_water_box

    system = small_water_box(waters, seed=seed, relax=False)
    system.assign_velocities(TEMPERATURE, seed=seed)
    return system


def make_workload_engine(w: EngineWorkload, system, workers: int | None = None):
    from repro.md.engine import make_engine
    from repro.md.ewald import EwaldOptions
    from repro.md.integrator import VelocityVerlet
    from repro.md.nonbonded import NonbondedOptions

    workers = w.workers if workers is None else workers
    kwargs: dict = {}
    if w.kmax:
        kwargs["ewald"] = EwaldOptions(cutoff=w.cutoff, kmax=w.kmax)
        if workers > 1:
            kwargs["distribute"] = True
    return make_engine(
        system, NonbondedOptions(cutoff=w.cutoff), VelocityVerlet(dt=1.0),
        workers=workers, **kwargs,
    )


def rebuild_count(engine) -> int:
    """Pair-list builds so far: the pool's counter when it is live, the
    sequential engine's own Verlet list otherwise."""
    if getattr(engine, "parallel", False):
        return engine._nb.n_rebuilds
    return engine.pairlist.n_builds


def run_round(
    w: EngineWorkload, seed: int, index: int, ops: Ops,
    rec: Recorder | None = None, before_close=None,
) -> Round:
    """One round; ``before_close(engine, round)`` runs on the final state."""
    now = time.perf_counter
    r = Round(traced=rec is not None)
    memory = procstat.PeakMemory()
    t0 = now()
    system = build_system(w.waters, seed)
    r.build_s = now() - t0
    engine = make_workload_engine(w, system)
    r.spawn_s = now() - t0 - r.build_s
    try:
        memory.sample()
        if w.workers > 1:
            ops.check(engine.parallel, f"{w.name}: pool did not engage")
        engine.step()
        r.setup_s = now() - t0
        for _ in range(w.warmup):
            engine.step()
        r.cpu_s.append(procstat.cpu_user_s())
        for i in range(w.steps):
            builds = rebuild_count(engine)
            span = rec.open("step", req=f"round{index}-step{i}") if rec else None
            t = now()
            try:
                report = engine.step()
            except Exception as exc:  # a failed step fails the rest too
                for k in range(i, w.steps):
                    ops.check(False, f"{w.name}: step {k} raised {exc!r}")
                break
            finally:
                r.step_s.append(now() - t)
                if span:
                    rec.close(span)
            r.cpu_s.append(procstat.cpu_user_s())
            r.rebuilt.append(rebuild_count(engine) != builds)
            r.total.append(report.total)
            r.kinetic.append(report.kinetic)
            r.n_pairs = report.n_pairs
            ops.check(
                math.isfinite(report.total),
                f"{w.name}: non-finite energy at step {i}",
            )
        memory.sample()
        r.peak_rss_mb = memory.total_mb()
        r.digest = _digest(engine.system.positions)
        if before_close is not None:
            before_close(engine, r)
    finally:
        t = now()
        span = rec.open("engine.close") if rec else None
        engine.close()
        if span:
            rec.close(span)
        r.close_s = now() - t
    r.wall_s = now() - t0
    return r


def reference_energies(w: EngineWorkload, seed: int) -> list[float]:
    """Total energy of the first timed steps on the sequential engine."""
    engine = make_workload_engine(w, build_system(w.waters, seed), workers=1)
    with engine:
        for _ in range(1 + w.warmup):
            engine.step()
        return [engine.step().total for _ in range(min(REF_STEPS, w.steps))]


def best_step_s(rounds: list[Round]) -> list[float]:
    """Wall of each timed step index: the fastest of the rounds.

    Step ``i`` does bit-identical work in every round, so what differs
    between rounds is the host; its slow phases last seconds and only
    ever add time.
    """
    n = min(len(r.step_s) for r in rounds)
    return [min(r.step_s[i] for r in rounds) for i in range(n)]


def cycle_window(rebuilt: list[bool]) -> range:
    """The timed steps that make up whole pair-list cycles: from the first
    rebuild step up to the last one.  Rebuild steps cost several times a
    reuse step, and how many fall inside a fixed window depends on the
    seed; over whole cycles they count in their natural proportion."""
    at = [i for i, b in enumerate(rebuilt) if b]
    return range(at[0], at[-1]) if len(at) >= 2 else range(len(rebuilt))


def _steps_per_s(rounds: list[Round]) -> float:
    best = best_step_s(rounds)
    window = cycle_window(rounds[0].rebuilt[: len(best)])
    return len(window) / sum(best[i] for i in window)


def _cpu_user_s_per_step(rounds: list[Round]) -> float:
    window = cycle_window(rounds[0].rebuilt)
    return min(
        (r.cpu_s[window.stop] - r.cpu_s[window.start]) / len(window)
        for r in rounds
        if len(r.cpu_s) > window.stop
    )


def check_engine_rounds(w: EngineWorkload, rounds: list[Round], ops: Ops) -> None:
    first = rounds[0]
    for k, r in enumerate(rounds[1:], 1):
        ops.check(r.digest == first.digest, f"{w.name}: round {k} digest differs")
    if first.total:
        swing = max(first.total) - min(first.total)
        scale = statistics.fmean(first.kinetic)
        ops.check(
            swing <= DRIFT_TOL * scale,
            f"{w.name}: total energy swings {swing:.3g} over the timed steps "
            f"(> {DRIFT_TOL:.0%} of mean kinetic {scale:.3g})",
        )


def engine_end_to_end(rounds: list[Round]) -> dict[str, float]:
    plain = [r for r in rounds if not r.traced]
    return {
        "setup_s": statistics.median(r.setup_s for r in plain),
        "steps_per_s": _steps_per_s(plain),
        "step_ms_p50": 1e3 * statistics.median(best_step_s(plain)),
        "cpu_user_s_per_step": _cpu_user_s_per_step(plain),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        "job_turnaround_s": min(r.wall_s for r in plain),
    }


def run_engine_workload(w: EngineWorkload, seed: int, seconds: float, trace: bool):
    """Returns ``(metrics, ops, info, recorder)`` for one engine row."""
    from . import layers

    ops = Ops()
    rec = Recorder() if trace else None
    probes: dict = {}

    def probe_final_state(engine, r: Round) -> None:
        rec.enabled = False  # what follows is not part of the workload
        try:
            r.engine_stats = layers.engine_stats(engine)
            if not probes:
                probes.update(layers.run_probes(w, engine))
        finally:
            rec.enabled = True

    def one(index: int, traced: bool) -> Round:
        if traced:
            return run_round(w, seed, index, ops, rec, probe_final_state)
        return run_round(w, seed, index, ops)

    rounds = rounds_until(seconds, one, rec)
    check_engine_rounds(w, rounds, ops)
    if w.workers > 1 and rounds[0].total:
        ref = reference_energies(w, seed)
        for i, (e_ref, e) in enumerate(zip(ref, rounds[0].total)):
            ops.check(
                abs(e - e_ref) <= ENERGY_RTOL * abs(e_ref),
                f"{w.name}: step {i} energy {e!r} != sequential {e_ref!r}",
            )
    info = {
        "rounds": len(rounds),
        "timed_steps": sum(len(r.step_s) for r in rounds if not r.traced),
        "digest": rounds[0].digest,
    }
    if trace:
        metrics = layers.engine_layer_metrics(rounds, rec, probes)
        metrics["trace.overhead_frac"] = 1.0 - _steps_per_s(
            [r for r in rounds if r.traced]
        ) / _steps_per_s([r for r in rounds if not r.traced])
    else:
        metrics = engine_end_to_end(rounds)
    return metrics, ops, info, rec


# ---------------------------------------------------------------------- #
# service row
# ---------------------------------------------------------------------- #
def service_specs(w: ServiceWorkload, seed: int):
    from repro.md.jobs import SimSpec

    return [
        SimSpec(
            waters=waters, steps=steps, workers=workers, seed=seed + 100 + i,
            ewald=kmax > 0, kmax=kmax or 4, distribute=workers > 1,
            cutoff=w.cutoff, temperature=TEMPERATURE,
            checkpoint_every=w.checkpoint_every,
        )
        for i, (waters, steps, workers, kmax) in enumerate(w.jobs)
    ]


@dataclass
class Solo:
    """One job run alone through ``SimJob``: the reference for its digest."""

    wall_s: float
    step_ms_p50: float
    sha: str


def run_solo(spec, workdir: Path) -> Solo:
    from repro.md.jobs import SimJob

    t0 = time.perf_counter()
    job = SimJob(spec, workdir)
    step_s = []
    try:
        job.open()
        while not job.done:
            t = time.perf_counter()
            job.step_slice(1)
            step_s.append(time.perf_counter() - t)
    finally:
        job.close()
    return Solo(
        wall_s=time.perf_counter() - t0,
        step_ms_p50=1e3 * statistics.median(step_s),
        sha=job.records[-1]["pos_sha256"],
    )


@dataclass
class Batch:
    setup_s: float = 0.0
    makespan_s: float = 0.0
    submit_ms: list[float] = field(default_factory=list)
    admit_s: list[float] = field(default_factory=list)
    turnaround_s: list[float] = field(default_factory=list)
    states: list[str] = field(default_factory=list)
    steps_done: list[int] = field(default_factory=list)
    shas: list[str] = field(default_factory=list)
    records: int = 0
    slices: int = 0
    peak_leased: int = 0
    cpu_user_s: float = 0.0
    peak_rss_mb: float = 0.0
    traced: bool = False


def run_batch(
    w: ServiceWorkload, specs, workdir: Path, deadline_s: float, traced: bool
) -> Batch:
    from repro.service import SimulationService
    from repro.service.quotas import TenantQuota

    now = time.perf_counter
    n = len(specs)
    b = Batch(traced=traced)
    memory = procstat.PeakMemory()
    cpu0 = procstat.cpu_user_s()
    t0 = now()
    service = SimulationService(
        worker_slots=2, lanes=2, slice_steps=SLICE_STEPS, workdir=workdir,
        default_quota=TenantQuota(max_running=n), rebalance_every=0,
    )
    service.start()
    try:
        jobs, submitted = [], []
        for spec in specs:
            t = now()
            jobs.append(service.submit(spec))
            submitted.append(t)
            b.submit_ms.append(1e3 * (now() - t))
        running_at = [None] * n
        done_at = [None] * n
        progress_at = None
        while None in done_at and now() - t0 < deadline_s:
            t = now()
            for i, job in enumerate(jobs):
                state = job.state.value
                if running_at[i] is None and state != "queued":
                    running_at[i] = t
                if done_at[i] is None and job.terminal:
                    done_at[i] = t
                if progress_at is None and job.sim.steps_done > 0:
                    progress_at = t
            b.peak_leased = max(b.peak_leased, service.budget.leased)
            memory.sample()
            time.sleep(SETUP_POLL_S if progress_at is None else POLL_S)
        end = now()
        b.setup_s = (progress_at or end) - t0
        b.makespan_s = max(t or end for t in done_at) - submitted[0]
        b.admit_s = [(r or end) - s for r, s in zip(running_at, submitted)]
        b.turnaround_s = [(d or end) - s for d, s in zip(done_at, submitted)]
        b.states = [job.state.value for job in jobs]
        b.steps_done = [job.sim.steps_done for job in jobs]
        b.shas = [
            job.sim.records[-1].get("pos_sha256", "") if job.sim.records else ""
            for job in jobs
        ]
        b.records = sum(len(job.sim.records) for job in jobs)
        b.slices = service.stats()["slices_done"]
        b.peak_rss_mb = memory.total_mb()
    finally:
        service.shutdown()
    b.cpu_user_s = procstat.cpu_user_s() - cpu0
    return b


def service_end_to_end(w: ServiceWorkload, batches: list[Batch]) -> dict[str, float]:
    plain = [b for b in batches if not b.traced]
    steps = [steps for _, steps, _, _ in w.jobs]
    small = [i for i, (_, _, workers, _) in enumerate(w.jobs) if workers == 1]
    med = statistics.median
    # batches are bit-identical, so like the engine rows' rounds the
    # fastest batch is the one the host disturbed least
    turnaround = [min(b.turnaround_s[i] for b in plain) for i in range(len(steps))]
    return {
        "setup_s": med(b.setup_s for b in plain),
        "steps_per_s": sum(steps) / min(b.makespan_s for b in plain),
        # what one job's owner sees: its turnaround spread over its steps
        "step_ms_p50": med(1e3 * t / n for t, n in zip(turnaround, steps)),
        "cpu_user_s_per_step": min(b.cpu_user_s for b in plain) / sum(steps),
        "peak_rss_mb": med(b.peak_rss_mb for b in plain),
        "job_turnaround_s": med(turnaround[i] for i in small),
    }


def run_service_workload(
    w: ServiceWorkload, seed: int, seconds: float, trace: bool, workdir: Path
):
    """Returns ``(metrics, ops, info, recorder)`` for the service row."""
    from . import layers

    ops = Ops()
    rec = Recorder() if trace else None
    specs = service_specs(w, seed)
    solos = [run_solo(spec, workdir / f"solo{i}") for i, spec in enumerate(specs)]
    # four times the solo runs back to back is far beyond any healthy batch
    deadline_s = 4.0 * sum(s.wall_s for s in solos) + 10.0

    def one(index: int, traced: bool) -> Batch:
        batch_dir = workdir / f"batch{index}"
        try:
            return run_batch(w, specs, batch_dir, deadline_s, traced)
        finally:
            if index != 1:  # a traced run's probes read batch 1's files
                shutil.rmtree(batch_dir, ignore_errors=True)

    batches = rounds_until(seconds, one, rec)
    for k, b in enumerate(batches):
        for i, (spec, solo) in enumerate(zip(specs, solos)):
            ops.check(
                b.states[i] == "completed"
                and b.steps_done[i] == spec.steps
                and b.shas[i] == solo.sha,
                f"{w.name}: batch {k} job {i} ended {b.states[i]} at step "
                f"{b.steps_done[i]}/{spec.steps}, digest "
                f"{'matches' if b.shas[i] == solo.sha else 'differs from'} solo",
            )
    info = {
        "rounds": len(batches),
        "timed_steps": sum(s.steps for s in specs)
        * sum(1 for b in batches if not b.traced),
        "digest": hashlib.sha256("".join(s.sha for s in solos).encode()).hexdigest(),
        "small_jobs": sum(1 for s in specs if s.workers == 1),
    }
    if trace:
        metrics = layers.service_layer_metrics(
            specs, solos, batches, rec, workdir / "batch1"
        )
        makespan = {
            t: min(b.makespan_s for b in batches if b.traced is t)
            for t in (True, False)
        }
        metrics["trace.overhead_frac"] = 1.0 - makespan[False] / makespan[True]
    else:
        metrics = service_end_to_end(w, batches)
    return metrics, ops, info, rec
