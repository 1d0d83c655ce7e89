"""Per-layer metrics of a traced run, one function per kind of workload.

A metric a function does not set is reported as 0 by the caller: the
layer did no work on that workload's driver-side path.  Names and units
are those of ``BENCHMARK.json``; the README's glossary says how each is
measured and which end-to-end metric it should move.
"""

from __future__ import annotations

import shutil
import statistics
from pathlib import Path

from . import probes
from .spans import Recorder, Tracing


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def engine_stats(engine) -> dict:
    """What the layer metrics need from a live engine's public accounting."""
    system = engine.system
    pairlist = engine.pairlist
    out = {
        "parallel": bool(getattr(engine, "parallel", False)),
        "atoms": system.n_atoms,
        "bonded_terms": system.topology.n_terms,
        "pairlist_builds": pairlist.n_builds if pairlist else 0,
        "pairlist_reuse_frac": pairlist.reuse_fraction if pairlist else 0.0,
    }
    if engine.ewald is not None:
        cache = engine.kspace_cache_stats()
        driver = cache.get("driver", cache)
        out["kspace_builds"] = driver["builds"] + cache.get("worker_builds", 0)
        out["kspace_hits"] = driver["hits"] + cache.get("worker_hits", 0)
    if out["parallel"]:
        workdb = engine.workdb
        per_worker: dict[int, float] = {}
        for task in workdb.tasks.values():
            # mean over the last ``workdb.window`` evaluations: steady
            # state, the spawn-time evaluations have left the window
            per_worker[task.owner] = (
                per_worker.get(task.owner, 0.0) + 1e3 * task.window_mean()
            )
        out.update(
            driver_share=engine.driver_report()["driver_share"],
            tasks=len(workdb.tasks),
            window=workdb.window,
            worker_ms=list(per_worker.values()),
            recoveries=sum(workdb.recovery.values()),
        )
    return out


def run_probes(w, engine) -> dict:
    """Replay probes on the state a round ended in (engine still open)."""
    system = engine.system
    out = probes.probe_pair_layers(
        system, engine.options, engine.pairlist.skin, engine.backend,
        coulomb=engine.ewald is None,
    )
    if engine.ewald is not None:
        out.update(probes.probe_ewald(system, engine.ewald, engine.backend))
    if w.workers > 1:
        out["pool.roundtrip_us"] = probes.probe_pool_roundtrip_us()
    return out


def _pairlist_builds(rec: Recorder) -> list:
    """The pair-list lookups that enumerated cells, i.e. rebuilt the list."""
    kids = rec.children()
    return [
        s for s in rec.by_name("pairlist.pairs")
        if any(c.name == "cells.enumerate" for c in kids.get(s.id, ()))
    ]


def _span_metrics(rec: Recorder) -> dict[str, float]:
    """Metrics every workload reads off its spans the same way."""
    return {
        "nonbonded.eval_ms": _median(rec.self_ms("nonbonded.eval")),
        "bonded.eval_ms": _median(s.ms for s in rec.by_name("bonded.eval")),
        "ewald.eval_ms": _median(s.ms for s in rec.by_name("ewald.eval")),
        "integrator.self_ms": _median(rec.self_ms("integrator.step")),
        "pairlist.build_ms": _median(s.ms for s in _pairlist_builds(rec)),
        "parallel.dispatch_ms": _median(
            s.ms for s in rec.by_name("parallel.dispatch")
        ),
        "parallel.collect_ms": _median(
            s.ms for s in rec.by_name("parallel.collect")
        ),
        "trace.spans": len(rec.spans),
    }


def _eval_wall_ms(rec: Recorder, round_index: int, last: int) -> float:
    """Mean dispatch → collect wall of a traced round's last evaluations."""
    in_round = f"round{round_index}-"
    starts = [
        s.t0 for s in rec.by_name("parallel.dispatch")
        if s.req and s.req.startswith(in_round)
    ]
    ends = [
        s.t1 for s in rec.by_name("parallel.collect")
        if s.req and s.req.startswith(in_round)
    ]
    walls = [(t1 - t0) / 1e6 for t0, t1 in zip(starts, ends)][-last:]
    return statistics.fmean(walls) if walls else 0.0


def engine_layer_metrics(rounds, rec: Recorder, probed: dict) -> dict:
    plain = [r for r in rounds if not r.traced]
    # the engine's own accounting is read where the spans are: at the end
    # of the first traced round
    traced_index = next(k for k, r in enumerate(rounds) if r.traced)
    stats = rounds[traced_index].engine_stats
    m = _span_metrics(rec)
    m.update({k: v for k, v in probed.items() if k != "listed_pairs"})
    m.update(
        {
            "builder.build_s": _median(r.build_s for r in rounds),
            "builder.atoms": stats["atoms"],
            "bonded.terms": stats["bonded_terms"],
            "pairlist.builds": stats["pairlist_builds"],
            "pairlist.reuse_frac": stats["pairlist_reuse_frac"],
            "nonbonded.pairs": rounds[0].n_pairs,
            # the pool's workers test the prefiltered list, the sequential
            # engine every raw cell candidate
            "nonbonded.candidates_tested": probed["listed_pairs"]
            if stats["parallel"]
            else probed["cells.candidates"],
            "ewald.kspace_builds": stats.get("kspace_builds", 0),
            "ewald.kspace_hits": stats.get("kspace_hits", 0),
        }
    )
    m["nonbonded.useful_frac"] = (
        m["nonbonded.pairs"] / m["nonbonded.candidates_tested"]
    )
    if stats["parallel"]:
        worker_ms = stats["worker_ms"]
        critical = max(worker_ms)
        rebuilt = [s for r in plain for s, b in zip(r.step_s, r.rebuilt) if b]
        reused = [s for r in plain for s, b in zip(r.step_s, r.rebuilt) if not b]
        m.update(
            {
                "parallel.spawn_s": _median(r.spawn_s for r in rounds),
                "parallel.close_s": _median(r.close_s for r in rounds),
                "parallel.driver_share": stats["driver_share"],
                "parallel.rebuild_step_ms": 1e3 * _median(rebuilt),
                "parallel.reuse_step_ms": 1e3 * _median(reused),
                "parallel.rebuild_frac": len(rebuilt) / (len(rebuilt) + len(reused)),
                "parallel.tasks": stats["tasks"],
                "pool.task_ms_sum": sum(worker_ms),
                "pool.critical_path_ms": critical,
                "pool.imbalance": critical / statistics.fmean(worker_ms),
                "pool.overhead_ms": _eval_wall_ms(
                    rec, traced_index, stats["window"]
                ) - critical,
                "pool.recoveries": stats["recoveries"],
            }
        )
    return m


def _probe_restore_ms(spec, checkpoint: Path, workdir: Path) -> float:
    """Load + restore of a job's last checkpoint, through ``SimJob.open``."""
    from repro.md.jobs import SimJob

    rec = Recorder()
    with Tracing(rec):
        for k in range(probes.K):
            job = SimJob(spec, workdir / f"restore{k}")
            shutil.copy(checkpoint, job.checkpoint_path)
            try:
                job.open()
            finally:
                job.close()
    load = [s.ms for s in rec.by_name("checkpoint.load")]
    restore = [s.ms for s in rec.by_name("checkpoint.restore")]
    return _median(a + b for a, b in zip(load, restore))


def service_layer_metrics(specs, solos, batches, rec: Recorder, batch_dir: Path) -> dict:
    traced = [b for b in batches if b.traced]
    plain = [b for b in batches if not b.traced]
    job_ids = [f"job-{i:04d}" for i in range(len(specs))]
    m = _span_metrics(rec)

    saves = rec.by_name("checkpoint.save")
    sizes = {  # a job shorter than checkpoint_every writes none
        path.parent.name: path.stat().st_size
        for path in (batch_dir / "jobs").glob("*/checkpoint.npz")
    }
    slices = rec.by_name("jobs.step_slice")
    solo_step_ms = {job: solo.step_ms_p50 for job, solo in zip(job_ids, solos)}
    builds = len(_pairlist_builds(rec))
    makespan = min(b.makespan_s for b in plain)
    # restore is probed on a sequential job: opening it spawns no pool
    probe = next(
        i for i, s in enumerate(specs) if s.workers == 1 and job_ids[i] in sizes
    )
    solo_sum = sum(s.wall_s for s in solos)
    m.update(
        {
            "builder.atoms": 3 * sum(s.waters for s in specs),
            "pairlist.builds": builds / len(traced),
            "pairlist.reuse_frac": 1.0 - builds / len(rec.by_name("pairlist.pairs")),
            "parallel.spawn_s": 1e-3 * _median(
                s.ms for s in rec.by_name("parallel.spawn")
            ),
            "parallel.close_s": 1e-3 * _median(
                s.ms for s in rec.by_name("parallel.close")
            ),
            "checkpoint.save_ms": _median(s.ms for s in saves),
            "checkpoint.writes": len(saves) / len(traced),
            "checkpoint.bytes": sum(sizes[s.req] for s in saves) / len(traced),
            "checkpoint.restore_ms": _probe_restore_ms(
                specs[probe],
                batch_dir / "jobs" / job_ids[probe] / "checkpoint.npz",
                batch_dir,
            ),
            "jobs.open_ms": _median(s.ms for s in rec.by_name("jobs.open")),
            "jobs.slice_overhead_ms": _median(
                s.ms - s.args["steps"] * solo_step_ms[s.req] for s in slices
            ),
            "jobs.records": plain[0].records,
            "service.submit_ms": _median(t for b in plain for t in b.submit_ms),
            "service.admit_latency_ms": 1e3 * _median(
                t for b in plain for t in b.admit_s
            ),
            "service.slices": plain[0].slices,
            "service.makespan_s": makespan,
            "service.jobs_per_hour": 3600.0 * len(specs) / makespan,
            "service.solo_sum_s": solo_sum,
            "service.efficiency": max(
                solo_sum / 2.0, max(s.wall_s for s in solos)
            ) / makespan,
            "service.budget_peak_leased": max(b.peak_leased for b in plain),
        }
    )
    return m
