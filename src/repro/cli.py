"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the benchmark specs and machine models.
``md``
    Run real sequential MD on a water box and print the energy ledger.
``scaling``
    Run the parallel simulation across processor counts and print a
    Table-2-style scaling table.
``audit``
    Print a Table-1-style performance audit for one configuration.
``grainsize``
    Print Figure-1/2-style grainsize histograms (before/after splitting).
``backends``
    Print the kernel backend inventory (numpy reference / compiled C),
    which one the session resolves to, what the C build did, and the Ewald
    real-space table of the default ``EwaldOptions`` with its measured error.
``serve``
    Run the simulation service: a REST front end multiplexing many
    concurrent jobs onto one shared worker budget (see README "Running
    as a service").

The heavyweight paper systems (``apoa1``, ``bc1``) build in seconds to
minutes; ``br`` and ``mini`` are fast.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

_SYSTEMS = ("mini", "br", "apoa1", "bc1")


def _load_system(name: str):
    from repro.builder.benchmarks import apoa1_like, bc1_like, br_like, mini_assembly

    return {
        "mini": mini_assembly,
        "br": br_like,
        "apoa1": apoa1_like,
        "bc1": bc1_like,
    }[name]()


def _machine(name: str):
    from repro.runtime.machine import MACHINES

    try:
        return MACHINES[name]
    except KeyError:
        raise SystemExit(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        )


def _build_problem(system):
    from repro.core.problem import DecomposedProblem
    from repro.costmodel.model import DEFAULT_COST_MODEL

    return DecomposedProblem.build(system, DEFAULT_COST_MODEL)


def cmd_info(_args) -> int:
    """Print the benchmark-system and machine-model inventory."""
    from repro.builder.benchmarks import BENCHMARK_SPECS
    from repro.runtime.machine import MACHINES

    print("Benchmark systems (paper §4.2-4.3):")
    for spec in BENCHMARK_SPECS.values():
        g = spec.patch_grid
        print(
            f"  {spec.name:>6}: {spec.n_atoms:>8} atoms, "
            f"{g[0]}x{g[1]}x{g[2]} patches at {spec.cutoff} A cutoff — "
            f"{spec.description}"
        )
    print("\nMachine models:")
    for m in MACHINES.values():
        print(
            f"  {m.name:>15}: cpu x{m.cpu_factor:<5} latency "
            f"{m.latency_s * 1e6:.0f} us, bw {m.bandwidth_Bps / 1e6:.0f} MB/s, "
            f"<= {m.max_procs} procs"
        )
    return 0


def cmd_backends(_args) -> int:
    """Print the kernel backend inventory and the resolved default."""
    import numpy as np

    from repro.backend import ENV_VAR, backend_status
    from repro.backend.c_backend import DISPATCHED_KERNELS
    from repro.backend.ewald_table import (
        INTERVALS_PER_OCTAVE, R2_FIRST, ewald_table, measured_error,
    )
    from repro.builder import small_water_box
    from repro.md.ewald import PME_ORDER, EwaldOptions, pme_error, pme_grid_shape

    status = backend_status()
    print("Kernel backends (repro.backend):")
    print(f"  available: {', '.join(status['available'])}")
    env = status["env"]
    print(
        f"  default:   {status['default']}"
        + (f"  (from {ENV_VAR}={env})" if env else "  (auto)")
    )
    if status["c_ok"]:
        print("  c:         ok (passed parity self-check vs numpy)")
    else:
        print(f"  c:         unavailable — {status['c_error']}")
    build = status["c_build"]
    if "compiler" in build:
        print(f"    compiler:   {build['compiler']} {build['flags']}")
        print(f"    cache file: {build['cache_file']}")
    if "seconds" in build:
        print(f"    this run:   {build['source']} in {build['seconds']:.3f} s")
    if "dispatch" in build:
        dispatch = build["dispatch"]
        where = "no AVX-512F build here" if dispatch == "none" else "resolved on this CPU"
        print(f"    dispatch:   {dispatch} ({where})")
        for name, kernel in build["kernels"].items():
            what = f"{kernel['build']} build"
            if name in DISPATCHED_KERNELS:
                what += ", compaction " + ("in lanes" if kernel["lanes"] else "scalar")
            print(f"      {name + ':':19s}{what}, GIL {kernel['gil']}")
    ewald = EwaldOptions()
    alpha, cutoff = ewald.alpha_value(), ewald.cutoff
    table, error = ewald_table(alpha, cutoff), measured_error(alpha, cutoff)
    print(
        f"  ewald table (default EwaldOptions: alpha {alpha:.4g}/A, cutoff "
        f"{cutoff:g} A), read by both backends:"
    )
    print(
        f"    intervals:  {len(table)} ({INTERVALS_PER_OCTAVE} an octave of r^2 "
        f"from {R2_FIRST:g} A^2), {table.nbytes} bytes"
    )
    print(
        f"    max error:  {error['of_term']:.1e} of the term, "
        f"{error['of_coulomb']:.1e} of the bare Coulomb term"
    )
    water = small_water_box(216, seed=0, relax=False)
    shape = pme_grid_shape(water.box, ewald.kmax)
    pme = pme_error(water, ewald)
    print(
        f"  pme grid (default EwaldOptions: kmax {ewald.kmax}) on a 216-water "
        f"box ({water.box[0]:.1f} A), spread and gathered by {status['default']}:"
    )
    print(
        f"    grid:       {' x '.join(map(str, shape))} points, B-spline order "
        f"{PME_ORDER}, {8 * np.prod(shape)} bytes a buffer"
    )
    print(
        f"    error:      {pme['energy']:.1e} of the classic sum's energy, RMS "
        f"force {pme['force']:.1e} of its RMS force"
    )
    return 0


def cmd_md(args) -> int:
    """Run MD on a water box and print the energy ledger.

    The flags are one :class:`~repro.md.jobs.SimSpec` (refused as the
    service refuses it) driven one step at a time by a
    :class:`~repro.md.jobs.SimJob`; ``--workdir`` holds its checkpoint,
    and a run resumes from one found there to ``--steps`` in total.
    """
    import tempfile

    from repro.md.jobs import SimJob, SimSpec

    fields = SimSpec.__dataclass_fields__
    try:
        # each md flag but --workdir / --workdb-dump is the field of its dest
        spec = SimSpec(
            relax=True, **{k: v for k, v in vars(args).items() if k in fields}
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    if spec.checkpoint_every and args.workdir is None:
        raise SystemExit("--checkpoint-every needs --workdir")
    with tempfile.TemporaryDirectory(prefix="repro-md-") as scratch:
        job = SimJob(spec, args.workdir or scratch)
        try:
            job.open()  # resumes from the workdir's checkpoint
        except ValueError as exc:
            raise SystemExit(str(exc))
        try:
            _print_md_run(job, args)
        finally:
            job.close()
    return 0


def _print_md_run(job, args) -> None:
    """Step an open job to its total, printing each step's row, then the
    engine's diagnostics."""
    engine = job.engine
    print(f"kernel backend: {engine.backend.name}")
    if engine.ewald is not None:
        print(
            f"electrostatics: Ewald (alpha {engine.ewald.alpha_value():.4f}, "
            f"kmax {engine.ewald.kmax})"
        )
    if engine.parallel:
        executor = engine.driver_report()["executor"]
        print(f"executor: {executor} ({engine.workers})")
    elif job.spec.workers != 1:
        print("executor: in-process (no workers for this box)")
    if job.steps_done:
        print(f"resumed from checkpoint at step {job.steps_done}")
    print(f"{'step':>5} {'kinetic':>10} {'potential':>12} {'total':>12} {'T':>7}")
    while not job.done:
        for rec in job.step_slice(1):
            if rec["type"] == "step":
                print(
                    f"{rec['step']:>5} {rec['kinetic']:>10.2f} "
                    f"{rec['potential']:>12.2f} {rec['total']:>12.4f} "
                    f"{engine.system.temperature():>7.1f}"
                )
    pairlist = engine.pairlist
    print(
        f"pairlist: {pairlist.n_builds} builds, "
        f"reuse fraction {pairlist.reuse_fraction:.2f} "
        f"(skin {pairlist.skin:.1f} A)"
    )
    if engine.parallel:
        for rec in engine.rebalance_log:
            print(
                f"rebalance @step {rec['step']} ({rec['strategy']}): "
                f"moved {rec['moved']} tasks, predicted max load "
                f"{rec['max_load_before'] * 1e3:.2f} -> "
                f"{rec['max_load_after'] * 1e3:.2f} ms/step"
            )
        if job.spec.rebalance_every:
            from repro.analysis.timeline import render_workdb_timeline

            print(render_workdb_timeline(engine.workdb, engine.workers, width=72))
        drep = engine.driver_report()
        if drep["n_evals"]:
            print(
                f"driver share: {drep['driver_share'] * 100:.1f}% "
                f"({drep['driver_s'] * 1e3:.1f} ms driver compute of "
                f"{drep['wall_s'] * 1e3:.1f} ms force wall; "
                "one-core hosts time-slice, so only multi-core "
                "numbers are meaningful)"
            )
    res = engine.resilience
    if res.events or res.mode != "full":
        print(
            f"resilience: mode {res.mode}; "
            f"{res.kills_detected} killed, {res.hangs_detected} hung, "
            f"{res.errors_detected} errored; {res.respawns} respawned, "
            f"{res.tasks_reassigned} tasks reassigned, "
            f"{res.degraded_steps} degraded steps, "
            f"{res.recovery_time_s * 1e3:.1f} ms recovering"
        )
        if res.reassigned_by_kind:
            kinds = ", ".join(
                f"{k} {v}" for k, v in sorted(res.reassigned_by_kind.items())
            )
            print(f"  reassigned by kind: {kinds}")
        for ev in res.events:
            who = f"worker {ev.worker}" if ev.worker >= 0 else "pool"
            print(
                f"  step {ev.step}: {who} {ev.kind} -> {ev.action} "
                f"(detected in {ev.detection_s * 1e3:.0f} ms"
                + (f", {ev.tasks_moved} tasks moved" if ev.tasks_moved else "")
                + ")"
            )
    if job.spec.checkpoint_every:
        print(
            f"checkpoints: {engine.n_checkpoints} written to "
            f"{job.checkpoint_path} (every {job.spec.checkpoint_every} steps)"
        )
    if args.workdb_dump:
        engine.workdb.dump(args.workdb_dump)
        print(f"WorkDB written to {args.workdb_dump}")


def cmd_serve(args) -> int:
    """Run the simulation service behind its REST front end."""
    import signal

    from repro.service import ServiceServer, SimulationService, TenantQuota

    try:
        quota = TenantQuota(
            max_running=args.max_running,
            max_queued=args.max_queued,
            max_workers=args.max_workers,
        )
        service = SimulationService(
            worker_slots=args.worker_slots,
            lanes=args.lanes,
            slice_steps=args.slice_steps,
            workdir=args.workdir,
            default_quota=quota,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    server = ServiceServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    server.start()
    print(f"serving at {server.url}", flush=True)
    print(
        f"  budget: {args.worker_slots} worker slots, {args.lanes} lanes; "
        f"quota per tenant: {quota.max_running} running / "
        f"{quota.max_queued} queued / {quota.max_workers} worker slots",
        flush=True,
    )

    def _stop(_signum, _frame):
        # handler must not block; stop on a thread and let wait() return
        import threading

        threading.Thread(target=server.stop, daemon=True).start()

    previous = {
        signum: signal.signal(signum, _stop)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        server.wait()
    finally:
        # the handlers close over this server; the process outlives it
        # when cmd_serve is called in-process
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.stop()
    print("service stopped", flush=True)
    return 0


def cmd_scaling(args) -> int:
    """Run a processor-count sweep and print the scaling table."""
    from repro.analysis.speedup import format_scaling_table, scaling_sweep
    from repro.core.simulation import SimulationConfig

    system = _load_system(args.system)
    problem = _build_problem(system)
    procs = [int(p) for p in args.procs.split(",")]
    cfg = SimulationConfig(n_procs=procs[0], machine=_machine(args.machine))
    rows = scaling_sweep(problem, cfg, procs, baseline_procs=args.baseline)
    print(
        format_scaling_table(
            rows, title=f"{args.system} on {args.machine} (simulated)"
        )
    )
    return 0


def cmd_audit(args) -> int:
    """Run one configuration and print the Table-1-style audit."""
    from repro.analysis.audit import performance_audit
    from repro.core.simulation import ParallelSimulation, SimulationConfig

    system = _load_system(args.system)
    problem = _build_problem(system)
    try:
        cfg = SimulationConfig(n_procs=args.procs, machine=_machine(args.machine))
    except ValueError as exc:
        raise SystemExit(str(exc))
    result = ParallelSimulation(system, cfg, problem=problem).run()
    print(performance_audit(result).format())
    return 0


def cmd_grainsize(args) -> int:
    """Print grainsize histograms before/after pair splitting."""
    from repro.analysis.grainsize import format_histogram, histogram_from_descriptors
    from repro.core.computes import build_nonbonded_computes
    from repro.core.decomposition import SpatialDecomposition
    from repro.costmodel.grainsize import GrainsizeConfig
    from repro.costmodel.model import DEFAULT_COST_MODEL

    system = _load_system(args.system)
    decomposition = SpatialDecomposition(system, cutoff=12.0)
    for split_pairs, title in ((False, "before pair splitting"),
                               (True, "after pair splitting")):
        descs = build_nonbonded_computes(
            decomposition,
            DEFAULT_COST_MODEL,
            GrainsizeConfig(split_self=True, split_pairs=split_pairs),
        )
        print(format_histogram(histogram_from_descriptors(descs), title=title))
        print()
    return 0


def cmd_report(args) -> int:
    """Concatenate every regenerated table/figure under benchmarks/results."""
    from pathlib import Path

    results = Path(args.results_dir)
    files = sorted(results.glob("*.txt"))
    if not files:
        print(
            f"no results in {results}; run `pytest benchmarks/` first",
            file=sys.stderr,
        )
        return 1
    for f in files:
        print("=" * 72)
        print(f"== {f.stem}")
        print("=" * 72)
        print(f.read_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from repro.backend import BACKEND_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC 2000 NAMD parallelization reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="benchmark and machine inventory")

    p_rep = sub.add_parser(
        "report", help="print all regenerated tables/figures from the bench run"
    )
    p_rep.add_argument(
        "--results-dir", default="benchmarks/results",
        help="directory of regenerated artifacts",
    )

    p_md = sub.add_parser("md", help="run MD on a water box")
    p_md.add_argument("--waters", type=int, default=216)
    p_md.add_argument("--steps", type=int, default=20)
    p_md.add_argument("--dt", type=float, default=1.0)
    p_md.add_argument("--cutoff", type=float, default=8.0)
    p_md.add_argument("--temperature", type=float, default=300.0)
    p_md.add_argument("--seed", type=int, default=7)
    p_md.add_argument(
        "--pairlist-skin", dest="skin", type=float, default=1.5,
        metavar="ANGSTROM",
        help="Verlet pairlist skin; 0 disables list reuse and re-enumerates "
             "candidate pairs from the cell grid every step",
    )
    p_md.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="kernel backend for the hot loops: 'numpy' is the always-"
             "available reference, 'c' the pair kernel and reciprocal sum "
             "compiled with the host's cc on first use (falls back to "
             "numpy with a warning when unavailable), 'auto' prefers c "
             "silently; default: the session default ($REPRO_BACKEND, "
             "else auto); see `repro backends`",
    )
    p_md.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker threads for the force tasks (1 = sequential "
             "engine, 0 = one worker per CPU; --fault-plan makes them "
             "supervised worker processes); see README 'Running in "
             "parallel'",
    )
    p_md.add_argument(
        "--skew", type=float, default=0.0, metavar="RATIO",
        help="build a skewed-density water box instead of a uniform one: "
             "the left half holds RATIO times the waters of the right half "
             "(0 = uniform); the load-balancing stress case",
    )
    p_md.add_argument(
        "--rebalance-every", type=int, default=0, metavar="STEPS",
        help="run a measurement-based load-balancing decision every N "
             "steps on the worker pool (0 = keep the static assignment); "
             "greedy seeds the first cycle, refine runs thereafter",
    )
    p_md.add_argument(
        "--lb-strategy", default=None, metavar="NAME",
        help="override the greedy-then-refine schedule with one strategy "
             "(or '+'-combo) from repro.balancer.STRATEGIES for every "
             "rebalance decision",
    )
    p_md.add_argument(
        "--workdb-dump", default=None, metavar="PATH",
        help="write the engine's measurement database (per-task timings, "
             "affinity, owners) as JSON on exit; reload with "
             "repro.instrument.WorkDB.load_file",
    )
    p_md.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="real-process fault injection: runs the workers as a "
             "supervised process pool, which honours kill, hang and slow "
             "at 1-based step indices, e.g. "
             "'kill=1@3,hang=0@5x2,slow=1@2-6x8' (SIGKILL worker 1 at "
             "step 3, SIGSTOP worker 0 for 2 s at step 5, slow worker 1 "
             "8x over steps 2-6); needs --workers > 1 — the supervisor "
             "recovers and the trajectory stays bit-identical",
    )
    p_md.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="STEPS",
        help="write an atomic run checkpoint every N completed steps "
             "(0 = off); needs --workdir",
    )
    p_md.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="directory holding the run's checkpoint (DIR/checkpoint.npz); "
             "a run finding one there resumes from it, bit-identically, "
             "to --steps in total (default: a temp dir removed at exit)",
    )
    p_md.add_argument(
        "--ewald", action="store_true",
        help="replace the cutoff point-charge electrostatics with full "
             "periodic Ewald summation (real-space within --cutoff, "
             "reciprocal sum to --kmax by smooth PME, one force task)",
    )
    p_md.add_argument(
        "--kmax", type=int, default=8, metavar="K",
        help="Ewald reciprocal-space extent: k-vectors with |m| <= K per "
             "axis, K <= 16 (only with --ewald)",
    )

    p_sc = sub.add_parser("scaling", help="scaling table for one system")
    p_sc.add_argument("--system", choices=_SYSTEMS, default="br")
    p_sc.add_argument("--machine", default="ASCI-Red")
    p_sc.add_argument("--procs", default="1,2,4,8,32,64,128,256")
    p_sc.add_argument("--baseline", type=int, default=1)

    p_au = sub.add_parser("audit", help="Table-1-style performance audit")
    p_au.add_argument("--system", choices=_SYSTEMS, default="br")
    p_au.add_argument("--machine", default="ASCI-Red")
    p_au.add_argument("--procs", type=int, default=32)

    p_gs = sub.add_parser("grainsize", help="Figure-1/2-style histograms")
    p_gs.add_argument("--system", choices=_SYSTEMS, default="br")

    sub.add_parser(
        "backends", help="kernel backend inventory (numpy / compiled C)"
    )

    p_sv = sub.add_parser(
        "serve", help="run the simulation service (REST + shared pool)"
    )
    p_sv.add_argument("--host", default="127.0.0.1")
    p_sv.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 = ephemeral, printed at startup)",
    )
    p_sv.add_argument(
        "--worker-slots", type=int, default=4, metavar="N",
        help="total worker slots leasable across all running jobs: cores "
             "leased by running jobs, one per worker thread (a job with a "
             "fault plan runs worker processes), not processes "
             "(sequential jobs lease 0)",
    )
    p_sv.add_argument(
        "--lanes", type=int, default=2, metavar="N",
        help="concurrency lanes: how many slices (of any jobs) run at the "
             "same time, drawn from one queue of waiting slices",
    )
    p_sv.add_argument(
        "--slice-steps", type=int, default=5, metavar="N",
        help="steps per scheduling slice (a job re-queues between "
             "slices; slicing never changes the trajectory)",
    )
    p_sv.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="directory for per-job checkpoints (default: a temp dir "
             "removed at shutdown)",
    )
    p_sv.add_argument(
        "--max-running", type=int, default=4, metavar="N",
        help="per-tenant cap on concurrently running jobs",
    )
    p_sv.add_argument(
        "--max-queued", type=int, default=16, metavar="N",
        help="per-tenant cap on queued jobs (submission returns 429 over)",
    )
    p_sv.add_argument(
        "--max-workers", type=int, default=8, metavar="N",
        help="per-tenant cap on summed leased worker slots",
    )
    p_sv.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "info": cmd_info,
        "md": cmd_md,
        "scaling": cmd_scaling,
        "audit": cmd_audit,
        "grainsize": cmd_grainsize,
        "report": cmd_report,
        "backends": cmd_backends,
        "serve": cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
