"""Command line of the harness: run workloads under a watchdog, print
every metric by name with its unit, check for leaks, write records.

The process started by the user is the *supervisor*: it imports neither
numpy nor ``repro``.  Each workload runs in a child process in its own
session; a child that outlives its deadline is killed with its whole
process group, reported as failed, and the supervisor moves on.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

from . import env

SPEC_PATH = env.ROOT / "BENCHMARK.json"
RUN_PY = Path(__file__).with_name("run.py")
#: harness self-test: a workload that never finishes (not in BENCHMARK.json)
WEDGE = "selftest-wedge"
#: a run must end within the contract's 180 s whatever ``--seconds`` is
MAX_DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def metric_units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------- #
# child: one workload, in its own process
# ---------------------------------------------------------------------- #
def child_main(args) -> int:
    env.pin_blas_threads()
    env.add_src_to_path()
    if args.workload == WEDGE:
        while True:
            time.sleep(60)
    from . import workloads

    table = workloads.TOY if args.size == "toy" else workloads.FULL
    w = table[args.workload]
    trace = bool(args.trace)
    work = Path(args.work)
    if isinstance(w, workloads.EngineWorkload):
        produced, ops, info, rec = workloads.run_engine_workload(
            w, args.seed, args.seconds, trace
        )
    else:
        produced, ops, info, rec = workloads.run_service_workload(
            w, args.seed, args.seconds, trace, work
        )

    units = metric_units(load_spec(), trace)
    extra = sorted(set(produced) - set(units))
    if extra:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {extra}")
    if not trace and set(units) - set(produced):
        raise KeyError(f"end-to-end metrics missing: {sorted(set(units) - set(produced))}")
    # a per-layer metric the workload did not set: that layer did no work
    # on this workload's driver-side path
    metrics = {name: float(produced.get(name, 0.0)) for name in units}

    if rec is not None:
        rec.write_chrome_trace(args.trace_out)
    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "metrics": metrics,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "info": info,
        "fingerprint": env.fingerprint(args.seed),
    }
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


# ---------------------------------------------------------------------- #
# supervisor
# ---------------------------------------------------------------------- #
def _group_members(pgid: int) -> list[int]:
    """Live processes whose process group is ``pgid``."""
    out = []
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(stat.split("/")[2]))
    return out


def _orphans(child: subprocess.Popen, grace_s: float = 2.0) -> list[int]:
    """Processes of the child's group still alive after it exited.

    multiprocessing's resource tracker outlives its parent by a moment,
    hence the grace period; a child that has not exited has no orphans.
    """
    if child.poll() is None:
        return []
    deadline = time.monotonic() + grace_s
    while True:
        members = [p for p in _group_members(child.pid) if p != child.pid]
        if not members or time.monotonic() > deadline:
            return members
        time.sleep(0.05)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_supervised(name: str, args, trace_out: Path) -> dict:
    """Run one workload in a child under the watchdog; returns its record.

    Leaks are failed operations: a shared-memory segment of the child
    left in ``/dev/shm`` or a process of its group still alive after it
    exited.  A child killed by the watchdog fails every operation.
    """
    work = env.WORK / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [
        sys.executable, str(RUN_PY), "--child", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
        "--work", str(work), "--result", str(result),
        "--trace-out", str(trace_out),
    ]
    child = subprocess.Popen(cmd, start_new_session=True, cwd=env.ROOT)
    record = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "metrics": {}, "attempted": 1, "failed": 1, "failures": [], "info": {},
    }
    try:
        code = child.wait(timeout=args.deadline)
        if code == 0 and result.exists():
            with open(result) as fh:
                record = json.load(fh)
        else:
            record["failures"].append(f"{name}: child exited with code {code}")
    except subprocess.TimeoutExpired:
        record["failures"].append(
            f"{name}: killed by the watchdog after {args.deadline:.0f} s"
        )
    finally:
        orphans = _orphans(child)
        _kill_group(child.pid)
        child.wait()
    segments = glob.glob(f"/dev/shm/rp{child.pid:x}-*")
    for path in segments:
        os.unlink(path)
    for leaked, what in ((orphans, "orphan processes"), (segments, "shm segments")):
        record["attempted"] += 1
        if leaked:
            record["failed"] += 1
            record["failures"].append(f"{name}: leaked {what}: {leaked}")
    shutil.rmtree(work, ignore_errors=True)
    return record


def print_record(record: dict, units: dict[str, str]) -> None:
    info = record["info"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}")
    if info:
        extra = f", n={info['small_jobs']} small jobs" if "small_jobs" in info else ""
        print(
            f"   {info['rounds']} rounds, {info['timed_steps']} timed steps{extra}, "
            f"digest {info['digest'][:16]}"
        )
    for name, value in record["metrics"].items():
        print(f"   {name:36s} {value:14.6g} {units[name]}")
    attempted, failed = record["attempted"], record["failed"]
    print(
        f"   {'fail_frac':36s} {failed / attempted:14.6g} ratio   "
        f"(ops_attempted={attempted} ops_failed={failed})"
    )
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")


def print_derived(records: list[dict]) -> None:
    rate = {
        r["workload"]: r["metrics"].get("steps_per_s")
        for r in records
        if not r["trace"]
    }
    pool, seq = rate.get("water2k-cutoff-pool2"), rate.get("water2k-cutoff-seq")
    if pool and seq:
        speedup = pool / seq
        # more than the worker count means the two engines do not run the
        # same algorithm; label it, do not fail on it
        print(
            f"== derived.pool2_speedup_vs_seq = {speedup:.4g} "
            f"(base {seq:.4g} 1/s)  superlinear: {str(speedup > 2).lower()}"
        )


def final_line(records: list[dict], units: dict[str, str]) -> str:
    """The contract's last line.  With several workloads the metric names
    are prefixed; with ``--repeat`` the last repetition's values stand
    (``--out`` keeps every run)."""
    single = len(records) == 1
    metrics = {
        (name if single else f"{r['workload']}/{name}"): {
            "value": value, "unit": units[name]
        }
        for r in records
        for name, value in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in records)
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": sum(r["attempted"] for r in records),
            "failed": failed,
            "metrics": metrics,
        }
    )


def write_out(path: Path, records: list[dict]) -> None:
    """The run's records as one JSON file, and one line each appended to
    ``history.jsonl`` beside it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"runs": records}, fh, indent=1)
    with open(path.parent / "history.jsonl", "a") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def run_main(args) -> int:
    if not SPEC_PATH.exists() or not (env.SRC / "repro").is_dir():
        print(
            f"perf harness: need BENCHMARK.json and src/repro under {env.ROOT}",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    declared = [w["name"] for w in spec["workloads"]]
    names = declared if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in declared and n != WEDGE]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {declared}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.deadline is None:
        args.deadline = min(MAX_DEADLINE_S, 4.0 * (args.seconds + 20.0))
    units = metric_units(spec, bool(args.trace))
    out = Path(args.out) if args.out else None
    trace_dir = out.parent if out else env.WORK
    trace_dir.mkdir(parents=True, exist_ok=True)

    records = []
    for _ in range(args.repeat):
        for name in names:
            record = run_supervised(name, args, trace_dir / f"trace-{name}.json")
            print_record(record, units)
            records.append(record)
    print_derived(records)
    if out:
        write_out(out, records)
    print(final_line(records, units))
    return 0 if all(r["failed"] == 0 for r in records) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="benchmarks.perf",
        description="Performance harness; 'compare A.json B.json' compares two record files.",
    )
    p.add_argument("--workload", default="all",
                   help="a workload name, a comma-separated list, or 'all'")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: traced run, prints the per-layer metrics")
    p.add_argument("--out", help="write the records here (and append to history.jsonl beside it)")
    p.add_argument("--repeat", type=int, default=1,
                   help="run the workloads this many times (a set is 3)")
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy: seconds-long sizes, for the smoke test")
    p.add_argument("--deadline", type=float, default=None,
                   help="watchdog deadline per workload in seconds")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    for name in ("--work", "--result", "--trace-out"):
        p.add_argument(name, help=argparse.SUPPRESS)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from . import compare

        return compare.main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.child:
        try:
            return child_main(args)
        except Exception:
            traceback.print_exc()
            return 3
    return run_main(args)
