"""``compare A.json B.json``: is B worse than A, by the bounds of BENCHMARK.json?

A and B are record files written with ``--out`` (usually a set of three
runs each).  Per workload and end-to-end metric it prints both medians,
the relative difference with its base, the bound, and a verdict:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the runs of either file spread wider than the bound
  and the two files' runs overlap, so the bound cannot resolve them;
* ``ok`` — otherwise.

Counts that must repeat exactly are compared on the traced records of
the two files.  Exits non-zero on any ``worse`` or differing count.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict

from .cli import load_spec

#: per-layer counts that are a function of workload and seed alone
EXACT_COUNTS = (
    "cells.candidates", "nonbonded.pairs", "pairlist.builds",
    "parallel.tasks", "service.slices", "checkpoint.writes",
)


def load_values(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """``(workload, trace) -> metric -> values`` over the runs of a file."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    out: dict = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for name, value in run["metrics"].items():
            out[run["workload"], run["trace"]][name].append(value)
    return out


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more runs, the full range with fewer."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    else:
        width = max(values) - min(values)
    return width / abs(statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """``(relative worsening of B against A's median, verdict)``."""
    base = statistics.median(a)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(b) - base) / abs(base)
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(spread(a), spread(b)) > bound and overlap:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > bound else "ok"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="benchmarks.perf compare")
    p.add_argument("a")
    p.add_argument("b")
    args = p.parse_args(argv)
    spec = load_spec()
    a_all, b_all = load_values(args.a), load_values(args.b)
    bad = 0
    for w in (w["name"] for w in spec["workloads"]):
        a, b = a_all.get((w, 0)), b_all.get((w, 0))
        if a and b:
            print(f"== {w}  ({len(next(iter(a.values())))} vs {len(next(iter(b.values())))} runs)")
            for m in spec["end_to_end"]:
                name = m["name"]
                worsening, v = verdict(a[name], b[name], m["better"], m["bound"])
                base = statistics.median(a[name])
                print(
                    f"   {name:24s} A {base:12.6g}  B {statistics.median(b[name]):12.6g} "
                    f"{m['unit']:5s} worse by {worsening:+8.2%} of {base:.6g}  "
                    f"bound {m['bound']:.2f}  spread A {spread(a[name]):.3f} "
                    f"B {spread(b[name]):.3f}  {v}"
                )
                bad += v == "worse"
        a, b = a_all.get((w, 1)), b_all.get((w, 1))
        if a and b:
            for name in EXACT_COUNTS:
                counts = set(a[name]) | set(b[name])
                same = len(counts) == 1
                print(f"   {w}: {name} {sorted(counts)} {'same' if same else 'DIFFERS'}")
                bad += not same
    return 1 if bad else 0
