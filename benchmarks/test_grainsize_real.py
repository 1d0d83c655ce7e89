"""Grainsize-control benchmark on the real engine: Figure 1 -> Figure 2.

Three configurations of the skewed water box (10x density step) with a 2x
injected slowdown on worker 0:

* ``static``            — whole-cell tasks, cost-model assignment only
* ``rebalanced``        — whole-cell tasks + greedy/refine rebalancing
* ``rebalanced_split``  — grainsize sub-tasks + the same rebalancing

All three integrate the same trajectory (the reduction is assignment- and
split-independent to 1e-9), so the measured max worker load isolates what
granularity buys the balancer: with whole cells, one dense task bounds the
achievable balance no matter how tasks are placed (paper §4.2.1).

The Figure 1 -> 2 reproduction runs separately without any slowdown: two
short runs (split off/on) whose WorkDB-measured per-task times become the
before/after grainsize histograms.

Gates: sub-task pair sets must *exactly* partition each parent's pair set
(always), energies must agree across configurations to 1e-9 (always), and
the rebalanced+split max worker load must be >= 15% below rebalanced-
unsplit on multi-core hosts.

Results land in ``benchmarks/results/BENCH_grainsize_real.json`` (+
``.txt``).  Environment knobs for CI: ``GRAINSIZE_BENCH_WATERS`` (default
``400``), ``GRAINSIZE_BENCH_STEPS`` (default ``60``) and
``GRAINSIZE_BENCH_EVERY`` (default ``20``).
"""

import json
import os
from pathlib import Path

import numpy as np

from repro.analysis import format_histogram, histogram_from_workdb
from repro.builder import skewed_water_box
from repro.md.cells import bin_atoms
from repro.md.cells import CellGrid
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import ParallelEngine, ParallelNonbonded
from repro.md.tasks import build_row_lists as _build_row_lists
from repro.util.pbc import wrap_positions

RESULTS_DIR = Path(__file__).parent / "results"

WATERS = int(os.environ.get("GRAINSIZE_BENCH_WATERS", "400"))
CUTOFF = 8.0
SKIN = 1.5
# SKEW/WORKERS pick the regime where granularity structurally binds: the
# densest cell task is ~11% of the total work while a fast worker's fair
# share is ~13% (7.5 effective workers once worker 0 runs at half speed).
# Whole-cell placement then cannot beat max/mean ~1.5 no matter how tasks
# are measured or moved, while 1 ms slices rebalance to ~1.02.
SKEW = 10.0
FAULT_PLAN = "slow=0@0-infx2"  # worker 0 runs 2x slower throughout
WORKERS = 8
GRAINSIZE_MS = 1.0
WARMUP_STEPS = 1
MEASURE_STEPS = int(os.environ.get("GRAINSIZE_BENCH_STEPS", "60"))
REBALANCE_EVERY = int(os.environ.get("GRAINSIZE_BENCH_EVERY", "20"))
#: acceptance floor on multi-core hosts: rebalanced+split max worker load
#: must sit at least this far below rebalanced-unsplit
MIN_MAX_LOAD_DROP = 0.15

OPTS = NonbondedOptions(cutoff=CUTOFF)


def _fresh_system():
    system = skewed_water_box(WATERS, seed=11, skew=SKEW, relax=False)
    system.assign_velocities(300.0, seed=11)
    return system


def _pair_keys(i, j, n):
    lo = np.minimum(i, j).astype(np.int64)
    hi = np.maximum(i, j).astype(np.int64)
    return np.sort(lo * n + hi)


def _exact_pair_set_check() -> dict:
    """The CI gate: every parent's pair set == union of its slices' sets."""
    system = _fresh_system()
    nb = ParallelNonbonded(
        system, OPTS, n_workers=WORKERS, skin=SKIN, grainsize_ms=GRAINSIZE_MS
    )
    try:
        assert nb.active, "worker pool failed to start"
        report = nb.split_report()
        probe = system.copy()
        probe.positions = wrap_positions(probe.positions, probe.box)
        r_list = CUTOFF + SKIN
        grid = CellGrid.build(probe.positions, probe.box, r_list)
        _, _, buckets = bin_atoms(probe.positions, probe.box, grid.dims)
        n = probe.n_atoms
        subs_by_parent: dict[tuple, list] = {}
        for a, b, part, n_parts in nb._tasks:
            subs_by_parent.setdefault((a, b, n_parts), []).append(part)
        for (a, b, n_parts), parts in subs_by_parent.items():
            assert sorted(parts) == list(range(n_parts))
            parent_lists = _build_row_lists(
                probe, [(a, b, 0, 1)], [0], buckets, r_list
            )
            subs = [(a, b, p, n_parts) for p in range(n_parts)]
            sub_lists = _build_row_lists(
                probe, subs, list(range(n_parts)), buckets, r_list
            )

            def keys(lists, count):
                return np.sort(np.concatenate(
                    [_pair_keys(*lists.pairs(k)[:2], n) for k in range(count)]
                ))

            assert np.array_equal(keys(sub_lists, n_parts), keys(parent_lists, 1)), (
                f"split of task ({a},{b}) into {n_parts} parts lost or "
                "duplicated pairs"
            )
        return report
    finally:
        nb.close()


def _measure(rebalance_every: int, grainsize_ms: float) -> dict:
    with ParallelEngine(
        _fresh_system(),
        OPTS,
        VelocityVerlet(dt=1.0),
        workers=WORKERS,
        skin=SKIN,
        rebalance_every=rebalance_every,
        fault_plan=FAULT_PLAN,
        grainsize_ms=grainsize_ms,
    ) as engine:
        assert engine.parallel, "worker pool failed to start"
        engine.run(WARMUP_STEPS)
        reports = engine.run(MEASURE_STEPS)
        loads = engine._nb.worker_loads()
        split = engine._nb.split_report()
        return {
            "rebalance_every": rebalance_every,
            "grainsize_ms": grainsize_ms,
            "n_parent_tasks": split["n_parent_tasks"],
            "n_subtasks": split["n_subtasks"],
            "max_worker_load_ms": round(float(loads.max()) * 1e3, 4),
            "mean_worker_load_ms": round(float(loads.mean()) * 1e3, 4),
            "max_over_mean_load": round(float(loads.max() / loads.mean()), 4),
            "n_rebalances": engine._nb.n_rebalances,
            "total_energy": reports[-1].total,
        }


def _figure_histogram(grainsize_ms: float) -> tuple[dict, str]:
    """Short slowdown-free run -> measured per-task time histogram."""
    with ParallelEngine(
        _fresh_system(),
        OPTS,
        VelocityVerlet(dt=1.0),
        workers=WORKERS,
        skin=SKIN,
        grainsize_ms=grainsize_ms,
    ) as engine:
        assert engine.parallel
        engine.run(5)
        hist = histogram_from_workdb(engine.workdb, bin_ms=0.5)
    label = (
        f"grainsize off (whole cells)"
        if grainsize_ms == 0
        else f"grainsize {grainsize_ms:g} ms (split)"
    )
    payload = {
        "grainsize_ms": grainsize_ms,
        "bin_edges_ms": [round(float(e), 4) for e in hist.bin_edges_ms],
        "counts": [float(c) for c in hist.counts],
        "max_task_ms": round(hist.max_grainsize_ms, 4),
        "total_tasks": hist.total_tasks,
    }
    return payload, format_histogram(hist, width=48, title=label)


def test_grainsize_real_benchmark():
    split_info = _exact_pair_set_check()
    assert split_info["n_subtasks"] > split_info["n_parent_tasks"], (
        f"grainsize {GRAINSIZE_MS} ms split nothing on this box"
    )

    fig1, fig1_txt = _figure_histogram(0.0)
    fig2, fig2_txt = _figure_histogram(GRAINSIZE_MS)

    static = _measure(0, 0.0)
    rebalanced = _measure(REBALANCE_EVERY, 0.0)
    rebalanced_split = _measure(REBALANCE_EVERY, GRAINSIZE_MS)
    drop = 1.0 - (
        rebalanced_split["max_worker_load_ms"] / rebalanced["max_worker_load_ms"]
    )
    # max/mean within one run is immune to run-to-run wall-clock drift, so
    # it is the robust view of scheduling quality on oversubscribed hosts
    imbalance_drop = 1.0 - (
        rebalanced_split["max_over_mean_load"] / rebalanced["max_over_mean_load"]
    )

    payload = {
        "system": {
            "n_atoms": WATERS * 3,
            "cutoff_A": CUTOFF,
            "density_skew": SKEW,
            "dt_fs": 1.0,
        },
        "protocol": {
            "warmup_steps": WARMUP_STEPS,
            "measured_steps": MEASURE_STEPS,
            "workers": WORKERS,
            "rebalance_every": REBALANCE_EVERY,
            "grainsize_ms": GRAINSIZE_MS,
            "injected_slowdown": FAULT_PLAN,
        },
        "host": {"cpu_count": os.cpu_count()},
        "split": split_info,
        "figure1_unsplit_histogram": fig1,
        "figure2_split_histogram": fig2,
        "static": static,
        "rebalanced": rebalanced,
        "rebalanced_split": rebalanced_split,
        "max_load_drop_split_vs_unsplit": round(drop, 4),
        "imbalance_drop_split_vs_unsplit": round(imbalance_drop, 4),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_grainsize_real.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    rows = [
        ("static", static),
        ("rebalanced", rebalanced),
        ("rebalanced+split", rebalanced_split),
    ]
    lines = [
        "Grainsize benchmark (skewed box, 2x-slowed worker 0)",
        "",
        f"{WATERS * 3} atoms at {CUTOFF} A cutoff, {MEASURE_STEPS} measured"
        f" steps, {os.cpu_count()} CPU core(s); "
        f"{split_info['n_parent_tasks']} cell tasks -> "
        f"{split_info['n_subtasks']} sub-tasks at {GRAINSIZE_MS:g} ms",
        "",
        f"  {'config':>18} {'tasks':>6} {'max load':>10} {'max/mean':>9}",
    ]
    for label, row in rows:
        lines.append(
            f"  {label:>18} {row['n_subtasks']:>6} "
            f"{row['max_worker_load_ms']:>8.2f}ms {row['max_over_mean_load']:>9.3f}"
        )
    lines.append(
        f"\n  max-load drop, split vs unsplit rebalanced: {drop * 100:.1f}%"
        f"\n  imbalance (max/mean) drop:                  "
        f"{imbalance_drop * 100:.1f}%"
    )
    lines += ["", fig1_txt, "", fig2_txt]
    (RESULTS_DIR / "BENCH_grainsize_real.txt").write_text("\n".join(lines) + "\n")

    # physics gate: granularity and rebalancing must not change the physics
    for label, row in rows[1:]:
        assert abs(row["total_energy"] - static["total_energy"]) <= 1e-9 * abs(
            static["total_energy"]
        ), f"{label} run diverged from the static trajectory"

    # the split run must actually schedule sub-tasks and keep rebalancing
    assert rebalanced_split["n_subtasks"] > rebalanced["n_subtasks"]
    assert rebalanced_split["n_rebalances"] >= 1
    assert rebalanced["n_rebalances"] >= 1

    # the Figure 1 -> 2 signature: splitting caps the largest measured task
    assert fig2["max_task_ms"] < fig1["max_task_ms"], (
        "splitting did not reduce the largest measured task time"
    )

    # scheduling-quality gate (multi-core hosts): finer granularity must cut
    # the rebalanced max worker load by >= 15%
    if (os.cpu_count() or 1) >= 2:
        assert drop >= MIN_MAX_LOAD_DROP, (
            f"max-load drop {drop * 100:.1f}% below the "
            f"{MIN_MAX_LOAD_DROP * 100:.0f}% floor"
        )
        assert imbalance_drop >= MIN_MAX_LOAD_DROP, (
            f"imbalance drop {imbalance_drop * 100:.1f}% below the "
            f"{MIN_MAX_LOAD_DROP * 100:.0f}% floor"
        )
