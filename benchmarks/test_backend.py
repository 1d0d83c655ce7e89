"""Kernel-backend benchmark: numpy reference vs the compiled C kernels.

Times, per available backend, the kernels the ``c`` backend replaces:

* the fused non-bonded pair kernel (``nb_pairs``) in cutoff mode and in
  Ewald mode, over the real in-cutoff pair set of a 10,200-atom water box
  (every pair in range, in global order: the arithmetic alone);
* the engine's real kernel, ``nb_rows``, over the lists an engine evaluates
  — the 36 row lists below, built at cutoff + skin and tested at the
  cutoff, one call for all of them, per listed pair — beside ``nb_pairs``
  over the same pairs expanded to explicit arrays (36 calls);
* the Ewald reciprocal sum (``ewald_recip``) over the kmax-4 table of a
  1,029-atom water box, as the direct sum (no integer triplets) and with
  the triplets (factorised phase factors on ``c``; the reference ignores
  them);
* the pair-list build (``block_pairs`` in list mode) over the 36 cell
  blocks of the perf harness's 2,187-atom water box at cutoff + skin, into
  a pre-sized arena — per candidate tested and per pair listed, with the
  bytes the lists take per listed pair;

plus end-to-end :class:`SequentialEngine` steps/sec on a 648-atom box.  The
header of the text artifact names the atom count each line actually timed.
Results land in ``benchmarks/results/BENCH_backend.json`` / ``.txt`` (CI
artifacts, shown by ``repro report``).

The >= 3x gate binds on cutoff-mode ``nb_pairs`` wherever the ``c``
backend loaded; on a host without a compiler the run is informational — it
still regenerates the artifacts, proving the fallback path stays healthy.
Timings use best-of-N over a minimum duration to shrug off shared-host noise.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.backend import available_backends, backend_status, get_backend
from repro.builder import small_water_box
from repro.md.cells import bin_atoms
from repro.md.cells import CellGrid, candidate_pairs
from repro.md.engine import SequentialEngine
from repro.md.ewald import _kspace_tables
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions, _combined_params, pair_type_tables
from repro.md.tasks import build_row_lists

RESULTS_DIR = Path(__file__).parent / "results"

#: 3400 waters = 10,200 atoms — the acceptance scale for the speedup gate
KERNEL_WATERS = 3400
KERNEL_CUTOFF = 6.0
RECIP_WATERS = 343
RECIP_KMAX = 4
ALPHA = 0.35
LIST_WATERS = 729
LIST_CUTOFF = 8.0  # the harness rows' cutoff
LIST_R = LIST_CUTOFF + 1.5  # ... and their lists' skin
MD_WATERS = 216
MD_CUTOFF = 8.0
MD_STEPS = 20
SPEEDUP_GATE = 3.0

#: rows of the table: (label, timing key, work items the time is divided by)
KERNELS = (
    ("nb_pairs cutoff", "nb_pairs_cutoff_s", "pairs"),
    ("nb_pairs ewald", "nb_pairs_ewald_s", "pairs"),
    ("lists cutoff", "nb_rows_cutoff_s", "listed"),
    ("lists ewald", "nb_rows_ewald_s", "listed"),
    (" as pair arrays", "nb_lists_cutoff_s", "listed"),
    (" ... ewald", "nb_lists_ewald_s", "listed"),
    ("recip direct", "ewald_recip_direct_s", "atom_k"),
    ("recip triplets", "ewald_recip_factorised_s", "atom_k"),
    ("list /candidate", "block_pairs_list_s", "candidates"),
    ("list /listed", "block_pairs_list_s", "listed"),
)


def _best_of(fn, repeats=7, seconds=0.3):
    """Fastest of at least ``repeats`` calls and ``seconds`` of calling: on
    the shared dev host a millisecond kernel reads twice its steady time for
    tens of milliseconds after a memory-heavy neighbour ran, which outlasts
    any fixed handful of repeats."""
    best = float("inf")
    started = time.perf_counter()
    done = 0
    while done < repeats or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        done += 1
    return best


def _pair_inputs(system):
    """The real in-cutoff pair set + parameters of the benchmark box."""
    pos, box = system.positions, system.box
    i_c, j_c = candidate_pairs(pos, box, KERNEL_CUTOFF)
    within = get_backend("numpy").pair_mask(pos, box, i_c, j_c, KERNEL_CUTOFF)
    i_c, j_c = i_c[within], j_c[within]
    return (i_c, j_c, *_combined_params(system, i_c, j_c))


def _list_inputs(system):
    """The half-shell cell tasks of the list-build box, its cell buckets,
    and how many candidate pairs the blocks hold."""
    system.wrap()
    grid = CellGrid.build(system.positions, system.box, LIST_R)
    _, _, buckets = bin_atoms(system.positions, system.box, grid.dims)
    tasks, candidates = [], 0
    for a, b in zip(*(c.tolist() for c in grid.neighbor_cell_pair_arrays())):
        tasks.append((a, b, 0, 1))
        na, nb = len(buckets[a]), len(buckets[b])
        candidates += na * (na - 1) // 2 if a == b else na * nb
    return tasks, buckets, candidates


def test_backend_benchmark():
    status = backend_status()
    backends = [get_backend(name) for name in available_backends()]
    system = small_water_box(KERNEL_WATERS, seed=11, relax=False)
    pos, box = system.positions, system.box
    i_c, j_c, eps, rmin, qq = _pair_inputs(system)
    m = len(i_c)
    assert m > 0
    recip = small_water_box(RECIP_WATERS, seed=11, relax=False)
    k_tab, _k2, ak, m_tab = _kspace_tables(recip.box, RECIP_KMAX, ALPHA)
    lists = small_water_box(LIST_WATERS, seed=7, relax=False)
    tasks, buckets, n_candidates = _list_inputs(lists)
    cols = np.empty(n_candidates // 4, dtype=np.int32)
    row_tables = (lists.type_indices, lists.charges, *pair_type_tables(lists))

    per_backend: dict[str, dict] = {}
    reference = None
    for be in backends:
        forces = np.zeros_like(pos)
        recip_forces = np.zeros_like(recip.positions)

        def nb(*mode):
            return be.nb_pairs(
                pos, box, i_c, j_c, eps, rmin, qq,
                KERNEL_CUTOFF, KERNEL_CUTOFF - 1.0, forces, i_c, j_c, *mode,
            )

        def rec(*triplets):
            return be.ewald_recip(
                recip.positions, recip.charges, k_tab, ak, 1.0, recip_forces,
                *triplets,
            )

        def build_lists():
            built = build_row_lists(
                lists, tasks, range(len(tasks)), buckets, LIST_R, be, cols
            )
            assert built is not None
            return built

        def nb_rows(*mode):
            """The engine's call: every list ``build_lists`` left in the
            arena, one kernel call, block-local force rows."""
            be.nb_rows(
                lists.positions, lists.box, row_tables, built, LIST_CUTOFF,
                LIST_CUTOFF - 1.0, scratch, built.row_off[:-1], rows_out, *mode,
            )
            return rows_out[:, :3].sum(axis=0)

        def nb_lists(*mode):
            """``nb_pairs`` over the same pairs as explicit arrays (expanded
            outside the timing), one call a list."""
            total = np.zeros(3)
            for k, (i_g, j_g, si, sj, eps_l, rmin_l, qq_l) in enumerate(expanded):
                total += be.nb_pairs(
                    lists.positions, lists.box, i_g, j_g, eps_l, rmin_l, qq_l,
                    LIST_CUTOFF, LIST_CUTOFF - 1.0,
                    scratch[built.row_off[k] : built.row_off[k + 1]], si, sj, *mode,
                )
            return total

        built = build_lists()
        scratch = np.zeros((len(built.rows), 3))
        rows_out = np.zeros((len(tasks), 4))
        expanded = []
        for k in range(len(tasks)):
            i_g, j_g, si, sj = built.pairs(k)
            expanded.append((i_g, j_g, si, sj, *_combined_params(lists, i_g, j_g)))
        runs = {
            "nb_pairs_cutoff_s": lambda: nb(),
            "nb_pairs_ewald_s": lambda: nb(ALPHA, KERNEL_CUTOFF),
            "ewald_recip_direct_s": lambda: rec(),
            "ewald_recip_factorised_s": lambda: rec(m_tab),
            "nb_rows_cutoff_s": nb_rows,
            "nb_rows_ewald_s": lambda: nb_rows(ALPHA, LIST_CUTOFF),
            "nb_lists_cutoff_s": nb_lists,
            "nb_lists_ewald_s": lambda: nb_lists(ALPHA, LIST_CUTOFF),
        }
        # correctness gate before timing anything
        outputs = [np.asarray(run()[:2] if "nb" in key else run())
                   for key, run in runs.items()]
        # ... of the lists: both kernels agree on them, every backend the same
        assert np.array_equal(nb_rows(), nb_lists())
        outputs.append(np.concatenate([built.cols[: built.row_ptr[-1]], built.row_ptr]))
        if reference is None:
            reference = outputs
        for got, expected in zip(outputs, reference):
            assert np.allclose(got, expected, rtol=1e-9, atol=1e-9)
        runs["block_pairs_list_s"] = build_lists
        timings = {key: round(_best_of(run), 6) for key, run in runs.items()}

        md_system = small_water_box(MD_WATERS, seed=7)
        md_system.assign_velocities(300.0, seed=7)
        engine = SequentialEngine(
            md_system,
            NonbondedOptions(cutoff=MD_CUTOFF),
            VelocityVerlet(dt=1.0),
            backend=be,
        )
        engine.run(3)  # warm-up
        t0 = time.perf_counter()
        engine.run(MD_STEPS)
        timings["engine_steps_per_sec"] = round(
            MD_STEPS / (time.perf_counter() - t0), 3
        )
        per_backend[be.name] = timings

    speedups = {}
    if "c" in per_backend:
        speedups = {
            key.removesuffix("_s"): round(
                per_backend["numpy"][key] / per_backend["c"][key], 2
            )
            for key in dict.fromkeys(key for _, key, _ in KERNELS)
        }

    listed = int(built.row_ptr[-1])
    items = {
        "pairs": m, "atom_k": recip.n_atoms * len(k_tab),
        "candidates": n_candidates, "listed": listed,
    }
    survivor_frac = round(nb_rows()[2] / listed, 4)
    list_bytes = built.cols[:listed].nbytes + built.row_ptr.nbytes + built.rows.nbytes
    payload = {
        "pair_kernel_atoms": system.n_atoms,
        "n_pairs": m,
        "cutoff_A": KERNEL_CUTOFF,
        "recip_atoms": recip.n_atoms,
        "recip_kvectors": len(k_tab),
        "list_atoms": lists.n_atoms,
        "list_blocks": len(tasks),
        "list_candidates": n_candidates,
        "list_pairs": items["listed"],
        "list_cutoff_A": LIST_CUTOFF,
        "list_survivor_frac": survivor_frac,
        "list_block_rows": len(built.rows),
        "list_bytes": list_bytes,
        "list_bytes_per_pair": round(list_bytes / listed, 3),
        "engine_atoms": md_system.n_atoms,
        "available": status["available"],
        "c_ok": status["c_ok"],
        "c_error": status["c_error"],
        "c_build": status["c_build"],
        "backends": per_backend,
        "speedups_vs_numpy": speedups,
        "speedup_gate": SPEEDUP_GATE if speedups else None,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_backend.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        "Kernel backend benchmark (wall-clock on this host, ns per work item)",
        "",
        f"nb_pairs: {system.n_atoms} atoms, {m} in-cutoff pairs at "
        f"{KERNEL_CUTOFF} A cutoff (item = pair)",
        f"recip:    {recip.n_atoms} atoms x {len(k_tab)} k-vectors, kmax "
        f"{RECIP_KMAX} (item = atom x k-vector)",
        f"list:     {lists.n_atoms} atoms, {len(tasks)} cell blocks, "
        f"{n_candidates} candidates, {listed} listed at {LIST_R} A "
        "(item = candidate, listed pair); "
        f"{list_bytes / listed:.2f} bytes a listed pair (4 + 16 a block row over "
        f"{len(built.rows)} block rows; 48 as seven arrays)",
        f"lists:    nb_rows over those {len(tasks)} row lists at {LIST_CUTOFF} A in "
        f"one call, {survivor_frac:.1%} of the listed pairs in range; 'as pair "
        "arrays' is nb_pairs over the same pairs expanded, a call a list "
        "(item = listed pair)",
        f"engine:   {md_system.n_atoms} atoms, cutoff {MD_CUTOFF} A, "
        f"{MD_STEPS} sequential steps",
        "",
        f"{'kernel':<16}" + "".join(f"{b:>12}" for b in per_backend),
    ]
    for label, key, unit in KERNELS:
        lines.append(
            f"{label:<16}"
            + "".join(
                f"{per_backend[b][key] * 1e9 / items[unit]:>10.1f}ns"
                for b in per_backend
            )
        )
    lines.append(
        f"{'engine steps/s':<16}"
        + "".join(
            f"{per_backend[b]['engine_steps_per_sec']:>12.3f}"
            for b in per_backend
        )
    )
    lines.append("")
    if speedups:
        lines.append(
            "c speedup vs numpy: "
            + ", ".join(f"{k} {v:.2f}x" for k, v in speedups.items())
        )
    else:
        lines.append(
            f"c backend not available ({status['c_error']}); "
            "numpy reference timings only — fallback path exercised"
        )
    (RESULTS_DIR / "BENCH_backend.txt").write_text("\n".join(lines) + "\n")

    if speedups:  # the gate only binds when the compiled backend loaded
        gated = speedups["nb_pairs_cutoff"]
        assert gated >= SPEEDUP_GATE, (
            f"c nb_pairs (cutoff mode) only {gated:.2f}x the numpy reference "
            f"(expected >= {SPEEDUP_GATE}x at {system.n_atoms} atoms): {speedups}"
        )
