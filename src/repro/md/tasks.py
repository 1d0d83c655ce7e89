"""MD force tasks for the supervised pool runtime.

This module is the *what* of the real parallel engine: it describes the
force-field work as a family of schedulable tasks behind the
:class:`repro.pool.protocol.TaskProvider` interface, leaving the *how*
(process supervision, shared memory, recovery) to the generic
:mod:`repro.pool` runtime.  Three task kinds share one global task order:

* **cell tasks** ``(a, b, part, n_parts)`` — the half-shell cell self
  blocks and 13-per-cell neighbour pair blocks of the paper's spatial
  decomposition, optionally split into row-stripe sub-tasks by grainsize
  control (§4.2.1–2); evaluated with per-task prefiltered Verlet lists
  as row lists over each task's force block (four bytes a listed pair),
  all of an executor's by one call of the batched pair kernel
  (``backend.nb_rows``) a step — LJ plus the shifted point-charge term or,
  under Ewald, the erfc real-space term.  The lists are the backend's
  work too (``block_pairs``), written in place into one arena per
  evaluator;
* **bonded groups** ``("bonded", kind, cell, intra)`` — the bonded terms
  of one kind whose home cell (under the reference binning) lies in run
  ``cell`` of consecutive cells, split into intra/inter groups that
  partition the term list exactly;
* **the reciprocal task** ``("kspace",)`` — under Ewald, the whole
  reciprocal sum by smooth PME (:func:`repro.md.ewald.pme_reciprocal`),
  one task whose block is every atom, evaluated every
  ``EwaldOptions.recip_every`` steps (the others run every step).

The construction (:func:`build_force_tasks`) is deterministic: task
structure derives from topology, grid, and the cost-model *prior* only —
never from the worker count or from noisy measurements — because the
scratch layout (and therefore the floating-point reduction order)
follows the task list.  That is what keeps trajectories bit-identical
across worker counts, remaps, and recovery.

Workers always bin and build their pair lists from the *reference*
positions segment (label ``"ref"``, written by the driver at each
rebuild), never from the live ``"pos"`` segment — so a respawned or
reassigned worker reconstructs exactly the lists every other worker
derived at the last rebuild.  The kernels, of course, evaluate at the
live positions.

Stats-column semantics for these tasks: ``STAT_V0`` carries the LJ
energy (bonded group energies land here too), ``STAT_V1`` the
electrostatic energy — of a cell task the shifted point-charge sum or,
under Ewald, its share of ``energy_real``; of the reciprocal task
``energy_recip`` —, ``STAT_V2`` the pair/term/atom count; the driver
separates them by task-id range.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.backend import get_backend
from repro.backend.ewald_table import ewald_table
from repro.backend.reference import expand_rows
from repro.md.bonded import BONDED_KINDS, bonded_term_arrays
from repro.md.cells import CellGrid, bin_atoms
from repro.md.ewald import EwaldOptions, _pme_influence, pme_reciprocal
from repro.md.nonbonded import NonbondedOptions, ewald_pair_mode, pair_type_tables
from repro.costmodel.grainsize import GrainsizeConfig, stripe_candidate_counts
from repro.costmodel.model import DEFAULT_COST_MODEL, estimate_block_costs
from repro.util.pbc import wrap_positions

__all__ = [
    "MAX_SPLIT_PARTS",
    "ForceTaskEvaluator",
    "ForceTaskProvider",
    "ForceTaskSpec",
    "RowLists",
    "bonded_cell_stride",
    "build_force_tasks",
    "build_row_lists",
    "build_xtask_entries",
    "count_task_pairs",
    "estimate_task_pairs",
    "eval_bonded_group",
    "scratch_rows_bound",
    "task_layout",
    "task_offsets",
    "xtask_rows",
]

#: hard cap on grainsize slices per cell task in the real engine — real
#: sub-tasks carry per-part list/scatter overhead the simulated layer's
#: descriptors do not, so the engine caps lower than GrainsizeConfig's 64
MAX_SPLIT_PARTS = 16


class CostPriors(NamedTuple):
    """Cost priors of the work that is not a cutoff-mode cell task, in the
    unit of the cell tasks' prior (one in-cutoff pair of the fused kernel in
    cutoff mode)."""

    #: a pair with the Ewald real-space term (read from the table in r²)
    #: against one with the shifted point-charge term
    ewald_pair: float
    #: the reciprocal task: each atom's spread and gather, and each point of
    #: the grid (the FFT pair and the influence multiply)
    pme_atom: float
    pme_point: float
    #: a bonded group's kernel call, whatever its size, and each of its terms
    bonded_call: float
    bonded_term: float


#: Only the initial task→worker map reads the priors — and with the default
#: ``rebalance_every=0`` that map is the only balancing a run gets — so a
#: factor matters and a percent does not.  They are a property of backend
#: and host: one row per ``backend.compiled``, each measured from the task
#: times the engine's WorkDB collects on the perf harness's 343-water Ewald
#: row at 2 workers (each task's fastest evaluation of 40 steps).
#:
#: numpy: the 36 cell tasks take 14.0-17.1 ms reading the Ewald table
#: against 16.5-19.7 with the shifted term and its square root (21.9 when
#: the term was ``scipy``'s ``erfc`` + ``exp``), session by session 0.85-0.9
#: of it, at ~100 ns per pair unit; the reciprocal task 12.6-12.8 ms against
#: 16.3-16.6 for the cell tasks on the row (kmax 4, a 32³ grid), ~11 us an
#: atom (``bincount`` spread, ``einsum`` gather) and ~12 ns a grid point; a
#: bonded group is one call of a few dozen small numpy operations, 30-250 us
#: whatever its size, plus 0.1-0.5 us per term.
#:
#: c: the cell tasks' times are the batched kernel's own clock, and the pair
#: unit is ~8.9 ns (the 36 cell tasks in cutoff mode, 1.58-1.65 ms, over
#: their summed prior), so everything that kernel does not touch is large
#: in it.  With the table the cell tasks take 1.80 ms under Ewald (4.32 when
#: every pair called libm's ``erfc`` and ``exp``); the reciprocal task
#: 1.25-1.65 ms against 1.99-2.38 for the cell tasks on the row, ~0.5 us an
#: atom (spread and gather) and ~20 ns a grid point (the FFT pair,
#: ``scipy``'s, the same on both backends: 0.39 ms alone, more after the
#: cell tasks have had the caches); a bonded group is one
#: call of the C kernel, ~25 us of wrapper and ``ctypes`` before the first
#: term and 2-30 ns a term (28-33 us for 686 or 1,458 bonds, 39-47 us for
#: 343 or 729 angles).
COST_PRIORS = {
    False: CostPriors(
        ewald_pair=0.9, pme_atom=115.0, pme_point=0.12, bonded_call=600.0,
        bonded_term=3.0,
    ),
    True: CostPriors(
        ewald_pair=1.15, pme_atom=58.0, pme_point=2.2, bonded_call=3000.0,
        bonded_term=2.0,
    ),
}

#: Terms of the largest kind a bonded group should carry: about a cell
#: task's worth of work, so the per-call cost above stays a small part of
#: it.  Groups span runs of consecutive cells sized to this (one run — four
#: groups of water — below twice the target); like the reciprocal task the
#: runs derive from topology and grid only, never from the worker count.
BONDED_GROUP_TERMS = 2048


def pair_reach(options: NonbondedOptions, ewald: EwaldOptions | None) -> float:
    """The distance inside which some pair term acts: the LJ cutoff or,
    under Ewald, the larger of it and the real-space cutoff.  Lists, task
    grid and skin test size to this, so either cutoff may be the longer."""
    return options.cutoff if ewald is None else max(options.cutoff, ewald.cutoff)


def bonded_cell_stride(term_data: dict[int, tuple], n_cells: int) -> int:
    """Cells per bonded-group run: as many runs as keep the largest kind at
    :data:`BONDED_GROUP_TERMS` terms a run, at least one, at most one a
    cell.  Atom ``i`` belongs to run ``flat[i] // stride``."""
    n_terms = max((len(td[0]) for td in term_data.values()), default=0)
    n_runs = min(max(n_terms // BONDED_GROUP_TERMS, 1), max(n_cells, 1))
    return -(-max(n_cells, 1) // n_runs)


def xtask_rows(
    xtasks: list[tuple],
    term_data: dict[int, tuple],
    flat: np.ndarray,
    n_atoms: int,
) -> tuple[list, list]:
    """Term selections and scatter rows of every extra task, one binning.

    Extra tasks ride after the cell tasks in the global task order:

    * ``("bonded", kind, cell, intra)`` — the bonded terms of ``kind``
      whose *home cell* (``flat`` of the term's first atom) is ``cell``,
      split into the intra group (every atom of the term in that cell,
      ``intra=1``) and the inter group (``intra=0``).  ``flat`` is the
      caller's atom → cell map: the engines pass the reference binning
      coarsened to runs of cells (:func:`bonded_cell_stride`).  For each
      kind the groups partition the term list exactly, so energies and
      forces are independent of the binning; the block rows are the
      flattened global atom indices of the selected terms (duplicates are
      fine — the driver reduces with a segment sum).
    * ``("kspace",)`` — the reciprocal task; its forces touch every atom,
      so the block is a full ``(n_atoms, 3)`` slab.

    Returns ``(sels, rows)`` aligned with ``xtasks``; ``sels[x]`` is None
    for the reciprocal task.  Driver and workers both call this on the same
    reference binning, so layouts agree without communicating.
    """
    sels: list = []
    rows: list = []
    homes: dict[int, tuple] = {}  # kind -> (home cell, all atoms in it) per term
    for xt in xtasks:
        if xt[0] == "kspace":
            sels.append(None)
            rows.append(np.arange(n_atoms, dtype=np.int64))
            continue
        _, kind, cell, intra = xt
        idx = term_data[kind][0]
        if kind not in homes:
            home = flat[idx[:, 0]]
            homes[kind] = home, np.all(flat[idx] == home[:, None], axis=1)
        home, same = homes[kind]
        sel = np.flatnonzero((home == cell) & (same == bool(intra)))
        sels.append(sel)
        rows.append(idx[sel].reshape(-1))
    return sels, rows


# --------------------------------------------------------------------------- #
# task layout: shared between driver (reduction) and workers (block writes)
# --------------------------------------------------------------------------- #
def task_offsets(
    buckets: list[np.ndarray],
    tasks: list[tuple[int, int, int, int]],
    xrows: list[np.ndarray] = (),
) -> np.ndarray:
    """Where each task's block starts in the shared force scratch: the
    ``n_tasks + 1`` offsets of :func:`task_layout`, which is all a worker
    needs of the layout."""
    n_nb = len(tasks)
    sizes = np.zeros(n_nb + len(xrows), dtype=np.int64)
    for t, (a, b, part, n_parts) in enumerate(tasks):
        na = len(buckets[a])
        if b == a:
            sizes[t] = na
        else:
            sizes[t] = len(range(part, na, n_parts)) + len(buckets[b])
    for x, rows in enumerate(xrows):
        sizes[n_nb + x] = len(rows)
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def task_layout(
    buckets: list[np.ndarray],
    tasks: list[tuple[int, int, int, int]],
    xrows: list[np.ndarray] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Task-ordered block layout of the shared force scratch.

    Tasks are grainsize sub-blocks ``(a, b, part, n_parts)`` — the unsplit
    case is ``(a, b, 0, 1)``.  Block ``t`` holds the force rows its kernel
    can touch: for a *self* sub-task every row of cell ``a`` (a stripe's
    pairs ``(i, j)``, ``i`` in the stripe, scatter onto arbitrary ``j``);
    for a *pair* sub-task the stripe ``part::n_parts`` of cell ``a``'s rows
    followed by all of cell ``b``'s.  Returns ``(offsets, gather)`` where
    ``offsets`` has ``n_tasks + 1`` entries and
    ``gather[offsets[t]:offsets[t+1]]`` are the *global* atom indices of
    block ``t``'s rows.  Both driver and workers derive this from the same
    deterministic binning of the same published positions, so they agree
    without communicating; because the layout (and the driver's
    segment-sum over it) is in task order, the reduced forces are bitwise
    independent of the task→worker assignment.

    ``xrows`` appends extra-task blocks (bonded term groups and the
    reciprocal task, see :func:`xtask_rows`) after the cell blocks: extra task
    ``x`` occupies global task slot ``len(tasks) + x`` and its block rows
    are exactly ``xrows[x]``.
    """
    n_nb = len(tasks)
    offsets = task_offsets(buckets, tasks, xrows)
    gather = np.empty(int(offsets[-1]), dtype=np.int64)
    for t, task in enumerate(tasks):
        gather[offsets[t] : offsets[t + 1]] = _block_rows(buckets, task)
    for x, rows in enumerate(xrows):
        lo = int(offsets[n_nb + x])
        gather[lo : lo + len(rows)] = rows
    return offsets, gather


def _block_rows(buckets, task) -> np.ndarray:
    """Global atom indices of the force-block rows of one cell task: cell
    ``a`` for a self task, the stripe of cell ``a`` then all of cell ``b``
    for a pair task."""
    a, b, part, n_parts = task
    if a == b:
        return buckets[a]
    return np.concatenate([buckets[a][part::n_parts], buckets[b]])


def scratch_rows_bound(
    tasks: list[tuple[int, int, int, int]], n_cells: int, n_atoms: int
) -> int:
    """Upper bound on scratch rows any future layout of ``tasks`` can need.

    Counts, per cell, how many block rows it can contribute: a self parent
    split ``n`` ways keeps *all* of cell ``a``'s rows in each slice
    (``n`` full blocks); a pair parent contributes cell ``a`` once (its
    stripes partition the rows exactly) and cell ``b`` once per slice.
    The bound is topology-only — independent of where atoms sit — so the
    shared segment sized at construction stays valid across rebuilds.
    """
    if not n_cells:
        return 1
    mult = np.zeros(n_cells, dtype=np.int64)
    for a, b, part, n_parts in tasks:
        if part != 0:  # count each parent task once
            continue
        if b == a:
            mult[a] += n_parts
        else:
            mult[a] += 1
            mult[b] += n_parts
    return max(n_atoms * int(mult.max()), 1)


# --------------------------------------------------------------------------- #
# worker-side kernels
# --------------------------------------------------------------------------- #
def _task_block(tasks, t, buckets):
    """The ``(atoms_a, atoms_b, part, n_parts)`` of cell task ``t`` as
    ``backend.block_pairs`` takes them (``atoms_b`` None for a self task)."""
    a, b, part, n_parts = tasks[t]
    return buckets[a], None if a == b else buckets[b], part, n_parts


def count_task_pairs(system, tasks, my_tasks, buckets, r_list, backend) -> int:
    """Pairs within ``r_list`` over the blocks of ``my_tasks`` (the kernel's
    count mode): exclusions included, so never fewer than their lists hold."""
    return sum(
        backend.block_pairs(
            system.positions, system.box, *_task_block(tasks, t, buckets), r_list
        )
        for t in my_tasks
    )


def estimate_task_pairs(system, tasks, my_tasks, buckets, r_list, dims) -> int:
    """Pairs within ``r_list`` the blocks of ``my_tasks`` would hold in a
    uniform liquid, for sizing an arena without a count: their candidate
    pairs times the share of the cell stencil's volume — up to three cells
    an axis, the whole box along an axis of one or two — that a sphere of
    radius ``r_list`` fills (all of them once the sphere fills it)."""
    box = np.asarray(system.box, dtype=np.float64)
    dims = np.asarray(dims, dtype=np.int64)
    stencil = float(np.prod(box * np.minimum(dims, 3) / dims))
    share = min(1.0, 4.0 / 3.0 * np.pi * r_list**3 / stencil)
    candidates = 0
    for t in my_tasks:
        a, b, part, n_parts = tasks[t]
        nb = None if a == b else len(buckets[b])
        candidates += int(stripe_candidate_counts(len(buckets[a]), nb, n_parts)[part])
    return int(candidates * share)


class RowLists(NamedTuple):
    """The pair lists of a batch of cell tasks, in the form
    ``backend.nb_rows`` evaluates (the contract in
    :mod:`repro.backend.base`): four bytes a listed pair and sixteen a block
    row, because everything else a pair needs — its row atom, both force
    rows, its parameters — is a property of the block.

    Task ``k`` of the batch owns ``rows[row_off[k]:row_off[k+1]]`` — its
    force block's rows as global atom indices, the same indices as the
    driver's :func:`task_layout` gather — and the ``row_ptr`` slots from
    ``row_off[k] + k`` on, one per block row plus one: block row ``r`` lists
    the partners ``cols[row_ptr[r]:row_ptr[r+1]]``, block rows themselves.
    """

    #: int32, one entry a listed pair, the tasks' lists concatenated in
    #: task order from 0 (the array may run on past the last of them)
    cols: np.ndarray
    row_ptr: np.ndarray
    rows: np.ndarray
    row_off: np.ndarray

    def task(self, k: int) -> "RowLists":
        """Task ``k`` alone, as a batch of one (views, nothing copied)."""
        lo, hi = int(self.row_off[k]), int(self.row_off[k + 1])
        return RowLists(
            self.cols, self.row_ptr[lo + k : hi + k + 1], self.rows[lo:hi],
            np.array([0, hi - lo], dtype=np.int64),
        )

    def pairs(self, k: int) -> tuple[np.ndarray, ...]:
        """The explicit pair arrays task ``k``'s rows stand for, in list
        order: ``(i, j, si, sj)`` — global atom indices and block rows, the
        arguments ``backend.nb_pairs`` would take."""
        one = self.task(k)
        si, sj = expand_rows(one.cols, one.row_ptr)
        return one.rows[si], one.rows[sj], si, sj


def build_row_lists(
    system, tasks, my_tasks, buckets, r_list, backend=None, cols=None
) -> RowLists | None:
    """The row lists of ``my_tasks``, built in place in one arena.

    For each owned sub-task ``(a, b, part, n_parts)`` one
    ``backend.block_pairs`` call lists the block (the contract in
    :mod:`repro.backend.base`): the pairs with ``r < r_list`` minus
    exclusions/1-4, row-major.  A self sub-task keeps the upper-triangle
    pairs whose row ``i`` lands in the stripe (rows ``0..na-1`` of the
    block, so all slices of one self cell share scatter indexing); a pair
    sub-task tests its stripe's rows (block rows ``0..ns-1``) against all
    of cell ``b`` (rows ``ns..``).  The slices are an exact partition of
    the parent task's candidate set.

    The calls write one after another into ``cols`` (int32), overwriting
    whatever it held, so the lists of ``my_tasks`` lie concatenated in task
    order.  Returns the batch, or ``None`` when it does not fit.  A
    one-shot caller passes no arena and gets one sized by
    :func:`count_task_pairs`.
    """
    backend = get_backend(backend)
    if cols is None:
        cols = np.empty(
            count_task_pairs(system, tasks, my_tasks, buckets, r_list, backend),
            dtype=np.int32,
        )
    blocks = [_block_rows(buckets, tasks[t]) for t in my_tasks]
    row_off = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([len(rows) for rows in blocks], out=row_off[1:])
    rows = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
    row_ptr = np.empty(len(rows) + len(blocks), dtype=np.int64)
    # read here, at every rebuild: a table rebuilt since is the one used
    table = system.exclusions.atom_table()
    used = 0
    for k, t in enumerate(my_tasks):
        n = backend.block_pairs(
            system.positions, system.box, *_task_block(tasks, t, buckets), r_list,
            table, (cols, row_ptr[row_off[k] + k : row_off[k + 1] + k + 1]), used,
        )
        if n < 0:
            return None
        used += n
    return RowLists(cols, row_ptr, rows, row_off)


def build_xtask_entries(xtasks, xsels, term_data, my_tasks, n_nb):
    """Kernel-ready entries for this worker's extra tasks, one rebuild.

    Bonded entries pre-slice the kind's term arrays to the group's
    selection and carry local scatter indices (block row ``r`` of a group
    with terms of arity ``m`` holds atom ``idx[r // m, r % m]`` — exactly
    the row order of :func:`xtask_rows`).  The reciprocal task's entry is
    its descriptor; its table is memoized per process.
    """
    entries: dict[int, tuple] = {}
    for t in my_tasks:
        if t < n_nb:
            continue
        xt = xtasks[t - n_nb]
        if xt[0] == "kspace":
            entries[t] = xt
            continue
        _, kind, _cell, _intra = xt
        idx, kpar, p1, p2 = term_data[kind]
        sel = xsels[t - n_nb]
        arity = idx.shape[1]
        sidx = np.arange(len(sel) * arity, dtype=np.int64).reshape(-1, arity)
        entries[t] = (
            "bonded", kind, idx[sel], kpar[sel], p1[sel], p2[sel], sidx
        )
    return entries


def eval_bonded_group(system, entry, block, backend):
    """One bonded group into its block; returns ``(energy, n_terms)`` — the
    term count is measurement context for the WorkDB, never added to the
    pair total."""
    _, kind, idx, kpar, p1, p2, sidx = entry
    if len(idx) == 0:
        return 0.0, 0
    energy = backend.bonded_terms(
        system.positions, system.box, kind, idx, kpar, p1, p2, block, sidx
    )
    return float(energy), len(idx)


# --------------------------------------------------------------------------- #
# the TaskProvider / TaskEvaluator pair
# --------------------------------------------------------------------------- #
class ForceTaskEvaluator:
    """The evaluator of the MD force tasks — the engines' one non-bonded
    implementation.

    Built by :meth:`ForceTaskProvider.make_evaluator`: one per worker
    thread of :class:`repro.pool.InProcessExecutor` (one on the calling
    thread for an engine without workers), or inside each worker process
    of a supervised pool.  It works on a private shallow
    copy of the system whose positions alias the ``"pos"`` view (the
    driver owns the contents and guarantees they are wrapped before each
    step); :meth:`rebuild` temporarily aliases the ``"ref"`` view so
    binning and pair-list construction are independent of *when* this
    evaluator (re)built.  The step payload is ``(box, weight)``: the
    reciprocal task skips a weight-0 step and scales its forces by any
    other weight but 1 (multiple time stepping, see
    :class:`repro.md.ewald.EwaldOptions`).  Bonded group energies land in
    the first stats column, the reciprocal task's in the second; the
    per-executor stats row gets this evaluator's own k-space table builds/hits
    (:attr:`kspace_stats`, the sink of the reciprocal task's table lookups
    — exact whoever else shares the process's table cache).
    """

    def __init__(self, provider: "ForceTaskProvider", worker_id, n_workers, views):
        # resolve the kernel backend once per evaluator; threads and forked
        # workers share the driver's loaded library, spawned ones load the
        # cached object — either way every task of this worker runs the
        # same kernels for its whole life
        self.backend = get_backend(provider.backend_name)
        self.provider = provider
        # a copy: in-process the provider's system is the engine's own
        self.system = copy.copy(provider.system)
        self.positions = views["pos"]
        self.ref_positions = views["ref"]
        self.system.positions = self.positions
        self.dims = np.asarray(provider.dims, dtype=np.int64)
        self.n_nb = len(provider.tasks)
        #: position-independent, so combined once for the evaluator's life
        self.pair_tables = pair_type_tables(self.system)
        #: this evaluator's cell tasks, their lists (None between a rebuild
        #: that raised and the next), each one's first scratch row and place
        #: in the batch, and the stats rows the kernel fills
        self.cell_tasks = np.zeros(0, dtype=np.int64)
        self.lists: RowLists | None = None
        self.block_off = np.zeros(0, dtype=np.int64)
        self.slot: dict[int, int] = {}
        self.cell_out = np.zeros((0, 4))
        #: the int32 array ``lists.cols`` is, for this evaluator's life
        #: (regrown only when a rebuild outgrows it)
        self.arena: np.ndarray | None = None
        self.xentries: dict[int, tuple] = {}
        self.kspace_stats = {"builds": 0, "hits": 0}
        #: the PME charge grid, like the arena kept for the evaluator's life
        self.pme_grid: np.ndarray | None = None

    def begin_step(self, payload) -> None:
        box, self.recip_weight = payload
        self.system.box = np.asarray(box, dtype=np.float64)

    def rebuild(self, my_tasks: list[int]) -> np.ndarray:
        p = self.provider
        # the arena is overwritten in place (an evaluator never evaluates
        # during its own rebuild): hold no list into it meanwhile, so a
        # rebuild that raises leaves no lists rather than half-written ones
        self.lists = None
        self.slot = {}
        self.xentries = {}
        # derive everything from the reference positions so the result is
        # independent of when this worker (re)built
        self.system.positions = self.ref_positions
        try:
            _, flat, buckets = bin_atoms(
                self.ref_positions, self.system.box, self.dims
            )
            xsels, xrows = xtask_rows(
                p.xtasks, p.term_data, flat // p.bonded_stride,
                len(self.positions),
            )
            offsets = task_offsets(buckets, p.tasks, xrows)
            mine = [t for t in my_tasks if t < self.n_nb]
            lists = self._build_lists(mine, buckets)
            self.xentries = build_xtask_entries(
                p.xtasks, xsels, p.term_data, my_tasks, self.n_nb
            )
        finally:
            self.system.positions = self.positions
        self.cell_tasks = np.asarray(mine, dtype=np.int64)
        self.block_off = offsets[self.cell_tasks]
        self.cell_out = np.zeros((len(mine), 4))
        self.slot = {t: k for k, t in enumerate(mine)}
        self.lists = lists
        return offsets

    def _build_lists(self, mine: list[int], buckets) -> RowLists:
        p = self.provider
        args = (self.system, p.tasks, mine, buckets, p.r_list, self.backend)
        if self.arena is None:
            # the first build goes straight into an arena sized from the
            # uniform-liquid estimate, not from a count: half again for the
            # task mix of one worker (its self blocks are denser than the
            # average; 1.42x the estimate on a 343-water box at two
            # workers), pages it never writes cost no memory
            n = estimate_task_pairs(
                self.system, p.tasks, mine, buckets, p.r_list, self.dims
            )
            self.arena = np.empty(n + n // 2 + 64, dtype=np.int32)
        lists = build_row_lists(*args, self.arena)
        if lists is None:
            # the estimate fell short (a dense cluster), or the lists
            # outgrew the arena (a remap enlarged this worker's task set):
            # sized from a count plus a few percent, so the next rebuilds
            # of a liquid fit without counting — never by doubling-and-copy,
            # and the old arena goes before the new one is allocated, so two
            # list generations never coexist
            self.arena = None
            n = count_task_pairs(*args)
            self.arena = np.empty(n + n // 32 + 64, dtype=np.int32)
            lists = build_row_lists(*args, self.arena)
        return lists

    def _nb_rows(self, lists: RowLists, scratch, block_off, out) -> None:
        """``backend.nb_rows`` over ``lists`` at the live positions."""
        p, system = self.provider, self.system
        self.backend.nb_rows(
            system.positions, system.box,
            (system.type_indices, system.charges, *self.pair_tables),
            lists, p.options.cutoff, p.options.switch, scratch, block_off, out,
            *ewald_pair_mode(p.ewald),
        )

    def eval_batch(self, scratch) -> tuple[np.ndarray, np.ndarray]:
        """Every cell task of this evaluator in one kernel call (the
        protocol's optional batch): each into its block of ``scratch``,
        the kernel timing each itself."""
        if self.lists is None:
            raise RuntimeError("no pair lists: the last rebuild did not finish")
        self._nb_rows(self.lists, scratch, self.block_off, self.cell_out)
        return self.cell_tasks, self.cell_out

    def eval_task(self, t: int, block) -> tuple[float, float, float]:
        if t >= self.n_nb:
            entry = self.xentries[t]
            if entry[0] == "kspace":
                weight = self.recip_weight
                if not weight:  # an inner step: the block stays zero
                    return 0.0, 0.0, 0
                system = self.system
                energy, self.pme_grid = pme_reciprocal(
                    system.positions, system.charges, system.box,
                    self.provider.ewald, block, self.backend, self.pme_grid,
                    self.kspace_stats,
                )
                if weight != 1:
                    block *= weight  # the impulse of the n steps it stands for
                return 0.0, energy, system.n_atoms
            energy, n_terms = eval_bonded_group(self.system, entry, block, self.backend)
            return energy, 0.0, n_terms
        # a cell task on its own: the batch kernel over a batch of one
        k = self.slot[t]  # a KeyError when there are no lists
        out = np.empty((1, 4))
        self._nb_rows(self.lists.task(k), block, np.zeros(1, dtype=np.int64), out)
        return float(out[0, 0]), float(out[0, 1]), int(out[0, 2])

    def end_step(self, out_row) -> None:
        out_row[0] = self.kspace_stats["builds"]
        out_row[1] = self.kspace_stats["hits"]

    def close(self) -> None:
        system = self.system
        self.positions = None
        self.ref_positions = None
        self.lists = None
        self.slot = {}
        self.arena = None
        self.pme_grid = None
        self.xentries = {}
        del system.positions
        system.positions = np.zeros((0, 3))


@dataclass
class ForceTaskProvider:
    """Driver-side description of one system's force tasks for the pool.

    Shipped to every worker (fork inheritance or spawn pickle); holds only
    plain data — the backend travels by *name* so a respawned worker
    rebuilds the identical kernels.  ``dims`` is the cell-grid shape the
    tasks were constructed for; the grid (and hence the task structure) is
    fixed for the provider's life.
    """

    system: object
    options: NonbondedOptions
    dims: tuple[int, ...]
    tasks: list[tuple[int, int, int, int]]
    xtasks: list[tuple]
    term_data: dict[int, tuple]
    r_list: float
    backend_name: str
    ewald: EwaldOptions | None
    scratch_rows: int
    #: cells per bonded-group run (:func:`bonded_cell_stride`)
    bonded_stride: int = 1

    @property
    def n_tasks(self) -> int:
        return len(self.tasks) + len(self.xtasks)

    def scratch_shape(self) -> tuple[int, int]:
        return (self.scratch_rows, 3)

    def segments(self) -> dict[str, tuple[tuple[int, ...], str]]:
        n = self.system.n_atoms
        return {
            "pos": ((n, 3), "float64"),
            # reference positions: the coordinates the pair lists were
            # last built from.  Workers always bin/build from this
            # segment, so a respawned replacement reconstructs the dead
            # worker's lists exactly, mid-skin-window, without touching
            # the rebuild schedule.
            "ref": ((n, 3), "float64"),
        }

    def make_evaluator(self, worker_id, n_workers, views) -> ForceTaskEvaluator:
        return ForceTaskEvaluator(self, worker_id, n_workers, views)

    # ------------------------------------------------------------------ #
    def check_layout(self, positions, box) -> None:
        """Raise when the task grid cannot serve ``positions`` in ``box``:
        a box shrunk below the grid's coverage, or another atom count."""
        box = np.asarray(box, dtype=np.float64)
        dims = np.asarray(self.dims, dtype=np.int64)
        edge = box / dims
        if np.any((dims > 1) & (edge < self.r_list)):
            raise RuntimeError(
                f"box {box.tolist()} shrank below the task grid's "
                f"coverage (edge {edge.tolist()} < cutoff+skin {self.r_list}); "
                "recreate the engine for the new box"
            )
        if len(positions) != self.system.n_atoms:
            raise RuntimeError(
                "atom count changed under the force tasks; "
                "recreate the engine"
            )

    def layout(self, positions, box) -> tuple[np.ndarray, np.ndarray]:
        """Driver-side reduction layout for the given reference positions.

        Must match the evaluators' blocks: both bin the same reference
        positions with the same grid.  The grid is fixed for the
        provider's life, so a changed box is only admissible while its
        cells still cover the list cutoff.
        """
        self.check_layout(positions, box)
        box = np.asarray(box, dtype=np.float64)
        dims = np.asarray(self.dims, dtype=np.int64)
        _, flat, buckets = bin_atoms(positions, box, dims)
        xrows: list = []
        if self.xtasks:
            _, xrows = xtask_rows(
                self.xtasks, self.term_data, flat // self.bonded_stride,
                len(positions),
            )
        return task_layout(buckets, self.tasks, xrows)


# --------------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------------- #
@dataclass
class ForceTaskSpec:
    """Everything :func:`build_force_tasks` decides, for the orchestrator.

    ``provider`` is the pool-facing product; the remaining fields are the
    construction by-products the engine needs for the static partition,
    WorkDB registration, and diagnostics.
    """

    provider: ForceTaskProvider
    parents: list[tuple[int, int]]
    sub_cost_arr: np.ndarray
    sub_parents: list[int]
    x_costs: list[float]
    all_costs: np.ndarray
    bonded_ids: dict[int, list[int]] = field(default_factory=dict)
    kspace_ids: list[int] = field(default_factory=list)

    @property
    def n_total(self) -> int:
        return self.provider.n_tasks


def build_force_tasks(
    system,
    options: NonbondedOptions,
    *,
    skin: float,
    n_workers: int,
    grainsize_ms: float = 0.0,
    ewald: EwaldOptions | None = None,
    backend=None,
) -> ForceTaskSpec:
    """Deterministic construction of the force-task family.

    Builds the half-shell cell grid sized to ``pair_reach + skin``, seeds
    per-task costs from the cost model (the paper's "before the first
    measurement" rule; skipped when ``n_workers == 1`` leaves nothing to
    partition), applies grainsize splitting from the deterministic
    prior, and appends the bonded groups and, under ``ewald``, the
    reciprocal task.  Everything is decided here, once — the
    structure never depends on the worker count or on measurements.
    Construction must not mutate the caller's system: the grid build and
    cost model see a wrapped *copy*; the engines wrap before every dispatch
    as usual.
    """
    backend = get_backend(backend)
    priors = COST_PRIORS[backend.compiled]
    # built once, before workers copy the system
    system.exclusions.atom_table()
    reach = pair_reach(options, ewald)
    r_list = reach + skin
    box = np.asarray(system.box, dtype=np.float64)
    wrapped = wrap_positions(system.positions, box)
    grid = CellGrid.build(wrapped, box, r_list)
    dims = grid.dims.copy()
    ca, cb = grid.neighbor_cell_pair_arrays()
    parents = list(zip(ca.tolist(), cb.tolist()))

    _, flat0, buckets = bin_atoms(wrapped, box, dims)
    model = None
    if grainsize_ms > 0:
        # grainsize_ms is a physical target: need real (reference-
        # machine) seconds, not the unitless pair-count default
        model = DEFAULT_COST_MODEL
    if grainsize_ms > 0 or n_workers > 1:
        costs = estimate_block_costs(
            wrapped,
            box,
            reach,
            buckets,
            parents,
            model=model,
            backend=backend,
        )
    else:
        # one executor and nothing to split: no one reads the prior, and
        # counting in-cutoff pairs per block is most of this function
        costs = np.ones(len(parents))

    # grainsize control (§4.2.1–2): split oversized parents into row
    # stripes — structure decided here, once, from the deterministic
    # prior (never from noisy measurements: the scratch layout follows
    # the task list, so a measurement-driven split would break bitwise
    # repeatability).  Priors are handed down pro-rata by stripe
    # candidate count.
    cfg = GrainsizeConfig(
        target_load_s=grainsize_ms * 1e-3, max_parts=MAX_SPLIT_PARTS
    )
    tasks: list[tuple[int, int, int, int]] = []
    sub_costs: list[float] = []
    sub_parents: list[int] = []
    for pt, (a, b) in enumerate(parents):
        na = len(buckets[a])
        if grainsize_ms > 0:
            enabled = cfg.split_self if a == b else cfg.split_pairs
            n_parts = min(cfg.parts_for(float(costs[pt]), enabled), max(na, 1))
        else:
            n_parts = 1
        weights = stripe_candidate_counts(
            na, None if a == b else len(buckets[b]), n_parts
        )
        wsum = float(weights.sum())
        for part in range(n_parts):
            frac = float(weights[part]) / wsum if wsum > 0 else 1.0 / n_parts
            tasks.append((a, b, part, n_parts))
            sub_costs.append(float(costs[pt]) * frac)
            sub_parents.append(pt)
    sub_cost_arr = np.asarray(sub_costs, dtype=np.float64)

    # extra force tasks: bonded term groups and the reciprocal task.
    # Their structure is fixed here, once, from topology/grid/kmax only
    # (never from the worker count or measurements), so the scratch
    # layout — and the reduction order — is identical at any pool size.
    n_cells = int(np.prod(dims))
    xtasks: list[tuple] = []
    term_data: dict[int, tuple] = {}
    t_pair = model.t_pair if model is not None else 1.0
    if ewald is not None:
        # after the split decision: the erfc cost may move the initial
        # task→worker map only, never the task list
        sub_cost_arr *= priors.ewald_pair
    for kind in range(len(BONDED_KINDS)):
        arrays = bonded_term_arrays(system, kind)
        if len(arrays[0]):
            term_data[kind] = arrays
    stride = bonded_cell_stride(term_data, n_cells)
    for kind in term_data:
        for cell in range(-(-n_cells // stride)):
            xtasks += [("bonded", kind, cell, 1), ("bonded", kind, cell, 0)]
    sels, _ = xtask_rows(xtasks, term_data, flat0 // stride, system.n_atoms)
    # an empty group returns before its kernel call
    x_costs = [
        t_pair * (priors.bonded_call + priors.bonded_term * len(sel)) * bool(len(sel))
        for sel in sels
    ]
    if ewald is not None:
        # the tables are built here, before a pool forks, so the workers
        # inherit them — and scipy.fft, whose import costs each ~20 ms —
        # instead of each building its own: the real-space table the
        # driver's 1-4 pass would build anyway, ...
        ewald_table(*ewald_pair_mode(ewald))
    if ewald is not None and ewald.kmax > 0:
        # ... and the influence function of the reciprocal task
        _, shape = _pme_influence(box, ewald.kmax, ewald.alpha_value())
        xtasks.append(("kspace",))
        x_costs.append(
            t_pair * (
                priors.pme_atom * system.n_atoms + priors.pme_point * np.prod(shape)
            )
        )
    all_costs = (
        np.concatenate([sub_cost_arr, np.asarray(x_costs)])
        if x_costs
        else sub_cost_arr
    )

    n = system.n_atoms
    # extra-task scratch bound is topology-only too: per kind, each term
    # lands in exactly one group under any binning (idx.size rows in
    # total), and the reciprocal task always writes one full (n, 3) slab
    x_rows = sum(td[0].size for td in term_data.values())
    x_rows += sum(n for xt in xtasks if xt[0] == "kspace")
    scratch_rows = scratch_rows_bound(tasks, n_cells, n) + x_rows

    provider = ForceTaskProvider(
        system=system,
        options=options,
        dims=tuple(int(d) for d in dims),
        tasks=tasks,
        xtasks=xtasks,
        term_data=term_data,
        r_list=r_list,
        backend_name=backend.name,
        ewald=ewald,
        scratch_rows=scratch_rows,
        bonded_stride=stride,
    )
    bonded_ids: dict[int, list[int]] = {}
    kspace_ids: list[int] = []
    for x, xt in enumerate(xtasks):
        t = len(tasks) + x
        if xt[0] == "kspace":
            kspace_ids.append(t)
        else:
            bonded_ids.setdefault(xt[1], []).append(t)
    return ForceTaskSpec(
        provider=provider,
        parents=parents,
        sub_cost_arr=sub_cost_arr,
        sub_parents=sub_parents,
        x_costs=x_costs,
        all_costs=all_costs,
        bonded_ids=bonded_ids,
        kspace_ids=kspace_ids,
    )
