"""``build_row_lists`` against the per-candidate enumeration it replaced.

The force tasks build their lists from dense cell blocks
(``backend.block_pairs``) as row lists over each task's force block; the
oracle (``oracle.candidate_task_lists``) materialises every candidate index
pair with ``repeat``/``tile`` and filters them through
``filter_candidates``.  The two must agree array for array — same pairs,
same order, same dtypes — on every backend, because the list order is the
kernel's accumulation order.  The evaluator builds them in place in one
arena it keeps for its life.
"""

import dataclasses

import numpy as np
import pytest

from repro.backend import available_backends
from repro.backend.reference import expand_rows
from repro.builder import mini_assembly, small_water_box
from repro.md.cells import bin_atoms
from repro.md.nonbonded import NonbondedOptions
from repro.md.tasks import (
    RowLists,
    build_force_tasks,
    build_row_lists,
    estimate_task_pairs,
)
from repro.util.pbc import wrap_positions

from .oracle import candidate_task_lists

R_LIST = 7.5


@pytest.fixture(params=available_backends())
def backend(request):
    return request.param


def cell_tasks(dims, n_parts):
    """Every self task and every ``a < b`` pair task of a ``dims`` grid,
    each split ``n_parts`` ways (more pairs than the half shell — the list
    build does not care which cells are neighbours)."""
    n_cells = int(np.prod(dims))
    return [
        (a, b, part, n_parts)
        for a in range(n_cells)
        for b in range(a, n_cells)
        for part in range(n_parts)
    ]


def task_list(built: RowLists, k):
    """Task ``k`` of a batch as the oracle states it: ``(cols, row_ptr,
    rows)`` with the ranges counted from the task's first pair."""
    lo, hi = built.row_off[k], built.row_off[k + 1]
    ptr = built.row_ptr[lo + k : hi + k + 1]
    return built.cols[ptr[0] : ptr[-1]], ptr - ptr[0], built.rows[lo:hi]


def assert_same_entries(built, oracle, tasks):
    """``built`` (the batch of the oracle's tasks, in order) is the oracle's
    lists array for array; returns how many of them list anything."""
    assert isinstance(built, RowLists)
    assert len(built.row_off) == len(oracle) + 1
    assert len(built.row_ptr) == len(built.rows) + len(oracle)
    n_lists = used = 0
    for k, (t, want) in enumerate(oracle.items()):
        got = task_list(built, k)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w), tasks[t]
        # concatenated in task order: each list starts where the last ended
        assert built.row_ptr[built.row_off[k] + k] == used
        used += len(want[0])
        n_lists += len(want[0]) > 0
    assert [a.dtype for a in built] == [np.int32, np.int64, np.int64, np.int64]
    assert all(a.flags.c_contiguous for a in built)
    return n_lists


def assert_identical(system, dims, n_parts, backend, buckets=None):
    system.wrap()
    if buckets is None:
        _, _, buckets = bin_atoms(system.positions, system.box, np.asarray(dims))
    tasks = cell_tasks(dims, n_parts)
    mine = list(range(len(tasks)))
    built = build_row_lists(system, tasks, mine, buckets, R_LIST, backend)
    oracle = candidate_task_lists(system, tasks, mine, buckets, R_LIST)
    return assert_same_entries(built, oracle, tasks), built


@pytest.mark.parametrize("n_parts", [1, 3])
def test_water_self_and_pair_tasks(n_parts, backend):
    n_lists, _ = assert_identical(
        small_water_box(216, seed=2, relax=False), (2, 2, 2), n_parts, backend
    )
    assert n_lists == 36 * n_parts


@pytest.mark.parametrize("n_parts", [1, 3])
def test_non_cubic_box(n_parts, backend):
    system = small_water_box(216, seed=3, relax=False)
    system.box = system.box * np.array([1.0, 1.25, 1.6])
    system.positions = system.positions * np.array([1.0, 1.25, 1.6])
    n_lists, _ = assert_identical(system, (1, 2, 3), n_parts, backend)
    assert n_lists > 0


@pytest.mark.parametrize("n_parts", [1, 3])
def test_empty_and_one_atom_cells(n_parts, backend):
    system = small_water_box(64, seed=4, relax=False)
    system.wrap()
    order = np.arange(system.n_atoms, dtype=np.int64)
    # cell 0 empty, cell 1 a single atom, the rest split in two
    buckets = [order[:0], order[:1], order[1:90], order[90:]]
    _, built = assert_identical(system, (4, 1, 1), n_parts, backend, buckets=buckets)
    tasks = cell_tasks((4, 1, 1), n_parts)
    for t, (a, b, _part, _n) in enumerate(tasks):
        if a == 0 or b == 0 or (a, b) == (1, 1):
            assert len(task_list(built, t)[0]) == 0


@pytest.mark.parametrize("n_parts", [1, 3])
def test_assembly_with_14_pairs(n_parts, backend):
    system = mini_assembly(seed=1)
    assert len(system.exclusions.pairs14) > 0
    n_lists, built = assert_identical(system, (2, 2, 2), n_parts, backend)
    assert n_lists > 0
    # no listed pair is excluded or 1-4: those belong to other passes
    excl = system.exclusions
    for k in range(len(built.row_off) - 1):
        cols, row_ptr, rows = task_list(built, k)
        si, sj = expand_rows(cols, row_ptr)
        assert not excl.is_excluded(rows[si], rows[sj]).any()
        assert not excl.is_pair14(rows[si], rows[sj]).any()


def test_a_listed_pair_costs_four_bytes_and_a_block_row_sixteen(backend):
    system = small_water_box(216, seed=2, relax=False)
    _, built = assert_identical(system, (2, 2, 2), 1, backend)
    n_pairs, n_rows, n_tasks = built.row_ptr[-1], len(built.rows), 36
    assert n_pairs > 10 * n_rows
    assert built.cols[:n_pairs].nbytes == 4 * n_pairs
    assert built.row_ptr.nbytes + built.rows.nbytes == 16 * n_rows + 8 * n_tasks
    assert built.row_off.nbytes == 8 * (n_tasks + 1)


# --------------------------------------------------------------------- #
# the evaluator's arena
# --------------------------------------------------------------------- #
@pytest.fixture
def evaluator(backend):
    """An evaluator of a 2x2x2 water grid outside any pool, its position
    segments plain arrays holding the wrapped coordinates."""
    system = small_water_box(216, seed=2, relax=False)
    spec = build_force_tasks(
        system, NonbondedOptions(cutoff=6.0), skin=1.5, n_workers=2, backend=backend
    )
    wrapped = wrap_positions(system.positions, system.box)
    evaluator = spec.provider.make_evaluator(
        0, 2, {"pos": wrapped.copy(), "ref": wrapped.copy()}
    )
    evaluator.begin_step((system.box, 1))  # the step payload: (box, PME weight)
    yield evaluator
    evaluator.close()


def oracle_of(evaluator, mine):
    """The oracle's lists at the evaluator's reference positions."""
    p = evaluator.provider
    system = evaluator.system.copy()
    system.positions = evaluator.ref_positions.copy()
    _, _, buckets = bin_atoms(system.positions, system.box, np.asarray(p.dims))
    return candidate_task_lists(system, p.tasks, mine, buckets, p.r_list)


def test_lists_of_one_build_lie_in_the_arena_in_task_order(evaluator):
    tasks = evaluator.provider.tasks
    mine = list(range(0, len(tasks), 2))
    offsets = evaluator.rebuild(mine)
    assert evaluator.lists.cols is evaluator.arena
    assert evaluator.arena.dtype == np.int32 and evaluator.arena.ndim == 1
    assert evaluator.cell_tasks.tolist() == mine
    assert np.array_equal(evaluator.block_off, offsets[mine])
    # a task's block rows are the rows the driver gathers for it
    _, gather = evaluator.provider.layout(
        evaluator.ref_positions, evaluator.system.box
    )
    for k, t in enumerate(mine):
        rows = task_list(evaluator.lists, k)[2]
        assert np.array_equal(rows, gather[offsets[t] : offsets[t + 1]])
    assert assert_same_entries(evaluator.lists, oracle_of(evaluator, mine), tasks) > 1


def listed_per_task(evaluator):
    lists = evaluator.lists
    return [len(task_list(lists, k)[0]) for k in range(len(evaluator.cell_tasks))]


def test_rebuilds_overwrite_the_arena_in_place(evaluator):
    tasks = evaluator.provider.tasks
    mine = list(range(0, len(tasks), 2))
    evaluator.rebuild(mine)
    arena = evaluator.arena
    before = listed_per_task(evaluator)
    # the atoms moved a little: other lists, the same memory
    evaluator.ref_positions += np.random.default_rng(1).normal(
        0.0, 0.3, size=evaluator.ref_positions.shape
    )
    evaluator.ref_positions[:] = wrap_positions(
        evaluator.ref_positions, evaluator.system.box
    )
    evaluator.rebuild(mine)
    assert evaluator.arena is arena
    assert before != listed_per_task(evaluator)
    assert_same_entries(evaluator.lists, oracle_of(evaluator, mine), tasks)


def test_remap_that_enlarges_the_task_set_regrows_from_a_count(evaluator):
    tasks = evaluator.provider.tasks
    evaluator.rebuild(list(range(0, len(tasks), 2)))
    small = len(evaluator.arena)
    everything = list(range(len(tasks)))
    evaluator.rebuild(everything)  # what an LB remap or a dead peer hands over
    listed = sum(listed_per_task(evaluator))
    grown = len(evaluator.arena)
    assert small < listed <= grown < 1.1 * listed + 64  # a count, not a doubling
    assert_same_entries(evaluator.lists, oracle_of(evaluator, everything), tasks)
    # shrinking back keeps the arena
    arena = evaluator.arena
    evaluator.rebuild(everything[:3])
    assert evaluator.arena is arena


def spy(monkeypatch, name):
    """Calls of ``repro.md.tasks.<name>`` from here on, as a list."""
    import repro.md.tasks as tasks_module

    calls = []
    real = getattr(tasks_module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tasks_module, name, counted)
    return calls


def test_the_first_build_of_a_liquid_counts_nothing(evaluator, monkeypatch):
    counts = spy(monkeypatch, "count_task_pairs")
    mine = list(range(len(evaluator.provider.tasks)))
    evaluator.rebuild(mine)
    assert counts == []
    assert_same_entries(evaluator.lists, oracle_of(evaluator, mine), evaluator.provider.tasks)


def test_an_estimate_that_falls_short_regrows_once_from_a_count(backend, monkeypatch):
    """A dense cluster in a box twice its size: the uniform-liquid estimate
    is short, the first build does not fit and falls back to one count;
    the lists are those of a counted build, and rebuilds after a little
    motion fit the counted arena."""
    system = small_water_box(216, seed=2, relax=False)
    system.positions = wrap_positions(system.positions, system.box)
    system.box = 2 * system.box
    spec = build_force_tasks(
        system, NonbondedOptions(cutoff=6.0), skin=1.5, n_workers=1, backend=backend
    )
    p = spec.provider
    ref = system.positions.copy()
    evaluator = p.make_evaluator(0, 1, {"pos": ref.copy(), "ref": ref})
    evaluator.begin_step((system.box, 1))
    mine = list(range(len(p.tasks)))
    _, _, buckets = bin_atoms(ref, system.box, np.asarray(p.dims))
    estimate = estimate_task_pairs(system, p.tasks, mine, buckets, p.r_list, p.dims)
    counted = build_row_lists(system, p.tasks, mine, buckets, p.r_list, backend)
    n_counted = len(counted.cols)  # a one-shot build's arena: the count
    assert 1.5 * estimate + 64 < n_counted  # short even with the margin

    counts = spy(monkeypatch, "count_task_pairs")
    builds = spy(monkeypatch, "build_row_lists")
    evaluator.rebuild(mine)
    assert (len(counts), len(builds)) == (1, 2)  # did not fit, counted, built
    arena = evaluator.arena
    assert len(arena) == n_counted + n_counted // 32 + 64
    lists = evaluator.lists
    used = int(counted.row_ptr[-1])
    assert np.array_equal(lists.cols[:used], counted.cols[:used])
    for got, want in zip(lists[1:], counted[1:]):
        assert np.array_equal(got, want)

    ref += np.random.default_rng(3).normal(0.0, 0.2, size=ref.shape)
    ref[:] = wrap_positions(ref, system.box)
    evaluator.rebuild(mine)
    assert (len(counts), len(builds)) == (1, 3) and evaluator.arena is arena
    assert_same_entries(evaluator.lists, oracle_of(evaluator, mine), p.tasks)
    evaluator.close()


def test_a_rebuild_that_raises_leaves_no_lists(evaluator):
    tasks = evaluator.provider.tasks
    mine = list(range(len(tasks)))
    evaluator.rebuild(mine)
    good = evaluator.backend
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 3:
            raise MemoryError("mid-build")
        return good.block_pairs(*args, **kwargs)

    evaluator.backend = dataclasses.replace(good, block_pairs=failing)
    with pytest.raises(MemoryError):
        evaluator.rebuild(mine)
    assert evaluator.lists is None and evaluator.xentries == {}
    with pytest.raises(KeyError):  # loud, not a half-written list
        evaluator.eval_task(mine[0], np.zeros((10, 3)))
    with pytest.raises(RuntimeError, match="rebuild"):
        evaluator.eval_batch(np.zeros((10, 3)))
    evaluator.backend = good
    evaluator.rebuild(mine)
    assert_same_entries(evaluator.lists, oracle_of(evaluator, mine), tasks)


def test_eval_task_of_a_cell_task_is_its_row_of_the_batch(evaluator):
    """One kernel either way: a task evaluated alone writes the block and
    returns the energies and count the batch gives it."""
    mine = list(range(0, len(evaluator.provider.tasks), 3))
    offsets = evaluator.rebuild(mine)
    scratch = np.full((int(offsets[-1]), 3), np.nan)
    tasks, rows = evaluator.eval_batch(scratch)
    assert tasks.tolist() == mine and rows.shape == (len(mine), 4)
    assert np.all(rows[:, 3] > 0)  # the kernel's own clock, per task
    for k, t in enumerate(mine):
        block = np.full((int(offsets[t + 1] - offsets[t]), 3), np.nan)
        e_lj, e_el, n_pairs = evaluator.eval_task(t, block)
        assert (e_lj, e_el, n_pairs) == tuple(rows[k, :3])
        assert np.array_equal(block, scratch[offsets[t] : offsets[t + 1]])
    # nothing outside the batch's blocks was touched
    owned = np.zeros(len(scratch), dtype=bool)
    for t in mine:
        owned[offsets[t] : offsets[t + 1]] = True
    assert np.isnan(scratch[~owned]).all() and np.isfinite(scratch[owned]).all()


def test_slowdown_window_multiplies_the_kernels_own_task_times_exactly(evaluator):
    """``slow=0@2-4x3``: inside the window worker 0's recorded cell-task
    times are 3 times the deltas the kernel clocked itself, to the bit;
    outside it they are those deltas."""
    from repro.pool.protocol import STAT_COLS, STAT_TIME_NS
    from repro.pool.runtime import StepState, run_step
    from repro.util.faults import FaultPlan

    provider = evaluator.provider
    plan = FaultPlan.parse("slow=0@2-4x3")
    state = StepState(0, np.zeros(provider.n_tasks, dtype=np.int64), plan)
    scratch = np.zeros(provider.scratch_shape())
    stats = np.zeros((provider.n_tasks, STAT_COLS))
    own = []
    batch = evaluator.eval_batch

    def recording(scratch):
        tasks, rows = batch(scratch)
        own.append(rows[:, STAT_TIME_NS].copy())
        return tasks, rows

    evaluator.eval_batch = recording
    for seq in (1, 2, 3, 4):
        payload = (evaluator.system.box, 1)
        run_step(evaluator, state, scratch, stats, seq, seq == 1, payload)
        factor = 3.0 if 2 <= seq < 4 else 1.0
        assert np.all(own[-1] > 0)
        cells = stats[: evaluator.n_nb, STAT_TIME_NS]  # the bonded groups follow
        assert np.array_equal(cells, own[-1] * factor)


def test_close_drops_the_arena(evaluator):
    evaluator.rebuild([0, 1])
    assert evaluator.arena is not None
    evaluator.close()
    assert evaluator.arena is None and evaluator.lists is None
