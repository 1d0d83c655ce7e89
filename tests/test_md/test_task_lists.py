"""``build_task_lists`` against the per-candidate enumeration it replaced.

The force tasks build their lists from dense cell blocks
(``backend.block_pairs``); the oracle (``oracle.candidate_task_lists``)
materialises every candidate index pair with ``repeat``/``tile`` and
filters them through ``filter_candidates``.  The two must agree array for
array — same pairs, same order, same dtypes — on every backend, because the
list order is the kernel's accumulation order.  The evaluator builds them
in place in one arena it keeps for its life.
"""

import dataclasses

import numpy as np
import pytest

from repro.backend import available_backends
from repro.builder import mini_assembly, small_water_box
from repro.core.decomposition import bin_atoms
from repro.md.nonbonded import NonbondedOptions
from repro.md.tasks import build_force_tasks, build_task_lists
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


def assert_same_entries(built, oracle, tasks):
    n_lists = 0
    for t, want in oracle.items():
        if want is None:
            assert built[t] is None, tasks[t]
            continue
        assert len(built[t]) == len(want) == 7
        for got, exp in zip(built[t], want):
            assert got.dtype == exp.dtype and got.flags.c_contiguous, tasks[t]
            assert np.array_equal(got, exp), tasks[t]
        n_lists += 1
    return n_lists


def assert_identical(system, dims, n_parts, backend, buckets=None):
    system.wrap()
    if buckets is None:
        _, _, buckets = bin_atoms(system.positions, system.box, np.asarray(dims))
    tasks = cell_tasks(dims, n_parts)
    mine = list(range(len(tasks)))
    built = build_task_lists(system, tasks, mine, buckets, R_LIST, backend)
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
            assert built[t] is None


@pytest.mark.parametrize("n_parts", [1, 3])
def test_assembly_with_14_pairs(n_parts, backend):
    system = mini_assembly(seed=1)
    assert len(system.exclusions.pairs14) > 0
    n_lists, built = assert_identical(system, (2, 2, 2), n_parts, backend)
    assert n_lists > 0
    # no listed pair is excluded or 1-4: those belong to other passes
    excl = system.exclusions
    for entry in built.values():
        if entry is not None:
            assert not excl.is_excluded(entry[0], entry[1]).any()
            assert not excl.is_pair14(entry[0], entry[1]).any()


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
    evaluator.begin_step(system.box)
    yield evaluator
    evaluator.close()


def oracle_of(evaluator, mine):
    """The oracle's lists at the evaluator's reference positions."""
    p = evaluator.provider
    system = evaluator.system.copy()
    system.positions = evaluator.ref_positions.copy()
    _, _, buckets = bin_atoms(system.positions, system.box, np.asarray(p.dims))
    return candidate_task_lists(system, p.tasks, mine, buckets, p.r_list)


def test_entries_of_one_build_are_views_of_one_base_array(evaluator):
    tasks = evaluator.provider.tasks
    mine = list(range(0, len(tasks), 2))
    evaluator.rebuild(mine)
    base = evaluator.arena[0].base
    assert base is not None and base.ndim == 1
    entries = [e for e in evaluator.lists.values() if e is not None]
    assert len(entries) > 1
    assert all(arr.base is base for entry in entries for arr in entry)
    # concatenated in task order: each list starts where the last one ended
    ends = [(e[0].ctypes.data, e[0].nbytes) for e in entries]
    assert all(a + n == b for (a, n), (b, _) in zip(ends, ends[1:]))
    assert_same_entries(evaluator.lists, oracle_of(evaluator, mine), tasks)


def test_rebuilds_overwrite_the_arena_in_place(evaluator):
    tasks = evaluator.provider.tasks
    mine = list(range(0, len(tasks), 2))
    evaluator.rebuild(mine)
    arena = evaluator.arena
    before = [len(e[0]) for e in evaluator.lists.values()]
    # the atoms moved a little: other lists, the same memory
    evaluator.ref_positions += np.random.default_rng(1).normal(
        0.0, 0.3, size=evaluator.ref_positions.shape
    )
    evaluator.ref_positions[:] = wrap_positions(
        evaluator.ref_positions, evaluator.system.box
    )
    evaluator.rebuild(mine)
    assert evaluator.arena is arena
    assert before != [len(e[0]) for e in evaluator.lists.values()]
    assert_same_entries(evaluator.lists, oracle_of(evaluator, mine), tasks)


def test_remap_that_enlarges_the_task_set_regrows_from_a_count(evaluator):
    tasks = evaluator.provider.tasks
    evaluator.rebuild(list(range(0, len(tasks), 2)))
    small = len(evaluator.arena[0])
    everything = list(range(len(tasks)))
    evaluator.rebuild(everything)  # what an LB remap or a dead peer hands over
    listed = sum(len(e[0]) for e in evaluator.lists.values() if e is not None)
    grown = len(evaluator.arena[0])
    assert small < listed <= grown < 1.1 * listed + 64  # a count, not a doubling
    assert_same_entries(evaluator.lists, oracle_of(evaluator, everything), tasks)
    # shrinking back keeps the arena
    arena = evaluator.arena
    evaluator.rebuild(everything[:3])
    assert evaluator.arena is arena


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
    assert evaluator.lists == {} and evaluator.xentries == {}
    with pytest.raises(KeyError):  # loud, not a half-written list
        evaluator.eval_task(mine[0], np.zeros((10, 3)))
    evaluator.backend = good
    evaluator.rebuild(mine)
    assert_same_entries(evaluator.lists, oracle_of(evaluator, mine), tasks)


def test_close_drops_the_arena(evaluator):
    evaluator.rebuild([0, 1])
    assert evaluator.arena is not None
    evaluator.close()
    assert evaluator.arena is None and evaluator.lists == {}
