"""``build_task_lists`` against the per-candidate enumeration it replaced.

The force tasks build their lists from dense cell blocks; the oracle
(``oracle.candidate_task_lists``) materialises every candidate index pair
with ``repeat``/``tile`` and filters them through ``filter_candidates``.
The two must agree array for array — same pairs, same order, same dtypes —
because the list order is the kernel's accumulation order.
"""

import numpy as np
import pytest

from repro.builder import mini_assembly, small_water_box
from repro.core.decomposition import bin_atoms
from repro.md.tasks import build_task_lists

from .oracle import candidate_task_lists

R_LIST = 7.5


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


def assert_identical(system, dims, n_parts, buckets=None):
    system.wrap()
    if buckets is None:
        _, _, buckets = bin_atoms(system.positions, system.box, np.asarray(dims))
    tasks = cell_tasks(dims, n_parts)
    mine = list(range(len(tasks)))
    built = build_task_lists(system, tasks, mine, buckets, R_LIST)
    oracle = candidate_task_lists(system, tasks, mine, buckets, R_LIST)
    n_lists = 0
    for t in mine:
        if oracle[t] is None:
            assert built[t] is None, tasks[t]
            continue
        assert len(built[t]) == len(oracle[t]) == 7
        for got, want in zip(built[t], oracle[t]):
            assert got.dtype == want.dtype and got.flags.c_contiguous, tasks[t]
            assert np.array_equal(got, want), tasks[t]
        n_lists += 1
    return n_lists, built


@pytest.mark.parametrize("n_parts", [1, 3])
def test_water_self_and_pair_tasks(n_parts):
    n_lists, _ = assert_identical(
        small_water_box(216, seed=2, relax=False), (2, 2, 2), n_parts
    )
    assert n_lists == 36 * n_parts


@pytest.mark.parametrize("n_parts", [1, 3])
def test_non_cubic_box(n_parts):
    system = small_water_box(216, seed=3, relax=False)
    system.box = system.box * np.array([1.0, 1.25, 1.6])
    system.positions = system.positions * np.array([1.0, 1.25, 1.6])
    n_lists, _ = assert_identical(system, (1, 2, 3), n_parts)
    assert n_lists > 0


@pytest.mark.parametrize("n_parts", [1, 3])
def test_empty_and_one_atom_cells(n_parts):
    system = small_water_box(64, seed=4, relax=False)
    system.wrap()
    order = np.arange(system.n_atoms, dtype=np.int64)
    # cell 0 empty, cell 1 a single atom, the rest split in two
    buckets = [order[:0], order[:1], order[1:90], order[90:]]
    _, built = assert_identical(system, (4, 1, 1), n_parts, buckets=buckets)
    tasks = cell_tasks((4, 1, 1), n_parts)
    for t, (a, b, _part, _n) in enumerate(tasks):
        if a == 0 or b == 0 or (a, b) == (1, 1):
            assert built[t] is None


@pytest.mark.parametrize("n_parts", [1, 3])
def test_assembly_with_14_pairs(n_parts):
    system = mini_assembly(seed=1)
    assert len(system.exclusions.pairs14) > 0
    n_lists, built = assert_identical(system, (2, 2, 2), n_parts)
    assert n_lists > 0
    # no listed pair is excluded or 1-4: those belong to other passes
    excl = system.exclusions
    for entry in built.values():
        if entry is not None:
            assert not excl.is_excluded(entry[0], entry[1]).any()
            assert not excl.is_pair14(entry[0], entry[1]).any()
