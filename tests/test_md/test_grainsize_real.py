"""Grainsize control on the real parallel engine (paper §4.2.1–2).

What makes sub-tasks safe to schedule: each parent task's candidate pair
set is *exactly* partitioned by its slices (the pair-set-match check in
the style of benchmarks/test_kernel_hotpath.py), and the WorkDB receives
sub-task identities with pro-rata priors.  The split engine's bits and its
agreement with the oracle are held in ``test_conformance.py``.
"""

import numpy as np
import pytest

from repro.builder import small_water_box
from repro.md.cells import bin_atoms
from repro.instrument import WorkDB
from repro.md.cells import CellGrid
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine, ParallelNonbonded
from repro.md.tasks import build_row_lists as _build_row_lists
from repro.md.tasks import scratch_rows_bound as _scratch_rows_bound
from repro.md.tasks import task_layout as _task_layout

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

OPTS = NonbondedOptions(cutoff=8.0)
SKIN = 1.5


@pytest.fixture(scope="module")
def binned(water600):
    """Wrapped copy of the box with its grid, buckets, and parent tasks."""
    system = water600.copy()
    system.wrap()
    r_list = OPTS.cutoff + SKIN
    grid = CellGrid.build(system.positions, system.box, r_list)
    ca, cb = grid.neighbor_cell_pair_arrays()
    parents = list(zip(ca.tolist(), cb.tolist()))
    _, _, buckets = bin_atoms(system.positions, system.box, grid.dims)
    return system, parents, buckets, r_list


def _pair_keys(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Order-independent pair identity (same harness as the hotpath bench)."""
    lo = np.minimum(i, j).astype(np.int64)
    hi = np.maximum(i, j).astype(np.int64)
    return np.sort(lo * n + hi)


def _keys_of(lists, n):
    """Sorted pair identities of every task of a batch of row lists."""
    keys = [
        _pair_keys(*lists.pairs(k)[:2], n) for k in range(len(lists.row_off) - 1)
    ]
    return np.sort(np.concatenate(keys))


class TestPairSetPartition:
    @pytest.mark.parametrize("n_parts", [2, 3, 5, 16])
    def test_subtask_pairs_exactly_partition_parent(self, binned, n_parts):
        system, parents, buckets, r_list = binned
        n = system.n_atoms
        for a, b in parents:
            parent = [(a, b, 0, 1)]
            parent_lists = _build_row_lists(system, parent, [0], buckets, r_list)
            parent_keys = _keys_of(parent_lists, n)

            subs = [(a, b, p, n_parts) for p in range(n_parts)]
            sub_lists = _build_row_lists(
                system, subs, list(range(n_parts)), buckets, r_list
            )
            sub_keys = _keys_of(sub_lists, n)
            assert np.array_equal(sub_keys, parent_keys), (
                f"task ({a},{b}) split {n_parts} ways lost or duplicated pairs"
            )

    def test_unsplit_tuple_reproduces_legacy_arrays(self, binned):
        # (a, b, 0, 1) must be byte-for-byte the pre-grainsize task: same
        # candidate order, same local scatter indices
        system, parents, buckets, r_list = binned
        for a, b in parents[:4]:
            lists = _build_row_lists(
                system, [(a, b, 0, 1)], [0], buckets, r_list
            )
            _, _, si, sj = lists.pairs(0)
            na = len(buckets[a])
            if a == b:
                ti, tj = np.triu_indices(na, k=1)
                keep = np.isin(
                    ti * na + tj, si * na + sj, assume_unique=False
                )
                assert np.array_equal(si, ti[keep])
                assert np.array_equal(sj, tj[keep])
            else:
                assert np.all(si < na)
                assert np.all(sj >= na)

    def test_layout_blocks_cover_kernel_rows(self, binned):
        # every block row a sub-task's list names must fall inside the
        # sub-task's block, and the block's gather rows must name the atoms
        # the kernel reads and writes: the list's own row map is the gather
        system, parents, buckets, r_list = binned
        for n_parts in (1, 3):
            tasks = [
                (a, b, p, n_parts) for a, b in parents for p in range(n_parts)
            ]
            offsets, gather = _task_layout(buckets, tasks)
            lists = _build_row_lists(
                system, tasks, list(range(len(tasks))), buckets, r_list
            )
            assert np.array_equal(lists.rows, gather)
            assert np.array_equal(lists.row_off, offsets)
            for t in range(len(tasks)):
                i_f, j_f, si, sj = lists.pairs(t)
                block_rows = gather[offsets[t] : offsets[t + 1]]
                size = len(block_rows)
                assert si.max(initial=-1) < size
                assert sj.max(initial=-1) < size
                # local row -> global atom mapping is consistent
                assert np.array_equal(block_rows[si], i_f)
                assert np.array_equal(block_rows[sj], j_f)

    def test_scratch_bound_covers_layout(self, binned):
        system, parents, buckets, _ = binned
        n_cells = max(max(a, b) for a, b in parents) + 1
        for n_parts in (1, 2, 4):
            tasks = [
                (a, b, p, n_parts) for a, b in parents for p in range(n_parts)
            ]
            offsets, _ = _task_layout(buckets, tasks)
            bound = _scratch_rows_bound(tasks, n_cells, system.n_atoms)
            assert int(offsets[-1]) <= bound


class TestSplitEngine:
    def test_split_enables_pool_on_single_cell_box(self):
        # a box with one task cell gets no pool (nothing to distribute);
        # splitting turns the lone self task into schedulable slices
        s = small_water_box(200, seed=7, relax=False)
        with ParallelEngine(s, options=OPTS, workers=3, grainsize_ms=1.0) as eng:
            assert eng.parallel
            assert eng._nb.n_parent_tasks == 1 < eng._nb.n_subtasks

    def test_grainsize_validation(self, water600):
        with pytest.raises(ValueError, match="grainsize_ms"):
            ParallelNonbonded(water600.copy(), OPTS, n_workers=2, grainsize_ms=-1.0)


class TestWorkDBHandoff:
    def test_subtask_priors_pro_rata(self, water600):
        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, grainsize_ms=1.0
        )
        try:
            assert nb.active
            db = nb.workdb
            # the cell sub-tasks come first; the bonded groups follow them
            cells = [db.tasks[t] for t in range(nb.n_subtasks)]
            rest = [rec.kind for t, rec in db.tasks.items() if t >= nb.n_subtasks]
            assert set(rest) == {"bonded"}
            by_parent: dict[int, list] = {}
            for rec in cells:
                assert rec.parent >= 0
                by_parent.setdefault(rec.parent, []).append(rec)
            assert len(by_parent) == nb.n_parent_tasks
            split_seen = False
            for recs in by_parent.values():
                n_parts = recs[0].n_parts
                assert all(r.n_parts == n_parts for r in recs)
                assert sorted(r.part for r in recs) == list(range(n_parts))
                if n_parts > 1:
                    split_seen = True
                    total = sum(r.prior for r in recs)
                    # slices inherit the parent's prior pro-rata: the sum is
                    # conserved and every slice gets a positive share
                    assert total > 0
                    assert all(r.prior >= 0 for r in recs)
                    assert max(r.prior for r in recs) <= total
            assert split_seen, "grainsize_ms=1.0 split nothing on this box"
        finally:
            nb.close()

    def test_measurements_accumulate_per_subtask(self, water600):
        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, grainsize_ms=1.0
        )
        try:
            assert nb.active
            nb.compute()
            nb.compute()
            measured = [r for r in nb.workdb.tasks.values() if r.n_samples > 0]
            assert len(measured) == len(nb.workdb.tasks) > nb.n_subtasks
            assert all(r.n_samples == 2 for r in measured)
        finally:
            nb.close()

    def test_serialization_round_trip_keeps_subtask_identity(self):
        db = WorkDB()
        db.ensure_task(0, (0,), prior=2.0, owner=0, parent=0, part=0, n_parts=2)
        db.ensure_task(1, (0,), prior=1.0, owner=1, parent=0, part=1, n_parts=2)
        db.record(0, 0.5)
        clone = WorkDB.from_dict(db.to_dict())
        assert clone.tasks[0].parent == 0
        assert clone.tasks[0].n_parts == 2
        assert clone.tasks[1].part == 1
        # pre-grainsize dumps (no parent/part keys) still load
        legacy = db.to_dict()
        for t in legacy["tasks"]:
            del t["parent"], t["part"], t["n_parts"]
        old = WorkDB.from_dict(legacy)
        assert old.tasks[0].parent == -1
        assert old.tasks[0].n_parts == 1


class TestAnalysisBridge:
    def test_histogram_from_workdb(self, water600):
        from repro.analysis import histogram_from_workdb

        nb = ParallelNonbonded(
            water600.copy(), OPTS, n_workers=2, grainsize_ms=1.0
        )
        try:
            assert nb.active
            for _ in range(3):
                nb.compute()
            hist = histogram_from_workdb(nb.workdb, bin_ms=0.5)
            n_tasks = len(nb.workdb.tasks)  # cell sub-tasks and bonded groups
            assert hist.total_tasks == n_tasks
            assert float(hist.counts.sum()) == pytest.approx(n_tasks)
            assert hist.max_grainsize_ms > 0
        finally:
            nb.close()
