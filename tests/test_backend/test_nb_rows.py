"""``nb_rows``, the cell tasks' pair kernel: a batch of row lists evaluated
by one call.

A task's result is defined by ``nb_pairs`` over the pair arrays its rows
stand for, so on each backend the two must agree *bit for bit* — forces,
energies, counts — and the ``c`` kernel is held to the numpy reference at
1e-9 like every other.  Every index is checked before it is followed: a
corrupt list, planted in the last task of a batch, raises and writes nothing
outside the batch's blocks.
"""

import threading

import numpy as np
import pytest

from repro.backend import available_backends, get_backend
from repro.backend.ewald_table import ewald_table
from repro.builder import small_water_box
from repro.core.decomposition import bin_atoms
from repro.md.nonbonded import _combined_params, pair_type_tables
from repro.md.tasks import RowLists, build_row_lists
from tests.test_backend.test_c_kernels import CHUNK
from tests.test_backend.test_pair_kernel import CUTOFF, MODE_IDS, MODES, SWITCH

NUMPY = get_backend("numpy")
BACKENDS = [NUMPY] + ([get_backend("c")] if "c" in available_backends() else [])
needs_c = pytest.mark.skipif(len(BACKENDS) < 2, reason="no C compiler on this host")
RTOL = 1e-9
#: beyond the longest reach of MODES, so every term meets pairs out of range
R_LIST = 8.5
#: sentinel rows of scratch before, between and after the batch's blocks
PAD = 3


@pytest.fixture(params=BACKENDS, ids=lambda b: b.name)
def backend(request):
    return request.param


@pytest.fixture(scope="module")
def water():
    system = small_water_box(216, seed=2, relax=False)
    system.wrap()
    return system


def tables_of(system):
    return (system.type_indices, system.charges, *pair_type_tables(system))


def cell_lists(system, dims, n_parts=1, keep=None):
    """The row lists of every self task and ``a < b`` pair task of a ``dims``
    grid (or of the tasks ``keep`` picks), ``n_parts`` stripes each."""
    _, _, buckets = bin_atoms(system.positions, system.box, np.asarray(dims))
    n_cells = len(buckets)
    tasks = [
        (a, b, part, n_parts)
        for a in range(n_cells) for b in range(a, n_cells) for part in range(n_parts)
    ]
    if keep is not None:
        tasks = [task for task in tasks if keep(task)]
    return build_row_lists(system, tasks, range(len(tasks)), buckets, R_LIST, NUMPY)


def block_offsets(lists):
    """Blocks spaced ``PAD`` sentinel rows apart, and the scratch's length."""
    sizes = np.diff(lists.row_off)
    block_off = PAD + np.concatenate([[0], np.cumsum(sizes[:-1] + PAD)])
    return block_off.astype(np.int64), int(block_off[-1] + sizes[-1] + PAD)


def by_rows(backend, system, lists, mode, tables=None):
    """``(out, scratch)`` of one ``nb_rows`` call over ``lists``."""
    block_off, n_scratch = block_offsets(lists)
    scratch = np.full((n_scratch, 3), np.nan)
    out = np.full((len(block_off), 4), np.nan)
    backend.nb_rows(
        system.positions, system.box, tables or tables_of(system), lists,
        CUTOFF, SWITCH, scratch, block_off, out, *mode,
    )
    return out, scratch


def by_pairs(backend, system, lists, mode):
    """The same through ``nb_pairs``: per task the pair arrays its rows stand
    for, scattered into a zeroed block.  ``out`` has no time column."""
    block_off, n_scratch = block_offsets(lists)
    scratch = np.full((n_scratch, 3), np.nan)
    out = np.zeros((len(block_off), 3))
    for k, at in enumerate(block_off):
        i, j, si, sj = lists.pairs(k)
        block = scratch[at : at + lists.row_off[k + 1] - lists.row_off[k]]
        block[...] = 0.0
        out[k] = backend.nb_pairs(
            system.positions, system.box, i, j, *_combined_params(system, i, j),
            CUTOFF, SWITCH, block, si, sj, *mode,
        )
    return out, scratch


def assert_rows_are_pairs(system, lists, mode):
    """On every backend ``nb_rows`` == ``nb_pairs`` over the expansion, array
    for array; ``c`` within ``RTOL`` of numpy.  Returns numpy's ``out``."""
    results = []
    for backend in BACKENDS:
        out, scratch = by_rows(backend, system, lists, mode)
        want, want_scratch = by_pairs(backend, system, lists, mode)
        assert np.array_equal(out[:, :3], want)
        assert np.array_equal(scratch, want_scratch, equal_nan=True)
        assert np.all(out[:, 3] >= 0)  # a time for every task
        results.append((out, scratch))
    (ref_out, ref_f), (out, f) = results[0], results[-1]
    assert np.array_equal(out[:, 2], ref_out[:, 2])
    assert np.allclose(out[:, :2], ref_out[:, :2], rtol=RTOL, atol=1e-12)
    live = np.isfinite(ref_f)
    assert np.array_equal(live, np.isfinite(f))
    scale = max(np.abs(ref_f[live]).max(initial=0.0), 1.0)
    assert np.abs(f[live] - ref_f[live]).max(initial=0.0) <= RTOL * scale
    return ref_out


def manual_lists(system, row_lengths, seed=0):
    """One task whose block is ``len(row_lengths)`` atoms of ``system`` and
    whose row ``r`` lists ``row_lengths[r]`` random other rows, ascending."""
    rng = np.random.default_rng(seed)
    n_rows = len(row_lengths)
    rows = np.sort(rng.choice(system.n_atoms, n_rows, replace=False))
    cols = [
        np.sort(rng.choice(np.delete(np.arange(n_rows), r), n, replace=False))
        for r, n in enumerate(row_lengths)
    ]
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(row_lengths, out=row_ptr[1:])
    return RowLists(
        np.concatenate(cols).astype(np.int32), row_ptr, rows.astype(np.int64),
        np.array([0, n_rows], dtype=np.int64),
    )


#: row lengths of a one-task list that put chunk edges inside rows and on
#: row ends
CHUNK_EDGES = [
    [CHUNK - 3, 10, 0, 7],  # the chunk edge falls inside row 1
    [CHUNK, 5, 5],  # ... exactly on a row end
    [5, CHUNK - 5, 0, 0, CHUNK, 1],  # ... on two, empty rows between
    [2 * CHUNK + 17, 3],  # a row longer than two chunks
    [CHUNK - 1], [CHUNK], [CHUNK + 1],
]


def chunk_edge_lists(system, row_lengths):
    n_rows = max(row_lengths) + 1
    return manual_lists(system, row_lengths + [0] * (n_rows - len(row_lengths)))


def non_cubic_water():
    system = small_water_box(216, seed=3, relax=False)
    system.box = system.box * np.array([1.0, 1.25, 1.6])
    system.positions = system.positions * np.array([1.0, 1.25, 1.6])
    system.wrap()
    return system


def moved_by_whole_boxes(system):
    """``system`` with each coordinate moved by -3 .. 3 box lengths."""
    moved = system.copy()
    rng = np.random.default_rng(8)
    moved.positions = system.positions + system.box * rng.integers(
        -3, 4, size=system.positions.shape
    )
    return moved


def close_pair(system):
    """A one-task list whose first pair is 0.71 A apart - closer than the
    Ewald table's first node (1 A) - and the system that puts it there."""
    lists = manual_lists(system, [3, 2, 0, 0, 1])
    close = system.copy()
    i, j = lists.rows[0], lists.rows[lists.cols[0]]
    close.positions[j] = close.positions[i] + np.array([0.5, 0.4, 0.3])
    return close, lists


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
class TestEqualsNbPairsOverTheExpansion:
    def test_water_self_and_pair_blocks(self, water, mode):
        """Pair blocks of a 2x2x2 grid straddle the periodic boundary (the
        select fold: pairs fold, the block is under 1.49 boxes wide); self
        blocks list columns that are rows flushed later."""
        lists = cell_lists(water, (2, 2, 2))
        extent = np.ptp(water.positions[lists.task(1).rows], axis=0)
        assert np.any(extent > 0.5 * water.box) and np.all(extent < 1.49 * water.box)
        out = assert_rows_are_pairs(water, lists, mode)
        assert len(out) == 36 and out[:, 2].min() > 0

    def test_stripes_of_self_and_pair_blocks(self, water, mode):
        whole = assert_rows_are_pairs(water, cell_lists(water, (2, 1, 1)), mode)
        parts = assert_rows_are_pairs(water, cell_lists(water, (2, 1, 1), 3), mode)
        # rows outside a stripe are empty ranges; the stripes partition the pairs
        assert np.array_equal(parts[:, 2].reshape(3, 3).sum(axis=1), whole[:, 2])

    def test_empty_task_and_task_with_every_row_empty(self, water, mode):
        order = np.arange(water.n_atoms, dtype=np.int64)
        buckets = [order[:0], order[:1], order[1:200], order[200:]]
        tasks = [(0, 0, 0, 1), (1, 1, 0, 1), (0, 2, 0, 1), (2, 3, 0, 1), (1, 3, 0, 1)]
        lists = build_row_lists(water, tasks, range(5), buckets, R_LIST, NUMPY)
        assert np.diff(lists.row_off).tolist() == [0, 1, 199, len(order) - 1, 449]
        out = assert_rows_are_pairs(water, lists, mode)
        assert not out[:3, :3].any() and out[3, 2] > 0

    def test_one_listed_pair(self, water, mode):
        lists = manual_lists(water, [0, 0, 1, 0])
        out = assert_rows_are_pairs(water, lists, mode)
        assert out.shape == (1, 4)

    @pytest.mark.parametrize(
        "row_lengths", CHUNK_EDGES, ids=lambda lengths: "-".join(map(str, lengths))
    )
    def test_chunk_edges_inside_a_row_and_on_a_row_end(self, water, mode, row_lengths):
        assert_rows_are_pairs(water, chunk_edge_lists(water, row_lengths), mode)

    def test_a_pair_below_the_first_table_node(self, water, mode):
        """Ewald mode evaluates it from the expressions, not the table."""
        out = assert_rows_are_pairs(*close_pair(water), mode)
        assert out[0, 2] > 0

    def test_unwrapped_coordinates_take_the_general_fold(self, mode):
        """Atoms moved by whole boxes, more than 1.5 box lengths apart on a
        non-cubic box: no task's bounding box allows the select form."""
        system = non_cubic_water()
        lists = cell_lists(system, (1, 2, 3))
        home = assert_rows_are_pairs(system, lists, mode)
        moved = moved_by_whole_boxes(system)
        for k in range(len(lists.row_off) - 1):
            extent = np.ptp(moved.positions[lists.task(k).rows], axis=0)
            assert np.any(extent > 1.5 * moved.box)
        away = assert_rows_are_pairs(moved, lists, mode)
        assert np.array_equal(away[:, 2], home[:, 2])
        assert np.allclose(away[:, :2], home[:, :2], rtol=1e-9, atol=1e-9)


def assert_default_body_agrees(default, system, lists, mode):
    """The default bodies' ``nb_rows`` and ``nb_pairs`` equal the loaded
    backend's, array for array."""
    loaded = BACKENDS[-1]
    for evaluate in (by_rows, by_pairs):
        out, scratch = evaluate(default, system, lists, mode)
        want, want_scratch = evaluate(loaded, system, lists, mode)
        assert np.array_equal(out[:, :3], want[:, :3])
        assert np.array_equal(scratch, want_scratch, equal_nan=True)


@needs_c
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
class TestDefaultBody:
    """The pair kernels' default bodies - what a CPU without AVX-512F runs,
    and on a host with it nothing else does - built alone (``default_body``
    in conftest.py) and held to the loaded object."""

    def test_water_self_and_pair_blocks(self, default_body, water, mode):
        lists = cell_lists(water, (2, 2, 2))
        assert_default_body_agrees(default_body, water, lists, mode)

    def test_grainsize_stripes(self, default_body, water, mode):
        lists = cell_lists(water, (2, 1, 1), 3)
        assert_default_body_agrees(default_body, water, lists, mode)

    @pytest.mark.parametrize(
        "row_lengths", CHUNK_EDGES, ids=lambda lengths: "-".join(map(str, lengths))
    )
    def test_chunk_edges_inside_a_row_and_on_a_row_end(
        self, default_body, water, mode, row_lengths
    ):
        lists = chunk_edge_lists(water, row_lengths)
        assert_default_body_agrees(default_body, water, lists, mode)

    def test_the_general_fold(self, default_body, mode):
        system = non_cubic_water()
        lists = cell_lists(system, (1, 2, 3))
        assert_default_body_agrees(
            default_body, moved_by_whole_boxes(system), lists, mode
        )

    def test_a_pair_below_the_first_table_node(self, default_body, water, mode):
        assert_default_body_agrees(default_body, *close_pair(water), mode)


@pytest.mark.parametrize("task", [0, 2])
@pytest.mark.parametrize("column", [2**32 + 1, -(2**32) + 1])
def test_a_column_int32_cannot_hold_is_refused_not_wrapped(water, backend, task, column):
    """As int32, 2**32 + 1 and -2**32 + 1 are both block row 1: a kernel that
    narrowed the array would evaluate a pair the list does not name."""
    lists = cell_lists(water, (3, 1, 1), keep=lambda task: task[0] == task[1])
    start = lists.row_ptr[lists.row_off[task] + task]
    cols = lists.cols.astype(np.int64)
    cols[start + 4] = column
    block_off, n_scratch = block_offsets(lists)
    scratch, out = np.zeros((n_scratch, 3)), np.zeros((3, 4))
    with pytest.raises(IndexError, match=f"task {task} "):
        backend.nb_rows(
            water.positions, water.box, tables_of(water), lists._replace(cols=cols),
            CUTOFF, SWITCH, scratch, block_off, out,
        )
    # the same array with every column in range evaluates as its int32 copy
    wide = lists._replace(cols=lists.cols.astype(np.int64))
    assert np.array_equal(by_rows(backend, water, wide, ())[0][:, :3],
                          by_rows(backend, water, lists, ())[0][:, :3])


def corrupt(lists, tables, what, n_atoms):
    """``(lists, tables)`` with one bad index planted in the last task."""
    cols, row_ptr, rows, row_off = (a.copy() for a in lists)
    type_idx = tables[0].copy()
    last_rows = int(row_off[-1] - row_off[-2])
    last_ptr = row_ptr[len(row_ptr) - last_rows - 1 :]  # a view: edits land
    if what == "rows entry beyond pos":
        rows[-1] = n_atoms
    elif what == "negative rows entry":
        rows[-2] = -1
    elif what == "type outside the tables":
        type_idx[rows[-1]] = len(tables[2])
    elif what == "negative type":
        type_idx[rows[-1]] = -1
    elif what == "column beyond the block":
        cols[last_ptr[-1] - 1] = last_rows
    elif what == "negative column":
        cols[last_ptr[-1] - 1] = -1
    elif what == "row_ptr that decreases":
        middle = int(np.flatnonzero(np.diff(last_ptr) > 0)[0])
        last_ptr[middle] = last_ptr[middle + 1] + 1
    elif what == "row_ptr past cols":
        last_ptr[-1] = len(cols) + 5
    elif what == "negative row_ptr":
        last_ptr[0] = -4
    return RowLists(cols, row_ptr, rows, row_off), (type_idx, *tables[1:])


CORRUPTIONS = [
    "rows entry beyond pos", "negative rows entry", "type outside the tables",
    "negative type", "column beyond the block", "negative column",
    "row_ptr that decreases", "row_ptr past cols", "negative row_ptr",
]


@pytest.mark.parametrize("what", CORRUPTIONS)
def test_a_bad_index_in_the_last_task_raises_and_writes_nothing_outside_the_blocks(
    water, backend, what
):
    # three self tasks: no atom of the last one belongs to an earlier one
    lists = cell_lists(water, (3, 1, 1), keep=lambda task: task[0] == task[1])
    assert len(lists.row_off) == 4
    bad_lists, bad_tables = corrupt(lists, tables_of(water), what, water.n_atoms)
    block_off, n_scratch = block_offsets(lists)
    scratch = np.full((n_scratch, 3), np.nan)
    out = np.full((3, 4), np.nan)
    with pytest.raises(IndexError):
        backend.nb_rows(
            water.positions, water.box, bad_tables, bad_lists, CUTOFF, SWITCH,
            scratch, block_off, out,
        )
    owned = np.zeros(n_scratch, dtype=bool)
    for k, at in enumerate(block_off):
        owned[at : at + lists.row_off[k + 1] - lists.row_off[k]] = True
    assert np.isnan(scratch[~owned]).all()
    # and the good batch beside it evaluates
    assert np.isfinite(by_rows(backend, water, lists, ())[0]).all()


def test_a_block_that_leaves_scratch_is_an_index_error(water, backend):
    lists = cell_lists(water, (2, 1, 1))
    block_off, n_scratch = block_offsets(lists)
    out = np.zeros((len(block_off), 4))
    for bad_off in (n_scratch - 2, -1):
        block_off[-1] = bad_off
        with pytest.raises(IndexError):
            backend.nb_rows(
                water.positions, water.box, tables_of(water), lists, CUTOFF, SWITCH,
                np.zeros((n_scratch, 3)), block_off, out,
            )


@needs_c
def test_malformed_arguments_are_rejected_before_any_pointer_is_passed(water):
    c = BACKENDS[-1]
    lists = cell_lists(water, (2, 1, 1))
    tables = tables_of(water)
    block_off, n_scratch = block_offsets(lists)
    scratch, out = np.zeros((n_scratch, 3)), np.zeros((len(block_off), 4))

    def call(tables=tables, lists=lists, scratch=scratch, out=out):
        c.nb_rows(
            water.positions, water.box, tables, lists, CUTOFF, SWITCH, scratch,
            block_off, out,
        )

    call()
    with pytest.raises(ValueError, match="scratch"):
        call(scratch=scratch[::2])
    with pytest.raises(ValueError, match="scratch"):
        call(scratch=scratch.astype(np.float32))
    with pytest.raises(ValueError, match="out"):
        call(out=out[:-1])
    with pytest.raises(ValueError, match="match the batch"):
        call(lists=lists._replace(row_ptr=lists.row_ptr[:-1]))
    with pytest.raises(ValueError, match="match the batch"):
        call(lists=lists._replace(row_off=lists.row_off[:-1]))
    with pytest.raises(ValueError, match="per-atom"):
        call(tables=(tables[0][:-1], *tables[1:]))
    with pytest.raises(ValueError, match="n_types"):
        call(tables=(*tables[:3], tables[3][:-1]))


@needs_c
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_threads_on_disjoint_batches_reproduce_the_serial_bits(water, mode):
    """The kernel keeps no state between calls and its scratch is the
    caller's: ctypes drops the GIL, and the service steps several jobs'
    batches from threads.  In Ewald mode the four threads read one table —
    the backend's memo is emptied first, so they also race to build it."""
    c = BACKENDS[-1]
    batches = [
        cell_lists(water, (2, 2, 1), keep=lambda task, k=k: task[0] == k)
        for k in range(4)
    ]
    serial = [by_rows(c, water, lists, mode) for lists in batches]
    results = [None] * len(batches)
    ewald_table.cache_clear()

    def evaluate(k):
        for _ in range(20):
            results[k] = by_rows(c, water, batches[k], mode)

    threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for (out, scratch), (want, want_scratch) in zip(results, serial):
        assert np.array_equal(out[:, :3], want[:, :3])
        assert np.array_equal(scratch, want_scratch, equal_nan=True)
