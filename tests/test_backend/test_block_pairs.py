"""``block_pairs``, the cell-block kernel behind the pair lists and the cost
prior: the ``c`` backend against the numpy reference array for array —
list order is the pair kernel's accumulation order, so the two must agree
exactly, dtypes included — and the count mode against the dense count it
replaced.  A list is a row list over the block's force rows: ``cols`` (the
partner's block row, int32) and ``row_ptr`` (each row's range in it).
"""

import shutil
import threading
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import available_backends, c_backend, get_backend
from repro.backend.reference import expand_rows
from repro.builder import mini_assembly, small_water_box
from repro.core.decomposition import bin_atoms
from repro.md.nonbonded import NonbondedOptions, count_interacting_pairs
from repro.md.tasks import build_force_tasks
from repro.util.pbc import minimum_image
from tests.test_md.test_ewald import rock_salt

NUMPY = get_backend("numpy")
BACKENDS = [NUMPY] + ([get_backend("c")] if "c" in available_backends() else [])
needs_c = pytest.mark.skipif(len(BACKENDS) < 2, reason="no C compiler on this host")

R = 7.5


def tables_of(system):
    return system.exclusions.atom_table()


def no_exclusions(system):
    return np.zeros(system.n_atoms + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)


def blocks_of(buckets, n_parts):
    """Every self block and every ``a < b`` pair block, ``n_parts`` stripes."""
    return [
        (buckets[a], None if a == b else buckets[b], part, n_parts)
        for a in range(len(buckets))
        for b in range(a, len(buckets))
        for part in range(n_parts)
    ]


def block_rows(block):
    """The block's force rows as atom indices: the cell's own for a self
    block, the stripe then cell b for a pair block."""
    atoms_a, atoms_b, part, n_parts = block
    if atoms_b is None:
        return atoms_a
    return np.concatenate([atoms_a[part::n_parts], atoms_b])


def arena(capacity, n_rows, fill=None):
    """``(cols, row_ptr)`` for a block of ``n_rows`` rows."""
    out = np.empty(capacity, dtype=np.int32), np.empty(n_rows + 1, dtype=np.int64)
    if fill is not None:
        for arr in out:
            arr[:] = fill
    return out


def listed(backend, system, block, r=R, tables=None, offset=2):
    """The block's list on ``backend``: ``cols`` trimmed to the count, and
    ``row_ptr`` rebased to it."""
    tables = tables_of(system) if tables is None else tables
    geometry = (system.positions, system.box, *block, r)
    out = arena(offset + backend.block_pairs(*geometry), len(block_rows(block)))
    n = backend.block_pairs(*geometry, tables, out, offset)
    assert n >= 0
    cols, row_ptr = out
    assert row_ptr[0] == offset and row_ptr[-1] == offset + n
    return cols[offset : offset + n], row_ptr - offset


def pairs_of(block, lists):
    """``(i, j)`` global atom indices of a block's listed pairs, in order."""
    rows = block_rows(block)
    si, sj = expand_rows(*lists)
    return rows[si], rows[sj]


def assert_same_lists(system, buckets, n_parts, r=R):
    """``c`` == numpy on every block; returns the pairs listed in total."""
    total = 0
    for block in blocks_of(buckets, n_parts):
        want = listed(NUMPY, system, block, r)
        for backend in BACKENDS[1:]:
            got = listed(backend, system, block, r)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
        assert [a.dtype for a in want] == [np.int32, np.int64]
        total += len(want[0])
    return total


def binned(system, dims):
    _, _, buckets = bin_atoms(system.positions, system.box, np.asarray(dims))
    return buckets


def dense_count(pos_a, pos_b, box, cutoff):
    """``count_interacting_pairs`` as it was before the kernel: dense
    ``(m, m, 3)`` minimum-image deltas."""
    if pos_b is None:
        m = len(pos_a)
        if m < 2:
            return 0
        delta = minimum_image(pos_a[np.newaxis] - pos_a[:, np.newaxis], box)
        r2 = np.einsum("ijk,ijk->ij", delta, delta)
        return int((np.count_nonzero(r2 < cutoff * cutoff) - m) // 2)
    if len(pos_a) == 0 or len(pos_b) == 0:
        return 0
    delta = minimum_image(pos_b[np.newaxis] - pos_a[:, np.newaxis], box)
    r2 = np.einsum("ijk,ijk->ij", delta, delta)
    return int(np.count_nonzero(r2 < cutoff * cutoff))


@pytest.fixture(scope="module")
def water():
    system = small_water_box(216, seed=2, relax=False)
    system.wrap()
    return system


@needs_c
@pytest.mark.parametrize("n_parts", [1, 3])
class TestListsMatchTheReference:
    def test_water_self_and_pair_blocks(self, water, n_parts):
        assert assert_same_lists(water, binned(water, (2, 2, 2)), n_parts) > 0

    def test_empty_and_one_atom_cells(self, water, n_parts):
        order = np.arange(water.n_atoms, dtype=np.int64)
        buckets = [order[:0], order[:1], order[1:90], order[90:]]
        assert assert_same_lists(water, buckets, n_parts) > 0

    def test_non_cubic_box(self, n_parts):
        system = small_water_box(216, seed=3, relax=False)
        system.box = system.box * np.array([1.0, 1.25, 1.6])
        system.positions = system.positions * np.array([1.0, 1.25, 1.6])
        system.wrap()
        assert assert_same_lists(system, binned(system, (1, 2, 3)), n_parts) > 0

    def test_one_cell_box_folds_every_image(self, n_parts):
        """A box barely two cutoffs wide, one cell: pairs reach each other
        through every face."""
        system = small_water_box(64, seed=5, relax=False)
        system.wrap()
        assert system.box.min() < 2.5 * 6.0
        buckets = [np.arange(system.n_atoms, dtype=np.int64)]
        assert assert_same_lists(system, buckets, n_parts, r=6.0) > 0

    def test_rock_salt_half_box_ties(self, n_parts):
        """Pairs at exactly half a box: round-half-to-even leaves them
        unfolded; either way r2 is the same, and so must the lists be."""
        system = rock_salt(ncell=2)
        pos = system.positions
        assert np.any(np.abs(pos[:, None] - pos[None]) == system.box / 2)
        buckets = binned(system, (2, 1, 1))
        # through the lattice's own distances: 2.82, 5.64 (the half box), ...
        for r in (3.0, 5.64, 5.64 + 1e-9, 6.0):
            assert assert_same_lists(system, buckets, n_parts, r=r) > 0

    def test_coordinates_outside_the_primary_cell(self, water, n_parts):
        """The fold is ``d - L rint(d / L)`` at any distance: atoms moved by
        whole boxes list exactly the pairs they listed at home."""
        buckets = binned(water, (2, 2, 1))
        moved = water.copy()
        rng = np.random.default_rng(8)
        moved.positions = water.positions + water.box * rng.integers(
            -3, 4, size=water.positions.shape
        )
        assert_same_lists(moved, buckets, n_parts)
        for block in blocks_of(buckets, n_parts)[:6]:
            home = listed(NUMPY, water, block)
            away = listed(BACKENDS[-1], moved, block)
            assert np.array_equal(home[0], away[0]) and np.array_equal(home[1], away[1])

    def test_assembly_with_14_pairs_and_rings(self, n_parts):
        system = mini_assembly(seed=1)
        system.wrap()
        excl = system.exclusions
        assert len(excl.pairs14) > 0
        total = assert_same_lists(system, binned(system, (2, 2, 2)), n_parts, r=6.0)
        assert total > 0
        for block in blocks_of(binned(system, (2, 2, 2)), n_parts)[:8]:
            i_g, j_g = pairs_of(block, listed(BACKENDS[-1], system, block, r=6.0))
            assert not excl.is_excluded(i_g, j_g).any()
            assert not excl.is_pair14(i_g, j_g).any()


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestCountMode:
    def test_equals_the_list_with_no_exclusions(self, water, backend):
        for n_parts in (1, 3):
            for block in blocks_of(binned(water, (2, 2, 1)), n_parts):
                n = backend.block_pairs(water.positions, water.box, *block, R)
                lists = listed(backend, water, block, tables=no_exclusions(water))
                assert n == len(lists[0])
                # and exclusions only ever remove
                assert len(listed(backend, water, block)[0]) <= n

    def test_equals_the_dense_count_it_replaced(self, water, backend):
        pos, box = water.positions, water.box
        buckets = binned(water, (2, 2, 2))
        for a in range(3):
            pa = pos[buckets[a]]
            assert count_interacting_pairs(pa, None, box, R, backend) == dense_count(
                pa, None, box, R
            )
            for b in range(a + 1, 4):
                pb = pos[buckets[b]]
                assert count_interacting_pairs(pa, pb, box, R, backend) == dense_count(
                    pa, pb, box, R
                )
        assert count_interacting_pairs(pos, None, box, R, backend) == dense_count(
            pos, None, box, R
        )

    def test_writes_nothing(self, water, backend):
        """Count mode takes no arena at all; list mode leaves the entries
        before ``offset`` alone."""
        block = blocks_of(binned(water, (2, 1, 1)), 1)[1]
        cols, row_ptr = arena(50_000, len(block_rows(block)), fill=7)
        n = backend.block_pairs(
            water.positions, water.box, *block, R, tables_of(water), (cols, row_ptr), 5
        )
        assert n > 0
        assert np.all(cols[:5] == 7) and np.all(cols[5 + n :] == 7)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
class TestEdges:
    @pytest.mark.parametrize("bad", [-1, 10**6])
    @pytest.mark.parametrize("slot", [0, 1], ids=["rows", "columns"])
    @pytest.mark.parametrize("mode", ["count", "list"])
    def test_index_out_of_range_is_an_error_not_a_wild_read(
        self, water, backend, bad, slot, mode
    ):
        buckets = binned(water, (2, 1, 1))
        block = [buckets[0].copy(), buckets[1].copy(), 0, 1]
        block[slot][3] = bad
        def extra(blk):
            if mode == "count":
                return ()
            return tables_of(water), arena(100_000, len(block_rows(blk))), 0

        with pytest.raises(IndexError):
            backend.block_pairs(water.positions, water.box, *block, R, *extra(block))
        own = (block[slot], None, 0, 1)  # the self block of the bad cell
        with pytest.raises(IndexError):
            backend.block_pairs(water.positions, water.box, *own, R, *extra(own))

    def test_an_arena_one_entry_short_does_not_fit(self, water, backend):
        block = blocks_of(binned(water, (2, 1, 1)), 1)[1]
        want = listed(backend, water, block, offset=0)
        n, n_rows = len(want[0]), len(block_rows(block))
        assert n > 10
        geometry = (water.positions, water.box, *block, R, tables_of(water))
        exact = arena(n + 4, n_rows)
        assert backend.block_pairs(*geometry, exact, 4) == n
        assert np.array_equal(exact[0][4:], want[0])
        assert np.array_equal(exact[1], want[1] + 4)
        # one short: a view into a longer allocation, a guard entry behind
        long = arena(n + 4, n_rows, fill=7)
        assert backend.block_pairs(*geometry, (long[0][: n + 3], long[1]), 4) == -1
        assert long[0][n + 3] == 7 and np.all(long[0][:4] == 7)
        # nothing to write, nothing to fit: every row an empty range
        empty = block[0][:0], block[1], 0, 1
        out = arena(0, len(block[1]), fill=7)
        assert backend.block_pairs(
            water.positions, water.box, *empty, R, tables_of(water), out, 0
        ) == 0
        assert np.all(out[1] == 0)

    def test_row_ptr_covers_every_block_row(self, water, backend):
        """Rows outside the stripe and cell b's rows are empty ranges; a
        stripe row's range holds columns beyond it (self) or cell b's block
        rows (pair), ascending."""
        buckets = binned(water, (2, 1, 1))
        for cell_b in (None, buckets[1]):
            block = (buckets[0], cell_b, 1, 3)
            cols, row_ptr = listed(backend, water, block, offset=0)
            na = len(buckets[0])
            ns = len(range(1, na, 3))
            assert len(row_ptr) == (na if cell_b is None else ns + len(cell_b)) + 1
            counts = np.diff(row_ptr)
            assert counts.min() >= 0 and counts.sum() == len(cols) > 0
            for r in np.flatnonzero(counts):
                mine = cols[row_ptr[r] : row_ptr[r + 1]]
                assert np.all(np.diff(mine) > 0)
                if cell_b is None:
                    assert r % 3 == 1 and mine.min() > r and mine.max() < na
                else:
                    assert r < ns and mine.min() >= ns and mine.max() < ns + len(cell_b)

    def test_stripes_partition_the_block(self, water, backend):
        buckets = binned(water, (2, 1, 1))
        for cell_b in (None, buckets[1]):
            def keys(block):
                i_g, j_g = pairs_of(block, listed(backend, water, block))
                return i_g * water.n_atoms + j_g

            whole = np.sort(keys((buckets[0], cell_b, 0, 1)))
            got = np.concatenate([keys((buckets[0], cell_b, p, 4)) for p in range(4)])
            assert np.array_equal(np.sort(got), whole)


@needs_c
def test_malformed_arguments_are_rejected_before_any_pointer_is_passed(water):
    c = BACKENDS[-1]
    block = blocks_of(binned(water, (2, 1, 1)), 1)[1]
    geometry = (water.positions, water.box, *block, R)
    tables = tables_of(water)
    cols, row_ptr = arena(50_000, len(block_rows(block)))
    frozen = cols.copy()
    frozen.setflags(write=False)
    for bad_out in (
        (cols.astype(np.int64), row_ptr),  # a dtype the kernel would misread
        (cols, row_ptr.astype(np.int32)),
        (cols[::2], row_ptr),  # strided
        (frozen, row_ptr),
    ):
        with pytest.raises(ValueError, match="C-contiguous"):
            c.block_pairs(*geometry, tables, bad_out, 0)
    for backend in BACKENDS:  # a row_ptr of the wrong length, on either
        with pytest.raises(ValueError, match="per block row"):
            backend.block_pairs(*geometry, tables, (cols, row_ptr[:-1]), 0)
    with pytest.raises(ValueError):
        c.block_pairs(*geometry, tables, (cols,), 0)
    with pytest.raises(ValueError, match="offset"):
        c.block_pairs(*geometry, tables, (cols, row_ptr), -1)
    with pytest.raises(ValueError, match="does not match"):
        c.block_pairs(*geometry, (tables[0][:-1], tables[1]), (cols, row_ptr), 0)
    with pytest.raises(ValueError, match="part"):
        c.block_pairs(water.positions, water.box, block[0], block[1], 3, 3, R)
    # a table row that points outside the partner array is an index error
    ptr = tables[0].copy()
    ptr[1:] += len(tables[1])
    own = (block[0], None, 0, 1)
    with pytest.raises(IndexError):
        c.block_pairs(
            *geometry[:2], *own, R, (ptr, tables[1]), arena(50_000, len(block[0])), 0
        )


@needs_c
def test_threads_on_disjoint_arenas_reproduce_the_serial_arrays(water):
    """The kernel keeps no state between calls and takes its scratch from
    the caller: ctypes drops the GIL, and the service rebuilds several
    jobs' lists from threads."""
    c = BACKENDS[-1]
    blocks = blocks_of(binned(water, (2, 2, 1)), 1)[:4]
    serial = [listed(c, water, block) for block in blocks]
    results = [None] * len(blocks)

    def build(k):
        for _ in range(20):
            results[k] = listed(c, water, blocks[k])

    threads = [threading.Thread(target=build, args=(k,)) for k in range(len(blocks))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for got, want in zip(results, serial):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_atom_table_is_both_directions_of_every_excluded_and_14_pair():
    system = mini_assembly(seed=1)
    excl = system.exclusions
    ptr, partners = excl.atom_table()
    assert ptr.dtype == partners.dtype == np.int64
    assert excl.atom_table()[0] is ptr  # cached
    owner = np.repeat(np.arange(system.n_atoms), np.diff(ptr))
    assert len(partners) == 2 * (excl.n_excluded + len(excl.pairs14))
    assert np.all(excl.is_excluded(owner, partners) | excl.is_pair14(owner, partners))
    for i in (0, 17, system.n_atoms - 1):
        row = partners[ptr[i] : ptr[i + 1]]
        assert np.all(np.diff(row) > 0)


# --------------------------------------------------------------------- #
# the default clone
# --------------------------------------------------------------------- #
#: what makes ``block_pairs`` a set of clones in kernels.c; a host that
#: resolves the AVX-512F clone never runs the default body, so the parity
#: build below takes the attribute out of the source text
CLONES = '__attribute__((target_clones("avx512f", "default")))'


@pytest.fixture(scope="module")
def default_body(tmp_path_factory):
    """``kernels.c`` built again, with ``FLAGS``, without the clones:
    ``block_pairs`` is then the default body alone."""
    source = resources.files("repro.backend").joinpath("kernels.c").read_text()
    assert source.count(CLONES) == 1
    path = tmp_path_factory.mktemp("default-clone") / "kernels.so"
    c_backend._compile(shutil.which("cc"), source.replace(CLONES, "").encode(), path)
    return c_backend._backend_of(c_backend._load(path))


def assert_default_clone_agrees(default, system, blocks, r, tables=None):
    """Counts and lists of the default body equal the loaded backend's,
    array for array; returns the pairs listed in total."""
    loaded = BACKENDS[-1]
    total = 0
    for block in blocks:
        geometry = (system.positions, system.box, *block, r)
        assert default.block_pairs(*geometry) == loaded.block_pairs(*geometry)
        want = listed(loaded, system, block, r, tables)
        got = listed(default, system, block, r, tables)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        total += len(want[0])
    return total


@needs_c
class TestDefaultClone:
    @pytest.mark.parametrize("waters", [729, 343, 216])
    def test_the_harness_boxes(self, default_body, waters):
        """The engine's own grid of each harness box at its list radius
        (8 A cutoff plus the 1.5 A skin), two stripes a block."""
        system = small_water_box(waters, seed=11, relax=False)
        system.wrap()
        spec = build_force_tasks(
            system, NonbondedOptions(cutoff=8.0), skin=1.5, n_workers=1
        )
        r_list = spec.provider.r_list
        buckets = binned(system, spec.provider.dims)
        assert assert_default_clone_agrees(
            default_body, system, blocks_of(buckets, 2), r_list
        ) > 0

    def test_rock_salt_half_box_ties(self, default_body):
        system = rock_salt(ncell=2)
        blocks = blocks_of(binned(system, (2, 1, 1)), 1)
        for r in (3.0, 5.64, 5.64 + 1e-9, 6.0):
            assert assert_default_clone_agrees(default_body, system, blocks, r) > 0

    def test_one_cell_box(self, default_body):
        system = small_water_box(64, seed=5, relax=False)
        system.wrap()
        blocks = [(np.arange(system.n_atoms, dtype=np.int64), None, p, 3) for p in range(3)]
        assert assert_default_clone_agrees(default_body, system, blocks, 6.0) > 0

    def test_non_cubic_box(self, default_body):
        system = small_water_box(216, seed=3, relax=False)
        system.box = system.box * np.array([1.0, 1.25, 1.6])
        system.positions = system.positions * np.array([1.0, 1.25, 1.6])
        system.wrap()
        blocks = blocks_of(binned(system, (1, 2, 3)), 2)
        assert assert_default_clone_agrees(default_body, system, blocks, R) > 0

    def test_coordinates_outside_the_primary_cell(self, default_body, water):
        moved = water.copy()
        rng = np.random.default_rng(8)
        moved.positions = water.positions + water.box * rng.integers(
            -3, 4, size=water.positions.shape
        )
        blocks = blocks_of(binned(water, (2, 2, 1)), 3)
        assert assert_default_clone_agrees(default_body, moved, blocks, R) > 0

    @given(
        seed=st.integers(0, 2**32 - 1),
        edges=st.tuples(*[st.floats(6.0, 30.0)] * 3),
        n_atoms=st.integers(0, 160),
        r=st.floats(0.5, 20.0),
        n_parts=st.integers(1, 4),
        spread=st.sampled_from([1.0, 3.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_boxes_cutoffs_and_stripes(
        self, default_body, seed, edges, n_atoms, r, n_parts, spread
    ):
        """Atoms anywhere within ``spread`` boxes of the origin, random
        exclusions, self and pair blocks of every stripe."""
        rng = np.random.default_rng(seed)
        box = np.asarray(edges)
        system = SimpleNamespace(
            positions=(rng.random((n_atoms, 3)) * 2 - 1) * spread * box, box=box
        )
        # a symmetric exclusion table: each atom's partners ascending
        pairs = rng.integers(0, max(n_atoms, 1), size=(2 * n_atoms, 2))
        pairs = np.unique(np.vstack([pairs, pairs[:, ::-1]]), axis=0)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        ptr = np.zeros(n_atoms + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs[:, 0], minlength=n_atoms), out=ptr[1:])
        tables = ptr, pairs[:, 1].astype(np.int64)
        order = rng.permutation(n_atoms).astype(np.int64)
        cut = rng.integers(0, n_atoms + 1)
        cells = [order[:cut], order[cut:]]
        blocks = [
            (cells[a], None if a == b else cells[b], part, n_parts)
            for a, b in ((0, 0), (0, 1), (1, 1))
            for part in range(n_parts)
        ]
        assert_default_clone_agrees(default_body, system, blocks, r, tables)
