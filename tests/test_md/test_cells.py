"""Cell grid and candidate pair coverage (must find every in-cutoff pair)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.cells import (
    HALF_SHELL_OFFSETS,
    CellGrid,
    _candidate_pairs_reference,
    bin_atoms,
    candidate_pairs,
)
from repro.util.pbc import minimum_image, wrap_positions


def pair_keys(i, j, n):
    """Canonical sorted keys of an unordered pair set (for exact matching)."""
    lo = np.minimum(i, j).astype(np.int64)
    hi = np.maximum(i, j).astype(np.int64)
    return np.sort(lo * max(n, 1) + hi)


def brute_force_pairs(pos, box, cutoff):
    n = len(pos)
    found = set()
    for i in range(n):
        delta = minimum_image(pos[i + 1 :] - pos[i], box)
        r2 = np.einsum("ij,ij->i", delta, delta)
        for j in np.flatnonzero(r2 < cutoff * cutoff):
            found.add((i, i + 1 + int(j)))
    return found


class TestHalfShell:
    def test_thirteen_offsets(self):
        assert HALF_SHELL_OFFSETS.shape == (13, 3)

    def test_lexicographically_positive(self):
        for off in HALF_SHELL_OFFSETS:
            assert tuple(off) > (0, 0, 0)

    def test_union_with_negations_covers_26(self):
        s = {tuple(o) for o in HALF_SHELL_OFFSETS}
        s |= {tuple(-o) for o in HALF_SHELL_OFFSETS}
        assert len(s) == 26


class TestCellGrid:
    def test_build_assigns_all_atoms(self):
        rng = np.random.default_rng(0)
        box = np.array([30.0, 30.0, 30.0])
        pos = wrap_positions(rng.random((100, 3)) * box, box)
        grid = CellGrid.build(pos, box, cutoff=10.0)
        total = sum(len(grid.atoms_in_cell(c)) for c in range(grid.n_cells))
        assert total == 100

    def test_dims_at_least_one(self):
        box = np.array([5.0, 5.0, 5.0])
        pos = np.array([[1.0, 1.0, 1.0]])
        grid = CellGrid.build(pos, box, cutoff=10.0)
        assert grid.n_cells == 1

    def test_flat_coords_roundtrip(self):
        box = np.array([30.0, 40.0, 50.0])
        pos = np.zeros((1, 3))
        grid = CellGrid.build(pos, box, cutoff=10.0)
        for c in range(grid.n_cells):
            assert grid.flat_index(*grid.cell_coords(c)) == c

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            CellGrid.build(np.zeros((1, 3)), np.ones(3), 0.0)

    def test_neighbor_pairs_unique(self):
        box = np.array([30.0, 30.0, 30.0])
        grid = CellGrid.build(np.zeros((1, 3)), box, 10.0)
        pairs = grid.neighbor_cell_pairs()
        assert len(pairs) == len(set(pairs))

    def test_small_grid_no_duplicate_neighbor_pairs(self):
        # dims (2,2,2): wrapping makes many offsets alias; must dedupe
        box = np.array([20.0, 20.0, 20.0])
        grid = CellGrid.build(np.zeros((1, 3)), box, 10.0)
        pairs = grid.neighbor_cell_pairs()
        for a, b in pairs:
            assert a <= b
        assert len(pairs) == len(set(pairs))


class TestCandidatePairCoverage:
    @pytest.mark.parametrize("n,cutoff,side", [(60, 5.0, 20.0), (40, 8.0, 18.0), (25, 3.0, 9.5)])
    def test_covers_brute_force(self, n, cutoff, side):
        rng = np.random.default_rng(n)
        box = np.array([side, side, side])
        pos = wrap_positions(rng.random((n, 3)) * box, box)
        i, j = candidate_pairs(pos, box, cutoff)
        cand = {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}
        assert len(cand) == len(i), "candidate pairs must be unique"
        ref = brute_force_pairs(pos, box, cutoff)
        assert ref <= cand, f"missing pairs: {ref - cand}"

    def test_empty_input(self):
        i, j = candidate_pairs(np.zeros((0, 3)), np.ones(3) * 10, 3.0)
        assert len(i) == len(j) == 0

    def test_single_atom(self):
        i, j = candidate_pairs(np.zeros((1, 3)), np.ones(3) * 10, 3.0)
        assert len(i) == 0

    @given(st.integers(2, 40), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_property_coverage(self, n, seed):
        rng = np.random.default_rng(seed)
        box = np.array([15.0, 12.0, 18.0])
        cutoff = 4.0
        pos = wrap_positions(rng.random((n, 3)) * box, box)
        i, j = candidate_pairs(pos, box, cutoff)
        cand = {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}
        assert brute_force_pairs(pos, box, cutoff) <= cand


class TestUnwrappedPositions:
    """Regression tests: CellGrid.build wraps instead of clamping."""

    def test_negative_coordinates_straddle_boundary(self):
        # A at x=-4.5 truly sits at x=15.5 (cell 3 of 5); C at x=13.0 is
        # 2.5 A away across the boundary.  The old clamp put A into cell 0,
        # which is not a neighbour of cell 3, silently dropping the pair.
        box = np.array([20.0, 20.0, 20.0])
        pos = np.array([[-4.5, 1.0, 1.0], [13.0, 1.0, 1.0]])
        i, j = candidate_pairs(pos, box, 4.0)
        assert len(i) == 1

    def test_unwrapped_matches_wrapped_enumeration(self):
        rng = np.random.default_rng(5)
        box = np.array([18.0, 15.0, 21.0])
        pos = rng.random((50, 3)) * box
        shifted = pos + np.array([-2.0, 1.0, -3.0]) * box  # several images away
        for cutoff in (3.0, 5.0):
            iw, jw = candidate_pairs(pos, box, cutoff)
            iu, ju = candidate_pairs(shifted, box, cutoff)
            assert np.array_equal(pair_keys(iw, jw, 50), pair_keys(iu, ju, 50))

    def test_build_bins_negative_position_into_true_cell(self):
        box = np.array([20.0, 20.0, 20.0])
        grid = CellGrid.build(np.array([[-4.5, 1.0, 1.0]]), box, 4.0)
        assert grid.cell_coords(int(grid.cell_of_atom[0]))[0] == 3


class TestBinAtoms:
    """``bin_atoms`` is the one binning routine: the simulator's patches,
    the engine's task grid and ``CellGrid`` all bucket atoms with it."""

    @pytest.mark.parametrize(
        "n, side, cutoff", [(40, 12.0, 4.0), (300, 21.0, 5.0), (1, 9.0, 3.0)]
    )
    def test_agrees_with_cell_grid(self, n, side, cutoff):
        rng = np.random.default_rng(n)
        box = np.array([side, side * 1.25, side * 0.8])
        pos = wrap_positions(rng.random((n, 3)) * box, box)
        grid = CellGrid.build(pos, box, cutoff)
        idx3, flat, buckets = bin_atoms(pos, box, grid.dims)
        assert np.array_equal(flat, grid.cell_of_atom)
        assert len(buckets) == grid.n_cells
        for c, bucket in enumerate(buckets):
            assert np.array_equal(bucket, grid.atoms_in_cell(c))
            if len(bucket):
                assert tuple(idx3[bucket[0]]) == grid.cell_coords(c)

    def test_buckets_partition_atoms_in_input_order(self):
        rng = np.random.default_rng(3)
        box = np.array([15.0, 15.0, 15.0])
        pos = rng.random((200, 3)) * box
        _, flat, buckets = bin_atoms(pos, box, np.array([3, 3, 3]))
        assert np.array_equal(np.sort(np.concatenate(buckets)), np.arange(200))
        for c, bucket in enumerate(buckets):
            assert np.all(np.diff(bucket) > 0)  # stable: input order kept
            assert np.all(flat[bucket] == c)

    def test_flat_index_is_row_major_in_idx3(self):
        rng = np.random.default_rng(4)
        box = np.array([10.0, 14.0, 18.0])
        dims = np.array([2, 3, 4])
        pos = rng.random((100, 3)) * box
        idx3, flat, _ = bin_atoms(pos, box, dims)
        assert np.all((idx3 >= 0) & (idx3 < dims))
        assert np.array_equal(flat, np.ravel_multi_index(idx3.T, tuple(dims)))

    def test_edge_coordinates_clamp_onto_boundary_patches(self):
        # a wrap that rounds up to exactly the box edge, or lands a hair
        # outside the primary cell, still goes to a boundary patch
        box = np.array([12.0, 12.0, 12.0])
        dims = np.array([3, 3, 3])
        pos = np.array([[12.0, 0.0, 6.0], [-1e-12, 12.0 + 1e-12, 11.999]])
        idx3, _, _ = bin_atoms(pos, box, dims)
        assert idx3.tolist() == [[2, 0, 1], [0, 2, 2]]

    def test_no_atoms_gives_empty_buckets(self):
        idx3, flat, buckets = bin_atoms(
            np.empty((0, 3)), np.array([8.0, 8.0, 8.0]), np.array([2, 2, 2])
        )
        assert idx3.shape == (0, 3) and flat.shape == (0,)
        assert len(buckets) == 8 and all(len(b) == 0 for b in buckets)


class TestVectorizedEnumeration:
    """The vectorized path must reproduce the reference loop exactly."""

    @pytest.mark.parametrize(
        "n,side,cutoff",
        [
            (80, 18.0, 5.0),   # multi-cell grid
            (40, 9.5, 3.0),    # 3x3x3
            (25, 6.0, 4.0),    # dims 1: all offsets alias
            (30, 8.5, 4.0),    # dims 2: half the offsets alias
            (300, 25.0, 6.0),  # enough atoms for multi-atom cells
            (2, 50.0, 3.0),
            (1, 10.0, 3.0),
        ],
    )
    def test_exact_match_with_reference(self, n, side, cutoff):
        rng = np.random.default_rng(n * 7 + 1)
        box = np.array([side, side * 0.9 + 1.0, side * 1.1 + 1.0])
        pos = rng.random((n, 3)) * box - box / 3.0  # deliberately unwrapped
        i_vec, j_vec = candidate_pairs(pos, box, cutoff)
        i_ref, j_ref = _candidate_pairs_reference(pos, box, cutoff)
        assert len(i_vec) == len(i_ref)
        assert np.array_equal(pair_keys(i_vec, j_vec, n), pair_keys(i_ref, j_ref, n))

    def test_neighbor_pair_arrays_match_python_loop(self):
        def loop_reference(grid):
            pairs = set()
            for flat in range(grid.n_cells):
                ix, iy, iz = grid.cell_coords(flat)
                pairs.add((flat, flat))
                for dx, dy, dz in HALF_SHELL_OFFSETS:
                    other = grid.flat_index(ix + int(dx), iy + int(dy), iz + int(dz))
                    if other != flat:
                        pairs.add((min(flat, other), max(flat, other)))
            return sorted(pairs)

        for box, cutoff in [
            (np.array([30.0, 30.0, 30.0]), 10.0),  # 3x3x3
            (np.array([20.0, 20.0, 20.0]), 10.0),  # 2x2x2 aliasing
            (np.array([5.0, 50.0, 20.0]), 5.0),    # mixed 1/10/4 dims
            (np.array([60.0, 60.0, 60.0]), 7.0),
        ]:
            grid = CellGrid.build(np.zeros((1, 3)), box, cutoff)
            assert grid.neighbor_cell_pairs() == loop_reference(grid)

    def test_chunked_emission_boundaries(self, monkeypatch):
        # tiny chunk: many chunk boundaries plus single rows larger than one
        # chunk, the regression case for the chunk-split off-by-one
        import repro.md.cells as cells_mod

        monkeypatch.setattr(cells_mod, "_PAIR_CHUNK", 32)
        rng = np.random.default_rng(23)
        box = np.array([12.0, 12.0, 12.0])
        pos = rng.random((150, 3)) * box
        i_vec, j_vec = candidate_pairs(pos, box, 6.0)  # dims 2: dense cells
        i_ref, j_ref = _candidate_pairs_reference(pos, box, 6.0)
        assert np.array_equal(pair_keys(i_vec, j_vec, 150), pair_keys(i_ref, j_ref, 150))

    def test_in_range_candidates_match_the_kernel_count(self):
        """The candidates within the cutoff are every in-range pair: as
        many as the count mode of ``block_pairs`` finds on the same
        arrays."""
        from repro.backend import get_backend

        rng = np.random.default_rng(17)
        box = np.array([16.0, 14.0, 19.0])
        pos = rng.random((120, 3)) * box
        every = np.arange(len(pos), dtype=np.int64)
        for cutoff in (3.0, 4.5, 7.0):
            i, j = candidate_pairs(pos, box, cutoff)
            d = minimum_image(pos[j] - pos[i], box)
            in_range = int(np.count_nonzero(np.einsum("ij,ij->i", d, d) < cutoff**2))
            assert in_range == get_backend().block_pairs(
                pos, box, every, None, 0, 1, cutoff
            )
