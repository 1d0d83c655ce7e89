"""Periodic cell lists for cutoff pair enumeration.

The engine's non-bonded kernel needs every atom pair within the cutoff,
each counted once (Newton's third law halves the work, exactly as the paper
emphasizes in §1).  Space is divided into a grid of cells at least one cutoff
wide; an atom then interacts only with atoms in its own cell and the 26
neighbours, and enumerating *half* of those neighbour offsets yields each
pair once.

This is the same geometric construction the parallel layer uses for patches
(:mod:`repro.core.decomposition`) — there the cells are Charm++ objects; here
they are just index buckets.

Wrapped-positions contract
--------------------------
:meth:`CellGrid.build` wraps positions into the primary cell ``[0, L)``
internally (via :func:`repro.util.pbc.wrap_positions`), so callers may pass
raw, unwrapped coordinates — including negative ones — and still get correct
cell assignments.  Distance filtering downstream must always go through
:func:`repro.util.pbc.minimum_image`, which is exact for any image choice,
so the enumeration layer as a whole is wrapping-agnostic.  (Earlier versions
*clamped* out-of-box positions into edge cells, silently dropping
cross-boundary pairs for unwrapped input; the regression tests in
``tests/test_md/test_cells.py`` pin the fixed behaviour.)

Performance notes
-----------------
Enumeration is fully vectorized: the half-shell neighbour map is built with
array ops over all cells at once, and pair blocks are emitted from the CSR
cell buckets in bounded chunks (``_PAIR_CHUNK`` elements) so the int32
working set stays cache-resident.  The per-cell Python loop this replaced is
kept as :func:`_candidate_pairs_reference` — the readable specification the
exact-match tests and the hot-path benchmark
(``benchmarks/test_kernel_hotpath.py``) compare against.

Nothing here counts pairs: every in-cutoff count in the package (cost
priors, compute descriptors, work counts) is the count mode of the kernel
that lists the engines' pairs, ``backend.block_pairs``, on one cell or
patch block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.pbc import wrap_positions

__all__ = [
    "CellGrid",
    "HALF_SHELL_OFFSETS",
    "candidate_pairs",
]


def _half_shell_offsets() -> np.ndarray:
    """The 13 neighbour offsets of a half shell, plus implicit self.

    An offset ``(dx, dy, dz)`` is in the half shell when it is
    lexicographically positive; pairing each cell with its half-shell
    neighbours (and itself) enumerates every neighbouring cell pair exactly
    once.  These are the paper's "upstream" neighbours restricted to 13 of
    the 26 (§3: 26/2 + 1 self = 14 objects per cube).
    """
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) > (0, 0, 0):
                    offsets.append((dx, dy, dz))
    return np.array(offsets, dtype=np.int64)


#: The 13 lexicographically-positive neighbour offsets.
HALF_SHELL_OFFSETS: np.ndarray = _half_shell_offsets()

#: Pair-emission chunk size (elements).  Chosen so the int32 index working
#: set of one chunk (a few MB) stays cache-resident; measured fastest in the
#: 2^17–2^19 range on commodity hardware.
_PAIR_CHUNK = 1 << 18


@dataclass
class CellGrid:
    """A periodic grid of cells covering an orthorhombic box.

    Attributes
    ----------
    dims:
        Number of cells along each axis (each >= 1).
    box:
        Box lengths.
    cell_of_atom:
        Flat cell index per atom.
    order:
        Atom indices sorted by cell, so ``order[start[c]:start[c+1]]`` are
        the atoms of cell ``c``.
    start:
        CSR-style offsets of length ``n_cells + 1``.
    """

    dims: np.ndarray
    box: np.ndarray
    cell_of_atom: np.ndarray
    order: np.ndarray
    start: np.ndarray

    @classmethod
    def build(
        cls, positions: np.ndarray, box: np.ndarray, cutoff: float
    ) -> "CellGrid":
        """Bucket ``positions`` into cells at least ``cutoff`` wide.

        Positions are wrapped into ``[0, L)`` here, so unwrapped or negative
        coordinates are binned into their true periodic cell (see the
        module-level wrapped-positions contract).  When an axis is shorter
        than ``2 * cutoff`` the grid degenerates to a single cell along that
        axis, which stays correct (all pairs checked) but loses the pruning
        benefit.
        """
        box = np.asarray(box, dtype=np.float64)
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        dims = np.maximum(np.floor(box / cutoff).astype(np.int64), 1)
        cell_len = box / dims
        frac = wrap_positions(np.asarray(positions, dtype=np.float64), box) / cell_len
        # guard against frac rounding up to exactly dims at the box edge
        idx3 = np.minimum(frac.astype(np.int64), dims - 1)
        flat = (idx3[:, 0] * dims[1] + idx3[:, 1]) * dims[2] + idx3[:, 2]
        order = np.argsort(flat, kind="stable")
        n_cells = int(np.prod(dims))
        counts = np.bincount(flat, minlength=n_cells)
        start = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        return cls(dims=dims, box=box, cell_of_atom=flat, order=order, start=start)

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        return int(np.prod(self.dims))

    def atoms_in_cell(self, flat_index: int) -> np.ndarray:
        """Atom indices in cell ``flat_index``."""
        return self.order[self.start[flat_index] : self.start[flat_index + 1]]

    def cell_coords(self, flat_index: int) -> tuple[int, int, int]:
        """Convert a flat cell index to ``(ix, iy, iz)``."""
        dy, dz = int(self.dims[1]), int(self.dims[2])
        ix, rem = divmod(int(flat_index), dy * dz)
        iy, iz = divmod(rem, dz)
        return ix, iy, iz

    def flat_index(self, ix: int, iy: int, iz: int) -> int:
        """Convert (periodic) cell coordinates to a flat index."""
        dims = self.dims
        return int(
            ((ix % dims[0]) * dims[1] + (iy % dims[1])) * dims[2] + (iz % dims[2])
        )

    def neighbor_cell_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized neighbour map: arrays ``(a, b)`` with ``a <= b``.

        Every (cell, neighbour-cell) pair to examine, each exactly once,
        including the self pair ``(c, c)``, sorted lexicographically.  With
        periodic wrapping and small grids the same neighbour is reachable
        through several offsets (for example ``dims == 1`` along an axis);
        encoding pairs as scalar keys and taking ``np.unique`` removes the
        duplicates without any per-cell Python loop.
        """
        n_cells = self.n_cells
        dims = self.dims
        cells = np.arange(n_cells, dtype=np.int64)
        dyz = dims[1] * dims[2]
        ix = cells // dyz
        rem = cells - ix * dyz
        iy = rem // dims[2]
        iz = rem - iy * dims[2]
        off = HALF_SHELL_OFFSETS
        nx = (ix[:, None] + off[:, 0]) % dims[0]
        ny = (iy[:, None] + off[:, 1]) % dims[1]
        nz = (iz[:, None] + off[:, 2]) % dims[2]
        nbr = (nx * dims[1] + ny) * dims[2] + nz
        a = np.repeat(cells, off.shape[0])
        b = nbr.ravel()
        distinct = a != b
        lo = np.minimum(a[distinct], b[distinct])
        hi = np.maximum(a[distinct], b[distinct])
        # self pairs (c, c) carried alongside, encoded with the same key
        keys = np.unique(
            np.concatenate([cells * (n_cells + 1), lo * n_cells + hi])
        )
        return keys // n_cells, keys % n_cells

    def neighbor_cell_pairs(self) -> list[tuple[int, int]]:
        """:meth:`neighbor_cell_pair_arrays` as a sorted list of tuples."""
        a, b = self.neighbor_cell_pair_arrays()
        return list(zip(a.tolist(), b.tolist()))

    def _pair_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR rows of the candidate enumeration.

        Each *row* is one atom of cell ``a`` in one neighbour-cell pair
        ``(a, b)``; its partners are a contiguous slice of :attr:`order`.
        Returns ``(row_pos, partner_start, partner_count)`` where ``row_pos``
        indexes :attr:`order` for the row atom and the partners are
        ``order[partner_start : partner_start + partner_count]``.  Self pairs
        ``(c, c)`` emit only the suffix after the row atom, so every atom
        pair appears exactly once.  Rows with no partners are dropped.
        """
        ca, cb = self.neighbor_cell_pair_arrays()
        start = self.start
        cnt = start[1:] - start[:-1]
        cnt_a = cnt[ca]
        n_rows = int(cnt_a.sum())
        if n_rows == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        block_of_row = np.repeat(np.arange(len(ca)), cnt_a)
        row_local = np.arange(n_rows) - (np.cumsum(cnt_a) - cnt_a)[block_of_row]
        row_pos = start[ca][block_of_row] + row_local
        is_self = (ca == cb)[block_of_row]
        p_start = np.where(is_self, row_pos + 1, start[cb][block_of_row])
        p_count = np.where(
            is_self, cnt_a[block_of_row] - row_local - 1, cnt[cb][block_of_row]
        )
        nonzero = p_count > 0
        return row_pos[nonzero], p_start[nonzero], p_count[nonzero]


def candidate_pairs(
    positions: np.ndarray, box: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate atom pairs ``(i, j)`` whose cells are within one cutoff.

    Pairs are returned once each (``i`` and ``j`` int32 arrays of equal
    length, unordered within a pair).  Distances are *not* checked here;
    callers filter by actual ``r < cutoff``.  Positions may be unwrapped
    (see the module contract); int32 indices halve the memory traffic of the
    enumeration, which is DRAM-bound at large pair counts.
    """
    grid = CellGrid.build(positions, box, cutoff)
    row_pos, p_start, p_count = grid._pair_rows()
    total = int(p_count.sum())
    i_out = np.empty(total, dtype=np.int32)
    j_out = np.empty(total, dtype=np.int32)
    if total == 0:
        return i_out, j_out
    order32 = grid.order.astype(np.int32)
    out_off = np.concatenate([[0], np.cumsum(p_count)])
    row_vals = order32[row_pos]
    # per-row constant: first partner slot minus the row's output offset, so
    # a chunk's j-indices are repeat(constant) + arange (all SIMD-friendly;
    # no serial cumsum on the hot path)
    j_const = p_start - out_off[:-1]
    n_rows = len(p_count)
    arange_buf = np.arange(
        max(_PAIR_CHUNK, int(p_count.max())), dtype=np.int32
    )
    r0 = 0
    while r0 < n_rows:
        # largest r1 with out_off[r1] <= out_off[r0] + chunk (at least one
        # row per chunk: a single row may exceed the chunk size)
        r1 = int(
            np.searchsorted(out_off, out_off[r0] + _PAIR_CHUNK, side="right") - 1
        )
        r1 = min(max(r1, r0 + 1), n_rows)
        o0, o1 = int(out_off[r0]), int(out_off[r1])
        span = o1 - o0
        pc = p_count[r0:r1]
        i_out[o0:o1] = np.repeat(row_vals[r0:r1], pc)
        j_idx = np.repeat((j_const[r0:r1] + o0).astype(np.int32), pc)
        j_idx += arange_buf[:span]
        np.take(order32, j_idx, out=j_out[o0:o1])
        r0 = r1
    return i_out, j_out


def _candidate_pairs_reference(
    positions: np.ndarray, box: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """Readable per-cell-loop specification of :func:`candidate_pairs`.

    Retained as the ground truth for the exact-match tests and as the
    baseline the hot-path benchmark measures speedup against.  Produces the
    same pair *set* as :func:`candidate_pairs` (ordering may differ).
    """
    grid = CellGrid.build(positions, box, cutoff)
    is_, js_ = [], []
    for ca, cb in grid.neighbor_cell_pairs():
        atoms_a = grid.atoms_in_cell(ca)
        if len(atoms_a) == 0:
            continue
        if ca == cb:
            if len(atoms_a) < 2:
                continue
            iu, ju = np.triu_indices(len(atoms_a), k=1)
            is_.append(atoms_a[iu])
            js_.append(atoms_a[ju])
        else:
            atoms_b = grid.atoms_in_cell(cb)
            if len(atoms_b) == 0:
                continue
            ii, jj = np.meshgrid(atoms_a, atoms_b, indexing="ij")
            is_.append(ii.ravel())
            js_.append(jj.ravel())
    if not is_:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(is_), np.concatenate(js_)
