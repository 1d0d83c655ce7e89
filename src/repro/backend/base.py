"""Kernel-backend contract and the parity self-check.

A :class:`KernelBackend` bundles the twelve kernels every backend must
provide.  The contract is deliberately scalar/array-only (no dataclass
options, no ``repro.md`` types: exclusions and LJ tables cross it as
arrays) so this package never imports from ``repro.md`` — the md modules
import :mod:`repro.backend` themselves, and an import back into md would
be circular (``tools/check_layering.py`` holds the rule).

Kernel contract (all arrays are numpy, ``forces`` is accumulated in place):

``nb_pairs(pos, box, i_idx, j_idx, eps, rmin, qq, cutoff, switch, forces,
si, sj, alpha=None, ewald_cutoff=None) -> (e_lj, e_elec, n_pairs)``
    Fused distance test + switched-LJ/electrostatics pair kernel with
    Newton's-third-law scatter — the engines' one pair kernel.  ``qq`` is
    the raw charge product (the kernel applies the Coulomb constant);
    positions are read through ``i_idx``/``j_idx`` while forces accumulate
    at ``si``/``sj``.  The electrostatic term has two modes:

    * *cutoff mode* (``alpha`` unset, the 12-argument call): the shifted
      point-charge form ``(C qq / r)(1 - r²/c²)²`` inside ``cutoff``;
    * *Ewald mode* (both trailing scalars set): the real-space term of the
      Ewald sum, ``C qq erfc(alpha r) / r`` inside ``ewald_cutoff``, and
      ``e_elec`` is that sum.  The two terms keep their own cutoffs: a
      pair is evaluated inside ``max(cutoff, ewald_cutoff)``, the LJ term
      vanishes beyond ``cutoff`` and the erfc term beyond ``ewald_cutoff``.
      The term and its force factor are *read from a table in r²*
      (:mod:`repro.backend.ewald_table`: cubic-Hermite pieces addressed by
      the bits of ``r²``, built from ``scipy.special.erfc`` and memoised per
      ``(alpha, ewald_cutoff)``) — the same table, evaluated in the same
      order, by every backend, so what differs between backends is the
      rounding of the arithmetic around it and not a library's ``erfc``.
      The table is within 1e-9 of the term while ``alpha * ewald_cutoff <=
      3.3`` and within 1e-11 of the bare Coulomb term always; a pair closer
      than the table's first node (1 Å) is evaluated from the expressions
      themselves.  The oracle (``ewald_real`` below) does not read it.

    ``n_pairs`` counts the pairs inside ``cutoff`` in either mode.

``pair_mask(pos, box, i_idx, j_idx, cutoff) -> bool[m]``
    Minimum-image distance test only.

``segment_add(out, idx, contrib, subtract=False) -> None``
    Segment-sum scatter, ``out[idx[p]] += contrib[p]`` (``-=`` with
    ``subtract``), duplicates summed, in one of two orders fixed by the fill
    ``len(idx) / len(out)``: from ``_BINCOUNT_MIN_FILL`` on, each row's
    contributions are summed from zero in index order and the sum then added
    to the row (``np.bincount``); below it, contribution by contribution into
    ``out`` (``np.add.at``).  Every backend gives the reference's bits — the
    engines' task-ordered reduction is this kernel.  An index outside ``[0,
    n)`` is an ``IndexError`` with nothing written; the public entry
    :func:`repro.md.scatter.segment_add` answers it with a ``ValueError``
    naming the range first.

``wrap_positions(pos, box) -> None``
    Fold the ``(n, 3)`` float64 ``pos`` into the primary cell ``[0, L)`` in
    place, with ``np.mod``'s bits (``-0.0`` becomes ``+0.0``, NaN stays NaN)
    and a coordinate that rounded up to ``L`` folded onto 0.

``max_displacement2(pos, ref, box) -> float``
    The largest squared minimum-image displacement between two ``(n, 3)``
    arrays: per component ``d - L rint(d / L)``, summed ``(x² + z²) + y²``,
    NaN when any sum is NaN (numpy's ``max``).  The pair list's staleness
    test; bit for bit the reference's.

``ewald_real(pos, box, i_idx, j_idx, qq, alpha, cutoff, forces) -> energy``
    Ewald real-space sum on its own, from ``scipy.special.erfc`` pair by
    pair.  ``qq`` here *includes* the Coulomb constant (matching the
    historical call site).  No engine calls it: it is the kernel of the
    oracle :func:`repro.md.ewald.compute_ewald`, which the engines'
    Ewald-mode ``nb_pairs`` — and with it the table — is held to.

``ewald_recip(pos, q, kvecs, ak, pref, forces, mvecs=None) -> energy``
    Ewald reciprocal-space sum over precomputed ``(kvecs, ak)`` tables
    with prefactor ``pref = C * 2π / V``.  ``mvecs`` are the integer
    triplets the vectors were built from (``kvecs = 2π mvecs / box``, int32,
    same rows): a backend may use them to factorise the phase factors per
    axis, and must give the same sum without them.

``bonded_terms(pos, box, kind, idx, kpar, p1, p2, forces, sidx) -> energy``
    Vectorized bonded-term kernel for one term kind: ``kind`` is 0 (bond),
    1 (angle), 2 (dihedral), or 3 (improper).  ``idx`` is ``(m, w)`` atom
    indices (``w`` = 2/3/4), ``kpar`` the force constants, ``p1`` the
    equilibrium parameter (``r0`` / ``theta0`` / periodicity ``n`` /
    ``psi0``) and ``p2`` the dihedral phase ``delta`` (zeros for other
    kinds).  Positions are read through ``idx``; forces accumulate at the
    parallel ``sidx`` rows (pass ``sidx=idx`` for a plain in-place
    evaluation) so the parallel engine can scatter each task into a
    compact slab of a shared buffer.

``pme_spread(pos, q, box, grid, order) -> None``
    The charge-assignment half of smooth PME (Essmann et al. 1995): the
    caller-owned float64 grid ``(K0, K1, K2)`` is *overwritten* with ``Q(k)
    = sum_a q_a M(u_a - k)``, ``M`` the product over the three axes of the
    cardinal B-spline of ``order`` and ``u_a`` the atom's scaled fractional
    coordinates (``K_d x_d / L_d``, folded into ``[0, K_d)``: an atom on a
    box face or outside the box is its periodic image).  ``order`` lies in
    ``[2, PME_MAX_ORDER]`` and every ``K_d >= order``; otherwise a
    ``ValueError`` with nothing written.

``pme_gather(pos, q, box, grid, order, forces) -> energy``
    The interpolation half: with ``grid`` holding the potential (the
    charges convolved with the influence function), each atom's ``phi_a =
    sum_k M(u_a - k) grid(k)``; the forces ``-q_a grad phi_a`` accumulate
    into ``forces`` and ``sum_a q_a phi_a / 2`` is returned.  The same
    splines and the same errors as ``pme_spread``.  The FFT pair between the
    two halves is not a kernel: :mod:`repro.md.ewald` calls ``scipy.fft``.

``block_pairs(pos, box, atoms_a, atoms_b, part, n_parts, r, tables=None,
out=None, offset=0) -> int``
    The pairs within ``r`` (minimum image, ``r2 < r*r``) of one dense cell
    block, in one of two modes.  The block is the stripe ``part::n_parts``
    of the rows of cell ``atoms_a`` (int64 atom indices into ``pos``)
    against all of cell ``atoms_b`` or, with ``atoms_b=None``, the *self*
    block of ``atoms_a``: the upper triangle, each pair ``(row, col)`` once
    with ``row < col`` in cell order and ``row`` in the stripe.  The
    stripes of a block partition its pairs exactly.

    * *count mode* (``tables`` unset): returns how many pairs of the block
      lie within ``r``; writes nothing.  Exact on every backend — this is
      the cost prior's count and the size a list needs at most.
    * *list mode*: ``tables = (excl_ptr, excl_partners)`` — the per-atom
      exclusion table (``excl_partners[excl_ptr[i]:excl_ptr[i+1]]``
      ascending, both directions of every 1-2/1-3/1-4 pair, int64).
      In-range pairs not in the table are written as a *row list* over the
      task's force block into ``out = (cols, row_ptr)``, caller-owned and
      C-contiguous.  The block's rows are the rows the driver gathers: a
      self block's are the cell's own (``len(atoms_a)`` of them), a pair
      block's the stripe's ``0..ns-1`` followed by cell b's ``ns..``.
      ``cols`` (int32) receives, from ``offset`` on, one entry per listed
      pair — the block row of the pair's partner; ``row_ptr`` (int64,
      exactly one entry per block row plus one) receives each row's range:
      row ``r`` lists ``cols[row_ptr[r]:row_ptr[r+1]]``, absolute offsets
      into ``cols`` starting at ``row_ptr[0] == offset``.  Rows that list
      nothing — cell b's rows, rows outside the stripe — are empty ranges.
      Four bytes a listed pair: the row atom, its force row, and the pair's
      LJ and charge parameters are what the block already knows
      (``nb_rows`` below reads them from there).  Returns the number
      written, or ``-1`` — *does not fit* — when ``cols`` is too short, in
      which case nothing is written past its end (what lies between
      ``offset`` and the end, and ``row_ptr``, is unspecified).

    Pairs are emitted in row-major order — stripe rows ascending, columns
    ascending within a row — and with the reference's arithmetic bit for
    bit (the fold is ``d - L rint(d / L)`` per component, the sum ``(dx² +
    dy²) + dz²``), so every backend lists exactly the reference's arrays:
    list order is the pair kernel's accumulation order, and the self-check
    holds this kernel to array identity, not to a tolerance.  An atom
    index outside ``pos`` (negative included) is an ``IndexError``.

``nb_rows(pos, box, tables, lists, cutoff, switch, scratch, block_off, out,
alpha=None, ewald_cutoff=None) -> None``
    The cell tasks of one executor, evaluated by one call: ``nb_pairs``'
    arithmetic — same terms, same two modes (the Ewald one through the same
    table), same summation order — over a *batch* of row lists.  ``lists = (cols, row_ptr, rows, row_off)``:
    ``row_off`` (int64, ``n_tasks + 1``) partitions ``rows`` (int64, the
    block-row → atom maps of the batch's tasks, concatenated); task ``t``
    owns ``rows[row_off[t]:row_off[t+1]]`` and the ``row_ptr`` slots from
    ``row_off[t] + t`` on — its block rows plus one, as ``block_pairs``
    wrote them (so ``len(row_ptr) == len(rows) + n_tasks``), ranges into
    ``cols`` (int32).  ``tables = (type_idx, charges, eps_tab, rmin_tab)``:
    per-atom type indices (int64) and charges, and two ``n_types ×
    n_types`` float64 tables holding ``sqrt(eps_a eps_b)`` and ``rmin_a +
    rmin_b`` — a pair's parameters are ``tab[type_i, type_j]`` and ``q_i
    q_j``, the roundings of a per-pair Lorentz-Berthelot combination.
    ``scratch`` is the ``(rows, 3)`` float64 force scratch; task ``t``'s
    block starts at row ``block_off[t]`` (int64) and is *zeroed, then
    accumulated into*.  ``out`` is ``(n_tasks, 4)`` float64: per task the
    LJ sum, the electrostatic sum, the pairs inside ``cutoff`` and the
    nanoseconds the task took by the kernel's own monotonic clock (gather
    and zeroing included) — so a batched step still yields a time for
    every task.  Every index is checked before it is followed: a ``rows``
    entry outside ``pos``, a type outside the tables, a column outside its
    block, a ``row_ptr`` that decreases or leaves ``cols``, a block outside
    ``scratch`` is an ``IndexError``, and nothing outside the batch's blocks
    and ``out`` has been written.

    A task's result is bit for bit that of ``nb_pairs`` over the pair
    arrays its rows stand for (``i = rows[row]``, ``j = rows[col]``, ``si =
    row``, ``sj = col``, parameters from the tables) into the same zeroed
    block.  ``nb_pairs`` stays the kernel of every explicit pair array —
    the 1-4 pass, the oracle's global list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "KernelBackend",
    "bonded_cases",
    "parity_selfcheck",
    "synthetic_problem",
]


@dataclass(frozen=True)
class KernelBackend:
    """One named implementation of the contract's kernels, all required."""

    name: str
    compiled: bool
    nb_pairs: Callable[..., tuple[float, float, int]]
    pair_mask: Callable[..., np.ndarray]
    segment_add: Callable[..., None]
    ewald_real: Callable[..., float]
    ewald_recip: Callable[..., float]
    bonded_terms: Callable[..., float]
    pme_spread: Callable[..., None]
    pme_gather: Callable[..., float]
    block_pairs: Callable[..., int]
    nb_rows: Callable[..., None]
    wrap_positions: Callable[..., None]
    max_displacement2: Callable[..., float]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "compiled" if self.compiled else "interpreted"
        return f"KernelBackend({self.name!r}, {kind})"


def synthetic_problem(seed: int = 2026) -> dict[str, Any]:
    """Small deterministic problem exercising every kernel of the contract.

    Self-contained on purpose: no builder systems, no md imports, cheap
    enough to run at import time (~100 pairs, 24 atoms, 124 k-vectors).
    """
    rng = np.random.default_rng(seed)
    n = 24
    box = np.array([7.0, 8.5, 9.25])
    pos = rng.uniform(0.0, 1.0, size=(n, 3)) * box
    m = 96
    i_idx = rng.integers(0, n, size=m)
    j_idx = (i_idx + rng.integers(1, n, size=m)) % n  # i != j guaranteed
    eps = rng.uniform(0.05, 0.25, size=m)
    rmin = rng.uniform(2.5, 4.2, size=m)
    charges = rng.normal(0.0, 0.4, size=n)
    qq = charges[i_idx] * charges[j_idx]

    kmax = 2
    grid = np.arange(-kmax, kmax + 1)
    mx, my, mz = np.meshgrid(grid, grid, grid, indexing="ij")
    mvecs = np.stack([mx.ravel(), my.ravel(), mz.ravel()], axis=1).astype(np.int32)
    mvecs = mvecs[np.any(mvecs != 0, axis=1)]
    kvecs = 2.0 * np.pi * mvecs / box[None, :]
    k2 = np.einsum("ij,ij->i", kvecs, kvecs)
    alpha = 0.45
    ak = np.exp(-k2 / (4.0 * alpha * alpha)) / k2
    pref = 332.0636 * 2.0 * np.pi / float(np.prod(box))

    scatter_idx = rng.integers(0, n, size=m)  # duplicates on purpose
    contrib = rng.normal(0.0, 1.0, size=(m, 3))

    # bonded terms: sliding windows over fresh permutations so every term's
    # atoms are distinct (degenerate geometry would divide by ~0 lengths)
    permb = rng.permutation(n).astype(np.int64)
    bond_idx = np.stack([permb[:-1], permb[1:]], axis=1)[:16]
    bond_k = rng.uniform(100.0, 400.0, size=len(bond_idx))
    bond_r0 = rng.uniform(0.9, 1.6, size=len(bond_idx))
    perma = rng.permutation(n).astype(np.int64)
    angle_idx = np.stack([perma[:-2], perma[1:-1], perma[2:]], axis=1)[:12]
    angle_k = rng.uniform(20.0, 80.0, size=len(angle_idx))
    angle_t0 = rng.uniform(1.5, 2.4, size=len(angle_idx))
    permd = rng.permutation(n).astype(np.int64)
    dih_idx = np.stack(
        [permd[:-3], permd[1:-2], permd[2:-1], permd[3:]], axis=1
    )[:10]
    dih_k = rng.uniform(0.5, 3.0, size=len(dih_idx))
    dih_n = rng.integers(1, 4, size=len(dih_idx)).astype(np.float64)
    dih_delta = rng.uniform(0.0, np.pi, size=len(dih_idx))
    permi = rng.permutation(n).astype(np.int64)
    imp_idx = np.stack(
        [permi[:-3], permi[1:-2], permi[2:-1], permi[3:]], axis=1
    )[:8]
    imp_k = rng.uniform(5.0, 30.0, size=len(imp_idx))
    imp_psi0 = rng.uniform(-0.6, 0.6, size=len(imp_idx))

    # block_pairs: three LJ types, and an exclusion table over the bonds
    # (both directions, partners ascending per atom)
    type_idx = rng.integers(0, 3, size=n).astype(np.int64)
    eps_t = rng.uniform(0.05, 0.25, size=3)
    rmin_t = rng.uniform(1.2, 2.1, size=3)
    owner = np.concatenate([bond_idx[:, 0], bond_idx[:, 1]])
    partner = np.concatenate([bond_idx[:, 1], bond_idx[:, 0]])
    excl_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=excl_ptr[1:])
    excl_partners = partner[np.lexsort((partner, owner))]

    # PME: a small non-cubic grid, and a potential on it for the gather
    pme_potential = rng.normal(0.0, 1.0, size=(8, 9, 10))

    return {
        "n": n,
        "box": box,
        "pos": pos,
        "i_idx": i_idx,
        "j_idx": j_idx,
        "eps": eps,
        "rmin": rmin,
        "qq": qq,
        "charges": charges,
        "cutoff": 5.0,
        "switch": 4.0,
        "alpha": alpha,
        "kvecs": kvecs,
        "mvecs": mvecs,
        "ak": ak,
        "pref": pref,
        "scatter_idx": scatter_idx,
        "contrib": contrib,
        "bond_idx": bond_idx,
        "bond_k": bond_k,
        "bond_r0": bond_r0,
        "angle_idx": angle_idx,
        "angle_k": angle_k,
        "angle_t0": angle_t0,
        "dih_idx": dih_idx,
        "dih_k": dih_k,
        "dih_n": dih_n,
        "dih_delta": dih_delta,
        "imp_idx": imp_idx,
        "imp_k": imp_k,
        "imp_psi0": imp_psi0,
        "pme_order": 6,
        "pme_potential": pme_potential,
        "excl_ptr": excl_ptr,
        "excl_partners": excl_partners,
        "type_idx": type_idx,
        "eps_t": eps_t,
        "rmin_t": rmin_t,
    }


def bonded_cases(p: dict[str, Any]) -> list[tuple]:
    """The ``(kind, idx, kpar, p1, p2)`` tuples of a synthetic problem.

    ``p2`` is the dihedral phase ``delta``; zeros for the other kinds per
    the ``bonded_terms`` contract.
    """
    return [
        (0, p["bond_idx"], p["bond_k"], p["bond_r0"], np.zeros(len(p["bond_k"]))),
        (1, p["angle_idx"], p["angle_k"], p["angle_t0"], np.zeros(len(p["angle_k"]))),
        (2, p["dih_idx"], p["dih_k"], p["dih_n"], p["dih_delta"]),
        (3, p["imp_idx"], p["imp_k"], p["imp_psi0"], np.zeros(len(p["imp_k"]))),
    ]


def _block_lists(backend: KernelBackend, p: dict[str, Any]):
    """``block_pairs`` over the synthetic problem's blocks, listed one after
    another into one arena from entry 3 on, as an evaluator lists its tasks:
    ``(counts, lists)`` — per block the count-mode and the list-mode result,
    and the batch ``(cols, row_ptr, rows, row_off)`` ``nb_rows`` takes
    (``cols`` trimmed to what was written)."""
    tables = p["excl_ptr"], p["excl_partners"]
    cell_a = np.arange(0, p["n"], 2)
    cell_b = np.arange(1, p["n"], 2)
    blocks = [
        (cell_a, atoms_b, part, n_parts)
        for atoms_b, n_parts in ((None, 1), (None, 2), (cell_b, 1), (cell_b, 3))
        for part in range(n_parts)
    ]
    rows = [
        cell_a if atoms_b is None else np.concatenate([cell_a[part::n_parts], atoms_b])
        for _, atoms_b, part, n_parts in blocks
    ]
    row_off = np.zeros(len(blocks) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=row_off[1:])
    cols = np.empty(3 + len(blocks) * len(cell_a) * len(cell_b), dtype=np.int32)
    row_ptr = np.empty(int(row_off[-1]) + len(blocks), dtype=np.int64)
    counts, used = [], 3
    for k, block in enumerate(blocks):
        geometry = (p["pos"], p["box"], *block, p["cutoff"])
        slots = row_ptr[row_off[k] + k : row_off[k + 1] + k + 1]
        n = backend.block_pairs(*geometry, tables, (cols, slots), used)
        counts.append((backend.block_pairs(*geometry), n))
        used += max(n, 0)
    return counts, (cols[:used], row_ptr, np.concatenate(rows), row_off)


def _rows_batch(backend: KernelBackend, p: dict[str, Any], lists, mode):
    """``nb_rows`` over the batch :func:`_block_lists` built: ``(out,
    scratch)``, each task's block where its rows start in ``rows``."""
    eps_t, rmin_t = p["eps_t"], p["rmin_t"]
    tables = (
        p["type_idx"], p["charges"],
        np.sqrt(eps_t[:, None] * eps_t[None, :]), rmin_t[:, None] + rmin_t[None, :],
    )
    row_off = lists[3]
    scratch = np.full((int(row_off[-1]), 3), np.nan)  # the kernel zeroes
    out = np.zeros((len(row_off) - 1, 4))
    backend.nb_rows(
        p["pos"], p["box"], tables, lists, p["cutoff"], p["switch"],
        scratch, row_off[:-1].copy(), out, *mode,
    )
    return out, scratch


def _close(a, b, tol: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    diff = np.abs(a - b)
    return bool(np.all(np.isfinite(a)) and np.all(diff <= tol * scale))


def parity_selfcheck(
    candidate: KernelBackend,
    reference: KernelBackend | None = None,
    tol: float = 1e-9,
) -> tuple[bool, str]:
    """Check ``candidate`` against ``reference`` on the synthetic problem.

    Returns ``(ok, detail)``; never raises — any exception inside a kernel
    is folded into a ``(False, ...)`` result so callers can fall back.
    Checking a backend against itself still catches NaNs, crashes, and
    Newton's-third-law violations.
    """
    if reference is None:
        reference = candidate
    p = synthetic_problem()
    try:
        # nb_pairs: cutoff mode, then Ewald mode with the erfc cutoff
        # inside and beyond the LJ cutoff.  The synthetic contacts make LJ
        # forces ~1e5 times the electrostatic ones, so the Ewald cases run
        # with LJ off: the erfc term is held to ``tol`` of its own scale.
        geom = (p["pos"], p["box"], p["i_idx"], p["j_idx"])
        for eps, mode in (
            (p["eps"], ()),
            (0.0 * p["eps"], (p["alpha"], 0.8 * p["cutoff"])),
            (0.0 * p["eps"], (p["alpha"], 1.2 * p["cutoff"])),
        ):
            label = "nb_pairs[ewald]" if mode else "nb_pairs"
            args = (*geom, eps, p["rmin"], p["qq"], p["cutoff"], p["switch"])
            f_c = np.zeros((p["n"], 3))
            f_r = np.zeros((p["n"], 3))
            out_c = candidate.nb_pairs(*args, f_c, p["i_idx"], p["j_idx"], *mode)
            out_r = reference.nb_pairs(*args, f_r, p["i_idx"], p["j_idx"], *mode)
            if out_c[2] == 0:
                return False, f"{label}: synthetic problem produced no pairs"
            if out_c[2] != out_r[2]:
                return False, f"{label}: pair count {out_c[2]} != {out_r[2]}"
            if not all(_close(out_c[k], out_r[k], tol) for k in (0, 1)):
                return False, f"{label}: energies {out_c[:2]} != {out_r[:2]}"
            if not _close(f_c, f_r, tol):
                return False, f"{label}: forces disagree"
            net = np.abs(f_c.sum(axis=0))
            if not np.all(net <= 1e-8 * max(1.0, float(np.max(np.abs(f_c))))):
                return False, f"{label}: Newton's third law violated (net {net})"

        # pair_mask
        mask_c = candidate.pair_mask(p["pos"], p["box"], p["i_idx"], p["j_idx"],
                                     p["cutoff"])
        mask_r = reference.pair_mask(p["pos"], p["box"], p["i_idx"], p["j_idx"],
                                     p["cutoff"])
        if not np.array_equal(np.asarray(mask_c, bool), np.asarray(mask_r, bool)):
            return False, "pair_mask: masks disagree"

        # the driver's passes: the reference's bits, not a tolerance — the
        # engines reduce, wrap and test staleness through them.  segment_add
        # in both orders (the first five contributions fill under
        # _BINCOUNT_MIN_FILL), adding and subtracting
        for m, subtract in ((None, False), (None, True), (5, False), (5, True)):
            sums = []
            for backend in (candidate, reference):
                out = np.ones((p["n"], 3))
                backend.segment_add(
                    out, p["scatter_idx"][:m], p["contrib"][:m], subtract
                )
                sums.append(out)
            if not np.array_equal(*sums):
                return False, "segment_add: sums differ"
        shifted = p["pos"] + p["contrib"][: p["n"]] * p["box"]  # outside the box
        wrapped = [shifted.copy(), shifted.copy()]
        candidate.wrap_positions(wrapped[0], p["box"])
        reference.wrap_positions(wrapped[1], p["box"])
        if not np.array_equal(*wrapped):
            return False, "wrap_positions: positions differ"
        d2 = [
            backend.max_displacement2(shifted, p["pos"], p["box"])
            for backend in (candidate, reference)
        ]
        if d2[0] != d2[1]:
            return False, f"max_displacement2: {d2[0]!r} != {d2[1]!r}"

        # ewald_real (qq including the Coulomb factor, per contract)
        qq_c = 332.0636 * p["qq"]
        fe_c = np.zeros((p["n"], 3))
        fe_r = np.zeros((p["n"], 3))
        e_c = candidate.ewald_real(p["pos"], p["box"], p["i_idx"], p["j_idx"],
                                   qq_c, p["alpha"], p["cutoff"], fe_c)
        e_r = reference.ewald_real(p["pos"], p["box"], p["i_idx"], p["j_idx"],
                                   qq_c, p["alpha"], p["cutoff"], fe_r)
        if not _close(e_c, e_r, tol) or not _close(fe_c, fe_r, tol):
            return False, "ewald_real: results disagree"

        # ewald_recip, without and with the integer triplets
        recip = (p["pos"], p["charges"], p["kvecs"], p["ak"], p["pref"])
        fk_r = np.zeros((p["n"], 3))
        ek_r = reference.ewald_recip(*recip, fk_r)
        for triplets in ((), (p["mvecs"],)):
            fk_c = np.zeros((p["n"], 3))
            ek_c = candidate.ewald_recip(*recip, fk_c, *triplets)
            if not _close(ek_c, ek_r, tol) or not _close(fk_c, fk_r, tol):
                return False, "ewald_recip: results disagree"

        # bonded_terms (all four kinds)
        kind_names = ("bond", "angle", "dihedral", "improper")
        for kind, idx, kpar, p1, p2 in bonded_cases(p):
            fb_c = np.zeros((p["n"], 3))
            fb_r = np.zeros((p["n"], 3))
            eb_c = candidate.bonded_terms(
                p["pos"], p["box"], kind, idx, kpar, p1, p2, fb_c, idx
            )
            eb_r = reference.bonded_terms(
                p["pos"], p["box"], kind, idx, kpar, p1, p2, fb_r, idx
            )
            label = f"bonded_terms[{kind_names[kind]}]"
            if not _close(eb_c, eb_r, tol):
                return False, f"{label}: energies {eb_c} != {eb_r}"
            if not _close(fb_c, fb_r, tol):
                return False, f"{label}: forces disagree"
            # bonded terms are translation invariant: net force ~ 0
            net = np.abs(fb_c.sum(axis=0))
            if not np.all(net <= 1e-8 * max(1.0, float(np.max(np.abs(fb_c))))):
                return False, f"{label}: net force nonzero ({net})"

        # pme_spread / pme_gather on a non-cubic grid; the spread grids also
        # hold the total charge (the splines are a partition of unity)
        atoms = (p["pos"], p["charges"], p["box"])
        grids = []
        for backend in (candidate, reference):
            grid = np.full(p["pme_potential"].shape, np.nan)  # overwritten
            backend.pme_spread(*atoms, grid, p["pme_order"])
            grids.append(grid)
        if not _close(grids[0], grids[1], tol):
            return False, "pme_spread: grids disagree"
        if not _close(grids[0].sum(), p["charges"].sum(), tol):
            return False, "pme_spread: the grid does not hold the total charge"
        gathered = []
        for backend in (candidate, reference):
            fg = np.zeros((p["n"], 3))
            eg = backend.pme_gather(*atoms, p["pme_potential"], p["pme_order"], fg)
            gathered.append((eg, fg))
        (eg_c, fg_c), (eg_r, fg_r) = gathered
        if not _close(eg_c, eg_r, tol) or not _close(fg_c, fg_r, tol):
            return False, "pme_gather: results disagree"

        # block_pairs: array identity, not a tolerance — list order is the
        # pair kernels' accumulation order
        counts_r, lists_r = _block_lists(reference, p)
        counts_c, lists_c = _block_lists(candidate, p)
        if len(lists_r[0]) <= 3:
            return False, "block_pairs: synthetic problem listed no pairs"
        if counts_c != counts_r or min(n for _, n in counts_r) < 0:
            return False, f"block_pairs: counts {counts_c} != {counts_r}"
        if not all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in zip((lists_c[0][3:], *lists_c[1:]), (lists_r[0][3:], *lists_r[1:]))
        ):
            return False, "block_pairs: lists differ"

        # nb_rows over those lists as one batch, both modes (LJ off in the
        # Ewald case for the reason given above)
        for mode in ((), (p["alpha"], 1.2 * p["cutoff"])):
            q = {**p, "eps_t": 0.0 * p["eps_t"]} if mode else p
            label = "nb_rows[ewald]" if mode else "nb_rows"
            out_c, f_c = _rows_batch(candidate, q, lists_c, mode)
            out_r, f_r = _rows_batch(reference, q, lists_r, mode)
            if not np.array_equal(out_c[:, 2], out_r[:, 2]):
                return False, f"{label}: pair counts differ"
            if not _close(out_c[:, :2], out_r[:, :2], tol):
                return False, f"{label}: energies disagree"
            if not _close(f_c, f_r, tol):
                return False, f"{label}: forces disagree"
            if not np.all(out_c[:, 3] >= 0):
                return False, f"{label}: negative task time"
    except Exception as exc:  # noqa: BLE001 - fold any kernel failure into fallback
        return False, f"{type(exc).__name__}: {exc}"
    return True, "ok"
