"""Kernel-backend contract and the parity self-check.

A :class:`KernelBackend` bundles the eight kernels every backend must
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

    ``n_pairs`` counts the pairs inside ``cutoff`` in either mode.

``pair_mask(pos, box, i_idx, j_idx, cutoff) -> bool[m]``
    Minimum-image distance test only.

``segment_add(out, idx, contrib) -> None``
    Raw segment-sum scatter (duplicates summed); index validation happens
    once in :func:`repro.md.scatter.segment_add`, not here.

``ewald_real(pos, box, i_idx, j_idx, qq, alpha, cutoff, forces) -> energy``
    Ewald real-space sum on its own.  ``qq`` here *includes* the Coulomb
    constant (matching the historical call site).  No engine calls it: it
    is the kernel of the oracle :func:`repro.md.ewald.compute_ewald`, which
    the engines' Ewald-mode ``nb_pairs`` is held to.

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

``ewald_recip_shard(pos, q, kvecs, ak, pref, forces, mvecs=None) -> energy``
    Same contract as ``ewald_recip`` evaluated over a contiguous *shard*
    of the tables (the caller slices ``kvecs``/``ak``/``mvecs``).  Because every
    k-vector's contribution is independent, summing shard results over a
    partition of the tables must reproduce ``ewald_recip`` of the full
    tables to rounding error — the parity self-check enforces this.

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
    * *list mode*: ``tables = (excl_ptr, excl_partners, type_idx, eps_t,
      rmin_t, charges)`` — a per-atom exclusion table (``excl_partners[
      excl_ptr[i]:excl_ptr[i+1]]`` ascending, both directions of every
      1-2/1-3/1-4 pair, int64), per-atom type indices (int64) into the
      per-type LJ tables, and per-atom charges.  In-range pairs not in the
      table are written into ``out = (i_g, j_g, si, sj, eps, rmin, qq)`` —
      caller-owned, C-contiguous, equally long, int32/int32/int64/int64/
      float64 x3 — starting at ``offset``: global atom indices, block rows
      (a self block's are the cell's own rows; a pair block's are the
      stripe's ``0..ns-1`` followed by cell b's ``ns..``), and the
      Lorentz-Berthelot combination ``sqrt(eps_i eps_j)``, ``rmin_i +
      rmin_j``, ``q_i q_j``.  Returns the number written, or ``-1`` — *does
      not fit* — when ``out`` is too short, in which case nothing is
      written past its end (what lies between ``offset`` and the end is
      unspecified).

    Pairs are emitted in row-major order — stripe rows ascending, columns
    ascending within a row — and with the reference's arithmetic bit for
    bit (the fold is ``d - L rint(d / L)`` per component, the sum ``(dx² +
    dy²) + dz²``), so every backend lists exactly the reference's arrays:
    list order is the pair kernel's accumulation order, and the self-check
    holds this kernel to array identity, not to a tolerance.  An atom
    index outside ``pos`` (negative included) is an ``IndexError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "KernelBackend",
    "block_arena",
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
    ewald_recip_shard: Callable[..., float]
    block_pairs: Callable[..., int]

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
        "shard_split": 17,  # shard boundary exercised by the self-check
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


def block_arena(capacity: int) -> tuple[np.ndarray, ...]:
    """The seven arrays ``block_pairs`` lists into, ``capacity`` entries
    each — ``(i_g, j_g, si, sj, eps, rmin, qq)`` — carved from one
    allocation (48 bytes an entry, the 8-byte arrays first), so an arena
    is one block of memory to map, touch and give back."""
    base = np.empty(48 * capacity, dtype=np.uint8)
    wide = base[: 40 * capacity].reshape(5, -1)
    narrow = base[40 * capacity :].reshape(2, -1)
    si, sj = (wide[k].view(np.int64) for k in (0, 1))
    eps, rmin, qq = (wide[k].view(np.float64) for k in (2, 3, 4))
    i_g, j_g = (narrow[k].view(np.int32) for k in (0, 1))
    return i_g, j_g, si, sj, eps, rmin, qq


def _block_lists(backend: KernelBackend, p: dict[str, Any]):
    """``block_pairs`` over the synthetic problem's blocks: per block the
    count-mode result and the listed arrays (None when it did not fit)."""
    tables = tuple(
        p[k] for k in
        ("excl_ptr", "excl_partners", "type_idx", "eps_t", "rmin_t", "charges")
    )
    cell_a = np.arange(0, p["n"], 2)
    cell_b = np.arange(1, p["n"], 2)
    results = []
    for atoms_b, n_parts in ((None, 1), (None, 2), (cell_b, 1), (cell_b, 3)):
        for part in range(n_parts):
            block = (p["pos"], p["box"], cell_a, atoms_b, part, n_parts, p["cutoff"])
            arena = block_arena(3 + len(cell_a) * len(cell_b))
            n = backend.block_pairs(*block, tables, arena, 3)
            listed = None if n < 0 else [arr[3 : 3 + n] for arr in arena]
            results.append((backend.block_pairs(*block), listed))
    return results


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

        # segment_add
        s_c = np.zeros((p["n"], 3))
        s_r = np.zeros((p["n"], 3))
        candidate.segment_add(s_c, p["scatter_idx"], p["contrib"])
        reference.segment_add(s_r, p["scatter_idx"], p["contrib"])
        if not _close(s_c, s_r, tol):
            return False, "segment_add: sums disagree"

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

        # ewald_recip_shard: two shards must reproduce the full recip sum
        lo = int(p["shard_split"])
        fs_c = np.zeros((p["n"], 3))
        es_c = 0.0
        for sl in (slice(0, lo), slice(lo, len(p["kvecs"]))):
            es_c += candidate.ewald_recip_shard(
                p["pos"], p["charges"], p["kvecs"][sl], p["ak"][sl],
                p["pref"], fs_c, p["mvecs"][sl],
            )
        if not _close(es_c, ek_r, tol) or not _close(fs_c, fk_r, tol):
            return False, "ewald_recip_shard: sharded sum != full recip sum"

        # block_pairs: array identity, not a tolerance — list order is the
        # pair kernel's accumulation order
        blocks_r = _block_lists(reference, p)
        if not any(listed is not None and len(listed[0]) for _, listed in blocks_r):
            return False, "block_pairs: synthetic problem listed no pairs"
        for (n_c, l_c), (n_r, l_r) in zip(_block_lists(candidate, p), blocks_r):
            if n_c != n_r:
                return False, f"block_pairs: count {n_c} != {n_r}"
            if l_c is None or l_r is None or not all(
                a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(l_c, l_r)
            ):
                return False, "block_pairs: lists differ"
    except Exception as exc:  # noqa: BLE001 - fold any kernel failure into fallback
        return False, f"{type(exc).__name__}: {exc}"
    return True, "ok"
