"""Pure-numpy reference kernels — the ground truth every backend must match.

Ground truth by definition: compiled backends must agree with these
kernels to 1e-9 (enforced by :func:`repro.backend.base.parity_selfcheck`
and the parity-sweep tests).  The physics is written once, readably, in
:func:`pair_terms` and :func:`switching_terms` — the formulas behind
``repro.md.nonbonded.pair_interactions`` / ``switching_function`` and the
finite-difference tests.  :func:`nb_pairs`, the engines' pair kernel,
evaluates the same formulas arranged for numpy (component-major
displacements, index selection, in-place updates, the switching polynomial
on its band only; the Ewald real-space term read from the table of
:mod:`repro.backend.ewald_table`, as the compiled kernel reads it); tests
hold it to ``pair_terms`` + ``segment_add`` at 1e-12, the tabulated term at
the table's own bound.  :func:`block_pairs` is the pair-list build —
distance mask, exclusion lookup, the row list — and the other backends must
reproduce its arrays exactly, order included; :func:`nb_rows`, the cell tasks' kernel,
expands those rows back to pair arrays (:func:`expand_rows`) and is
``nb_pairs`` over them.  :func:`pme_spread` and :func:`pme_gather` are the
two halves of smooth PME, one ``bincount`` and four ``einsum`` calls over the splines
of :func:`pme_splines`, whose recursion and roundings ``kernels.c`` repeats:
both backends spread the same bits.  The numpy backend is deterministic — one reduction
order per kernel — which is what keeps trajectories and checkpoint resume
bit-identical run to run.

Import discipline: numpy and :mod:`repro.util` only.  ``repro.md`` modules
import :mod:`repro.backend` at module scope, so importing md back from here
would be circular.  The two constants below are duplicated for that reason
and guarded by tests against their ``repro.md`` counterparts.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend.base import KernelBackend
from repro.backend.ewald_table import ewald_table, ewald_terms
from repro.util.pbc import minimum_image

__all__ = ["build_backend", "expand_rows"]

#: Duplicated from :data:`repro.md.constants.COULOMB_CONSTANT` (circular
#: import — see module docstring); tests assert the two stay equal.
COULOMB_CONSTANT = 332.0636

#: Below this many contributions per output row (on average), the bincount
#: pass over the whole output array costs more than the generic scatter.
#: The two strategies round accumulated forces differently, so the value
#: is part of the numpy backend's bits (tests import it).
_BINCOUNT_MIN_FILL = 0.25


def segment_add(
    out: np.ndarray, idx: np.ndarray, contrib: np.ndarray, subtract: bool = False
) -> None:
    """Accumulate ``contrib[p]`` into ``out[idx[p]]`` (duplicates summed).

    ``out`` has shape ``(n, k)`` and ``contrib`` shape ``(m, k)`` for small
    ``k``.  Uses one ``np.bincount`` per component; falls back to
    ``np.add.at`` when the contribution count is small relative to ``n``
    (bincount would be dominated by its O(n) output pass).  ``subtract``
    accumulates ``-contrib`` without materialising it (the same bits:
    negation commutes with every rounding on the way).  Raw kernel:
    indices must already be validated (see ``repro.md.scatter``).
    """
    if len(idx) == 0:
        return
    n = out.shape[0]
    if len(idx) < _BINCOUNT_MIN_FILL * n:
        (np.subtract if subtract else np.add).at(out, idx, contrib)
        return
    for k in range(out.shape[1]):
        col = np.bincount(idx, weights=contrib[:, k], minlength=n)
        if subtract:
            out[:, k] -= col
        else:
            out[:, k] += col


def pair_mask(
    pos: np.ndarray,
    box: np.ndarray,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    cutoff: float,
) -> np.ndarray:
    """Minimum-image distance test: ``|x_j - x_i| < cutoff`` per pair."""
    delta = minimum_image(pos[j_idx] - pos[i_idx], box)
    r2 = np.einsum("ij,ij->i", delta, delta)
    return r2 < cutoff * cutoff


def switching_terms(
    r2: np.ndarray, switch: float, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """CHARMM switching function and its derivative w.r.t. ``r²``.

    Returns ``(S, dS_dr2)`` elementwise; ``S`` is 1 for ``r <= switch`` and
    0 for ``r >= cutoff``.
    """
    c2 = cutoff * cutoff
    s2 = switch * switch
    denom = (c2 - s2) ** 3
    S = np.ones_like(r2)
    dS = np.zeros_like(r2)
    mid = (r2 > s2) & (r2 < c2)
    rm = r2[mid]
    S[mid] = (c2 - rm) ** 2 * (c2 + 2.0 * rm - 3.0 * s2) / denom
    dS[mid] = 6.0 * (c2 - rm) * (s2 - rm) / denom
    S[r2 >= c2] = 0.0
    return S, dS


def pair_terms(
    delta: np.ndarray,
    r2: np.ndarray,
    eps_ij: np.ndarray,
    rmin_ij: np.ndarray,
    qq: np.ndarray,
    cutoff: float,
    switch: float,
    alpha: float | None = None,
    ewald_cutoff: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Switched-LJ + electrostatics math for pre-combined pair parameters.

    Returns ``(e_lj, e_elec, fvec)`` where ``fvec[p]`` is the force on atom
    ``i`` of pair ``p`` (atom ``j`` receives ``-fvec[p]``), consistent with
    ``delta = x_j - x_i``.  ``qq`` excludes the Coulomb constant.  The
    electrostatic term is the shifted point-charge form, or — with
    ``alpha`` set — the Ewald real-space term ``erfc(alpha r)/r`` inside
    ``ewald_cutoff`` (see ``nb_pairs`` in :mod:`repro.backend.base`).
    """
    r = np.sqrt(r2)
    inv_r = 1.0 / r
    inv_r2 = inv_r * inv_r

    # Lennard-Jones with switching
    sr2 = (rmin_ij * rmin_ij) * inv_r2
    sr6 = sr2 * sr2 * sr2
    sr12 = sr6 * sr6
    e_lj_raw = eps_ij * (sr12 - 2.0 * sr6)
    # dE/dr = -12 eps/r (sr12 - sr6)
    dE_lj_dr = -12.0 * eps_ij * inv_r * (sr12 - sr6)
    S, dS_dr2 = switching_terms(r2, switch, cutoff)
    e_lj = e_lj_raw * S
    dE_lj_total_dr = dE_lj_dr * S + e_lj_raw * dS_dr2 * 2.0 * r

    if alpha is None:
        # shifted electrostatics
        c2 = cutoff * cutoff
        shift = 1.0 - r2 / c2
        e_el_raw = COULOMB_CONSTANT * qq * inv_r
        e_elec = e_el_raw * shift * shift
        # d/dr [ (C qq / r)(1 - r²/c²)² ]
        dE_el_dr = COULOMB_CONSTANT * qq * (
            -inv_r2 * shift * shift + inv_r * 2.0 * shift * (-2.0 * r / c2)
        )
    else:
        # Ewald real space, truncated at its own cutoff
        from scipy.special import erfc

        cqq = COULOMB_CONSTANT * qq * (r2 < ewald_cutoff * ewald_cutoff)
        erfc_term = erfc(alpha * r)
        e_elec = cqq * erfc_term * inv_r
        # d/dr [ C qq erfc(ar)/r ]
        dE_el_dr = -cqq * (
            erfc_term * inv_r2
            + (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * alpha) * r2) * inv_r
        )

    dE_dr = dE_lj_total_dr + dE_el_dr
    # force on i = -dE/dx_i = +dE/dr * (delta / r)  given  delta = x_j - x_i
    # (since dr/dx_i = -delta/r).  Repulsive pair (dE/dr < 0) pushes i away
    # from j, i.e. along -delta. ✓
    fvec = (dE_dr * inv_r)[:, None] * delta
    return e_lj, e_elec, fvec


def nb_pairs(
    pos: np.ndarray,
    box: np.ndarray,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    eps: np.ndarray,
    rmin: np.ndarray,
    qq: np.ndarray,
    cutoff: float,
    switch: float,
    forces: np.ndarray,
    si: np.ndarray,
    sj: np.ndarray,
    alpha: float | None = None,
    ewald_cutoff: float | None = None,
) -> tuple[float, float, int]:
    """Fused distance filter + pair kernel + Newton's-third-law scatter.

    The formulas are those of :func:`pair_terms` (tests hold this kernel to
    it at 1e-12); what differs is the data movement.  Displacements live
    component-major, ``(3, m)``, so every pass is a contiguous run against
    a scalar box edge; a listed pair costs two row gathers, an in-place
    minimum image and a squared norm.  Survivors are selected once, by
    index, and everything after that updates per-survivor arrays in place:
    the force is carried as ``dE/dr / r`` so the unit vector is never
    formed, and the switching polynomial is evaluated on the ``r > switch``
    band only.
    """
    m = len(i_idx)
    if m == 0:
        return 0.0, 0.0, 0
    delta = np.empty((3, m))
    np.subtract(
        np.take(pos, j_idx, axis=0).T, np.take(pos, i_idx, axis=0).T, out=delta
    )
    edge = np.asarray(box, dtype=np.float64).reshape(3, 1)
    image = delta / edge
    np.rint(image, out=image)
    image *= edge
    delta -= image
    r2 = np.einsum("km,km->m", delta, delta)
    # Ewald mode: either term may reach further than the other
    reach = cutoff if alpha is None else max(cutoff, ewald_cutoff)
    keep = np.flatnonzero(r2 < reach * reach)
    if len(keep) == 0:
        return 0.0, 0.0, 0
    r2 = r2.take(keep)
    delta = delta.take(keep, axis=1)
    c2 = cutoff * cutoff
    s2 = switch * switch

    inv_r2 = 1.0 / r2
    # Lennard-Jones: e = eps (sr12 - 2 sr6), dE/dr / r = -12 eps (sr12 - sr6) / r²
    sr6 = rmin.take(keep)
    sr6 *= sr6
    sr6 *= inv_r2
    sr6 = sr6 * sr6 * sr6
    eps_k = eps.take(keep)
    e_lj = sr6 - 2.0
    e_lj *= sr6
    e_lj *= eps_k
    f_r = sr6 - 1.0
    f_r *= sr6
    f_r *= eps_k
    f_r *= inv_r2
    f_r *= -12.0
    # switching: S = 1 and dS/dr² = 0 below the band; beyond the LJ cutoff
    # (Ewald mode with the longer real-space reach) the clamp zeroes both
    band = np.flatnonzero(r2 > s2)
    if len(band):
        rb = r2.take(band)
        gap = c2 - rb
        if reach > cutoff:
            np.maximum(gap, 0.0, out=gap)
        denom = (c2 - s2) ** 3
        S = gap * gap * (c2 + 2.0 * rb - 3.0 * s2) / denom
        dS = 6.0 * gap * (s2 - rb) / denom
        eb = e_lj.take(band)
        # (dE/dr S + e dS/dr² 2r) / r
        f_r[band] = f_r.take(band) * S + 2.0 * eb * dS
        e_lj[band] = eb * S

    cqq = qq.take(keep)
    cqq *= COULOMB_CONSTANT
    if alpha is None:
        # shifted point charges: e = (C qq / r)(1 - r²/c²)²
        shift = r2 / (-c2)
        shift += 1.0
        e_el = cqq * np.sqrt(inv_r2)
        e_el *= shift
        # dE/dr / r = -(C qq / r)(shift² / r² + 4 shift / c²)
        f_el = shift * inv_r2
        f_el += 4.0 / c2
        f_el *= e_el
        f_r -= f_el
        e_el *= shift
    else:
        # Ewald real space, truncated at its own cutoff: e = C qq erfc(ar)/r
        # and -dE/dr / r = C qq (erfc(ar)/r + 2a/sqrt(pi) exp(-a² r²)) / r²,
        # both read from the table the compiled kernel reads
        table = ewald_table(float(alpha), float(ewald_cutoff))
        looked_up = r2
        if reach > ewald_cutoff:
            ec2 = ewald_cutoff * ewald_cutoff
            cqq *= r2 < ec2
            looked_up = np.minimum(r2, ec2)  # no term there: any interval will do
        e_el, f_el = ewald_terms(table, alpha, looked_up)
        e_el *= cqq
        f_el *= cqq
        f_r -= f_el

    # force on i = +dE/dr (delta / r) given delta = x_j - x_i; j gets the
    # negative
    delta *= f_r
    segment_add(forces, si.take(keep), delta.T)
    segment_add(forces, sj.take(keep), delta.T, subtract=True)
    if reach > cutoff:  # the count stays the pairs inside the LJ cutoff
        n_pairs = int(np.count_nonzero(r2 < c2))
    else:
        n_pairs = len(keep)
    return float(e_lj.sum()), float(e_el.sum()), n_pairs


def ewald_real(
    pos: np.ndarray,
    box: np.ndarray,
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    qq: np.ndarray,
    alpha: float,
    cutoff: float,
    forces: np.ndarray,
) -> float:
    """Ewald real-space sum (``qq`` includes the Coulomb constant)."""
    from scipy.special import erfc

    if len(i_idx) == 0:
        return 0.0
    delta = minimum_image(pos[j_idx] - pos[i_idx], box)
    r2 = np.einsum("ij,ij->i", delta, delta)
    within = (r2 < cutoff * cutoff) & (r2 > 1e-12)
    if not np.any(within):
        return 0.0
    delta, r2, qq_w = delta[within], r2[within], qq[within]
    r = np.sqrt(r2)
    erfc_term = erfc(alpha * r)
    energy = float(np.sum(qq_w * erfc_term / r))
    # dE/dr = -qq [ erfc(ar)/r^2 + 2a/sqrt(pi) exp(-a^2 r^2)/r ]
    dE_dr = -qq_w * (
        erfc_term / r2 + (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * r) ** 2) / r
    )
    fvec = (dE_dr / r)[:, None] * delta
    segment_add(forces, i_idx[within], fvec)
    segment_add(forces, j_idx[within], -fvec)
    return energy


_MIN_SIN = 1e-8  # collinear-angle guard, duplicated from repro.md.bonded


def _torsion_geometry(pos, box, idx):
    """Shared dihedral/improper geometry (see ``repro.md.bonded``)."""
    b1 = minimum_image(pos[idx[:, 1]] - pos[idx[:, 0]], box)
    b2 = minimum_image(pos[idx[:, 2]] - pos[idx[:, 1]], box)
    b3 = minimum_image(pos[idx[:, 3]] - pos[idx[:, 2]], box)
    m = np.cross(b1, b2)
    n = np.cross(b2, b3)
    nb2 = np.linalg.norm(b2, axis=1)
    # phi = atan2((m × n)·b̂2, m·n)
    mxn = np.cross(m, n)
    sin_term = np.einsum("ij,ij->i", mxn, b2) / np.maximum(nb2, 1e-12)
    cos_term = np.einsum("ij,ij->i", m, n)
    phi = np.arctan2(sin_term, cos_term)
    m2 = np.maximum(np.einsum("ij,ij->i", m, m), 1e-12)
    n2 = np.maximum(np.einsum("ij,ij->i", n, n), 1e-12)
    return phi, m, n, b1, b2, b3, nb2, m2, n2


def _torsion_forces(dE_dphi, m, n, b1, b2, b3, nb2, m2, n2):
    """Cartesian torsion forces from ``dE/dφ`` (Bekker analytic gradient)."""
    b2sq = np.maximum(nb2 * nb2, 1e-12)
    dphi_dri = (-nb2 / m2)[:, None] * m
    dphi_drl = (nb2 / n2)[:, None] * n
    t = (np.einsum("ij,ij->i", b1, b2) / b2sq)[:, None]
    s = (np.einsum("ij,ij->i", b3, b2) / b2sq)[:, None]
    dphi_drj = -(1.0 + t) * dphi_dri + s * dphi_drl
    dphi_drk = -(1.0 + s) * dphi_drl + t * dphi_dri
    scale = (-dE_dphi)[:, None]
    return scale * dphi_dri, scale * dphi_drj, scale * dphi_drk, scale * dphi_drl


def bonded_terms(
    pos: np.ndarray,
    box: np.ndarray,
    kind: int,
    idx: np.ndarray,
    kpar: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    forces: np.ndarray,
    sidx: np.ndarray,
) -> float:
    """Vectorized bonded-term kernel for one kind (0 bond, 1 angle, 2
    dihedral, 3 improper); scatters at ``sidx`` rows, returns the energy.

    The math is the historical ``repro.md.bonded`` code moved here verbatim
    (same operations in the same order, scattering through
    :func:`segment_add`), so routing the md wrappers through this kernel is
    bit-for-bit neutral on the numpy backend.
    """
    if len(idx) == 0:
        return 0.0
    if kind == 0:  # harmonic bond: E = k (r - r0)^2
        delta = minimum_image(pos[idx[:, 1]] - pos[idx[:, 0]], box)
        r = np.linalg.norm(delta, axis=1)
        stretch = r - p1
        energy = float(np.dot(kpar, stretch * stretch))
        fmag = (2.0 * kpar * stretch / np.maximum(r, 1e-12))[:, None]
        fvec = fmag * delta
        segment_add(forces, sidx[:, 0], fvec)
        segment_add(forces, sidx[:, 1], -fvec)
        return energy
    if kind == 1:  # harmonic angle: E = k (theta - theta0)^2
        a = minimum_image(pos[idx[:, 0]] - pos[idx[:, 1]], box)
        b = minimum_image(pos[idx[:, 2]] - pos[idx[:, 1]], box)
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        ah = a / na[:, None]
        bh = b / nb[:, None]
        cos_t = np.clip(np.einsum("ij,ij->i", ah, bh), -1.0, 1.0)
        theta = np.arccos(cos_t)
        sin_t = np.maximum(np.sqrt(1.0 - cos_t * cos_t), _MIN_SIN)
        diff = theta - p1
        energy = float(np.dot(kpar, diff * diff))
        dE_dtheta = 2.0 * kpar * diff
        fi = (-dE_dtheta / (na * sin_t))[:, None] * (cos_t[:, None] * ah - bh)
        fk = (-dE_dtheta / (nb * sin_t))[:, None] * (cos_t[:, None] * bh - ah)
        fj = -(fi + fk)
        segment_add(forces, sidx[:, 0], fi)
        segment_add(forces, sidx[:, 1], fj)
        segment_add(forces, sidx[:, 2], fk)
        return energy
    if kind == 2:  # cosine torsion: E = k (1 + cos(n phi - delta))
        phi, m, n, b1, b2, b3, nb2, m2, n2 = _torsion_geometry(pos, box, idx)
        arg = p1 * phi - p2
        energy = float(np.dot(kpar, 1.0 + np.cos(arg)))
        dE_dphi = -kpar * p1 * np.sin(arg)
    elif kind == 3:  # harmonic improper: E = k (psi - psi0)^2, wrapped
        phi, m, n, b1, b2, b3, nb2, m2, n2 = _torsion_geometry(pos, box, idx)
        diff = phi - p1
        diff = (diff + np.pi) % (2.0 * np.pi) - np.pi
        energy = float(np.dot(kpar, diff * diff))
        dE_dphi = 2.0 * kpar * diff
    else:
        raise ValueError(f"unknown bonded term kind {kind!r}")
    fi, fj, fk, fl = _torsion_forces(dE_dphi, m, n, b1, b2, b3, nb2, m2, n2)
    segment_add(forces, sidx[:, 0], fi)
    segment_add(forces, sidx[:, 1], fj)
    segment_add(forces, sidx[:, 2], fk)
    segment_add(forces, sidx[:, 3], fl)
    return energy


def ewald_recip(
    pos: np.ndarray,
    q: np.ndarray,
    kvecs: np.ndarray,
    ak: np.ndarray,
    pref: np.ndarray,
    forces: np.ndarray,
    mvecs: np.ndarray | None = None,
) -> float:
    """Ewald reciprocal-space sum over precomputed ``(kvecs, ak)`` tables.

    One ``sin``/``cos`` per atom and k-vector, so the integer triplets
    ``mvecs`` behind ``kvecs`` are not needed and are ignored."""
    if len(kvecs) == 0:
        return 0.0
    phase = pos @ kvecs.T  # (n, nk)
    cos_p = np.cos(phase)
    sin_p = np.sin(phase)
    S_re = q @ cos_p  # (nk,)
    S_im = q @ sin_p
    energy = float(pref * np.sum(ak * (S_re * S_re + S_im * S_im)))
    # F_i = (4 pi C q_i / V) sum_k ak k [ sin(k.r_i) S_re - cos(k.r_i) S_im ]
    coeff = (sin_p * S_re[None, :] - cos_p * S_im[None, :]) * ak[None, :]
    fvec = 2.0 * pref * (coeff @ kvecs)  # (n, 3)
    forces += q[:, None] * fvec
    return energy


#: Highest B-spline order the PME kernels take: the compiled kernels keep an
#: atom's weights in fixed arrays of this length on the stack.
PME_MAX_ORDER = 8


def _pme_check(grid: np.ndarray, order: int) -> None:
    """The PME kernels' error: an order outside ``[2, PME_MAX_ORDER]``, or a
    grid axis shorter than the order (an atom's spline would wrap onto
    itself), refused before anything is written."""
    if not 2 <= order <= PME_MAX_ORDER:
        raise ValueError(f"B-spline order must lie in [2, {PME_MAX_ORDER}]")
    if grid.ndim != 3 or min(grid.shape) < order:
        raise ValueError("every PME grid axis must hold at least `order` points")


def pme_splines(
    pos: np.ndarray, box: np.ndarray, dims, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each atom's cardinal B-spline weights on the grid, per axis.

    Returns ``(idx, m, dm)``, all ``(n, 3, order)``: grid point
    ``idx[a, d, j]`` (the point ``floor(u) - j``, periodic) carries weight
    ``m[a, d, j] = M_order(w + j)`` and derivative ``dm[a, d, j]`` with
    respect to ``u``, where ``u = dims[d] * x / L`` folded into ``[0,
    dims[d])`` and ``w`` its fraction.  The recursion (Essmann et al.
    1995, eq. 4.1) and every rounding are those of ``kernels.c``, so both
    backends spread onto the same points with the same weights.
    """
    n = len(pos)
    idx = np.empty((n, 3, order), dtype=np.int64)
    m = np.empty((n, 3, order))
    dm = np.empty((n, 3, order))
    for d in range(3):
        size = int(dims[d])
        s = pos[:, d] / box[d]
        s = s - np.floor(s)
        u = s * size
        u[u >= size] -= size  # s rounded up to 1.0
        # a non-finite coordinate reads point 0 with NaN weights
        base = np.where(u < size, u, 0.0).astype(np.int64)
        w = u - base
        spline = m[:, d]
        spline[:, 0] = 1.0
        for p in range(2, order + 1):
            inv = 1.0 / (p - 1)
            if p == order:  # M_n' = M_{n-1}(x) - M_{n-1}(x - 1)
                dm[:, d, 0] = spline[:, 0]
                dm[:, d, 1 : p - 1] = spline[:, 1 : p - 1] - spline[:, : p - 2]
                dm[:, d, p - 1] = -spline[:, p - 2]
            spline[:, p - 1] = (1.0 - w) * spline[:, p - 2] * inv
            for j in range(p - 2, 0, -1):
                spline[:, j] = (
                    (w + j) * spline[:, j] + ((p - j) - w) * spline[:, j - 1]
                ) * inv
            spline[:, 0] = w * spline[:, 0] * inv
        point = base[:, None] - np.arange(order)
        idx[:, d] = np.where(point < 0, point + size, point)
    return idx, m, dm


def pme_spread(
    pos: np.ndarray, q: np.ndarray, box: np.ndarray, grid: np.ndarray, order: int
) -> None:
    """Charges onto the PME grid: ``grid`` (caller-owned, ``(K0, K1, K2)``)
    is overwritten with ``Q(k) = sum_a q_a M(u_a - k)`` over the periodic
    grid — one ``bincount``, each point's charges summed in atom order."""
    _pme_check(grid, order)
    idx, m, _ = pme_splines(pos, box, grid.shape, order)
    k1, k2 = grid.shape[1], grid.shape[2]
    flat = (
        idx[:, 0, :, None, None] * k1 + idx[:, 1, None, :, None]
    ) * k2 + idx[:, 2, None, None, :]
    weight = (
        (q[:, None] * m[:, 0])[:, :, None] * m[:, 1, None, :]
    )[:, :, :, None] * m[:, 2, None, None, :]
    grid[...] = np.bincount(
        flat.reshape(-1), weight.reshape(-1), minlength=grid.size
    ).reshape(grid.shape)


def pme_gather(
    pos: np.ndarray,
    q: np.ndarray,
    box: np.ndarray,
    grid: np.ndarray,
    order: int,
    forces: np.ndarray,
) -> float:
    """The potential grid back onto the atoms: ``phi_a = sum_k M(u_a - k)
    grid(k)``; forces ``-q_a grad phi_a`` accumulate into ``forces`` and the
    energy ``sum_a q_a phi_a / 2`` is returned."""
    _pme_check(grid, order)
    idx, m, dm = pme_splines(pos, box, grid.shape, order)
    k1, k2 = grid.shape[1], grid.shape[2]
    flat = (
        idx[:, 0, :, None, None] * k1 + idx[:, 1, None, :, None]
    ) * k2 + idx[:, 2, None, None, :]
    values = grid.reshape(-1)[flat]  # (n, order, order, order)
    mx, my, mz = m[:, 0], m[:, 1], m[:, 2]
    dx, dy, dz = dm[:, 0], dm[:, 1], dm[:, 2]
    phi = np.einsum("aijk,ai,aj,ak->a", values, mx, my, mz)
    grad = np.stack(
        [
            np.einsum("aijk,ai,aj,ak->a", values, dx, my, mz),
            np.einsum("aijk,ai,aj,ak->a", values, mx, dy, mz),
            np.einsum("aijk,ai,aj,ak->a", values, mx, my, dz),
        ],
        axis=1,
    )
    # du/dx = K / L per axis
    forces -= q[:, None] * grad * (np.asarray(grid.shape) / box)
    return 0.5 * float(q @ phi)


def _block_within(xa: np.ndarray, xb: np.ndarray, box: np.ndarray, r: float):
    """Dense minimum-image test ``|xb[c] - xa[r]| < r`` as a
    ``(len(xa), len(xb))`` mask, one axis at a time."""
    r2 = None
    for k in range(3):
        d = np.subtract.outer(xa[:, k], xb[:, k])
        fold = d / box[k]
        np.rint(fold, out=fold)
        fold *= box[k]
        d -= fold
        d *= d
        if r2 is None:
            r2 = d
        else:
            r2 += d
    return r2 < r * r


def _block_excluded(excl_ptr, partners, rows_a, si, j_g, n_atoms):
    """Whether each in-range pair (stripe row ``si``, atom ``j_g``) is in
    the per-atom exclusion table: the stripe's table rows flattened to
    sorted ``row * n_atoms + partner`` keys, one ``searchsorted``."""
    start = excl_ptr[rows_a]
    count = excl_ptr[rows_a + 1] - start
    total = int(count.sum())
    if total == 0:
        return np.zeros(len(si), dtype=bool)
    owner = np.repeat(np.arange(len(rows_a)), count)
    first = np.cumsum(count) - count  # each row's first slot in `keys`
    keys = owner * n_atoms + partners[start[owner] + np.arange(total) - first[owner]]
    wanted = si * n_atoms + j_g
    slot = np.minimum(np.searchsorted(keys, wanted), total - 1)
    return keys[slot] == wanted


def block_pairs(
    pos: np.ndarray,
    box: np.ndarray,
    atoms_a: np.ndarray,
    atoms_b: np.ndarray | None,
    part: int,
    n_parts: int,
    r: float,
    tables: tuple | None = None,
    out: tuple | None = None,
    offset: int = 0,
) -> int:
    """Pairs of one dense cell block within ``r``: counted, or listed as
    rows into ``out`` at ``offset`` (see the contract in
    :mod:`repro.backend.base`).

    The distance test runs on the block's dense coordinates
    (:func:`_block_within`); the in-range entries, read in row-major order,
    *are* the block rows, so no per-candidate index array is ever formed
    and the exclusion lookup sees in-range pairs only.
    """
    atoms_a = np.asarray(atoms_a)
    self_block = atoms_b is None
    atoms_b = atoms_a if self_block else np.asarray(atoms_b)
    rows = np.arange(part, len(atoms_a), n_parts)
    if tables is not None:
        cols, row_ptr = out
        n_rows = len(atoms_a) if self_block else len(rows) + len(atoms_b)
        if len(row_ptr) != n_rows + 1:
            raise ValueError("row_ptr must hold one entry per block row plus one")
    if len(rows) == 0 or len(atoms_b) == 0:
        if tables is not None:
            row_ptr[:] = offset
        return 0
    rows_a = atoms_a[rows]
    # numpy's gather raises beyond the end but wraps a negative index
    if rows_a.min() < 0 or atoms_b.min() < 0:
        raise IndexError("block atom index out of range")
    box = np.asarray(box, dtype=np.float64)
    within = _block_within(pos[rows_a], pos[atoms_b], box, r)
    if self_block:  # each pair once: the upper triangle of the cell's block
        within &= rows[:, None] < np.arange(len(atoms_b))
    if tables is None:
        return int(np.count_nonzero(within))
    excl_ptr, partners = tables
    si, sj = np.divmod(np.flatnonzero(within), len(atoms_b))
    keep = ~_block_excluded(excl_ptr, partners, rows_a, si, atoms_b[sj], len(pos))
    n = int(np.count_nonzero(keep))
    if offset + n > len(cols):
        return -1
    si, sj = si[keep], sj[keep]
    # block rows: a self task's are the cell's own, a pair task's the
    # stripe followed by cell b
    cols[offset : offset + n] = sj if self_block else sj + len(rows)
    row_ptr[0] = offset
    np.cumsum(
        np.bincount(rows[si] if self_block else si, minlength=n_rows),
        out=row_ptr[1:],
    )
    row_ptr[1:] += offset
    return n


def expand_rows(cols: np.ndarray, row_ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(si, sj)`` block-row arrays of one task's row list — the pair
    arrays ``nb_pairs`` scatters through, in list order."""
    si = np.repeat(np.arange(len(row_ptr) - 1, dtype=np.int64), np.diff(row_ptr))
    return si, cols[row_ptr[0] : row_ptr[-1]].astype(np.int64)


#: the IndexError of a batch whose task {} holds an index neither backend
#: follows
CORRUPT = "row list of task {} of the batch is corrupt"


def _check_indices(idx: np.ndarray, bound: int, t: int) -> None:
    """numpy's gathers wrap a negative index and the kernels' contract is an
    error: every index array of task ``t`` is range-checked before use."""
    if len(idx) and (idx.min() < 0 or idx.max() >= bound):
        raise IndexError(CORRUPT.format(t))


def nb_rows(
    pos: np.ndarray,
    box: np.ndarray,
    tables: tuple,
    lists: tuple,
    cutoff: float,
    switch: float,
    scratch: np.ndarray,
    block_off: np.ndarray,
    out: np.ndarray,
    alpha: float | None = None,
    ewald_cutoff: float | None = None,
) -> None:
    """A batch of cell tasks over their row lists (the contract in
    :mod:`repro.backend.base`): each task's rows expanded to the pair arrays
    they stand for — atoms through ``rows``, parameters through the type
    tables — and handed to :func:`nb_pairs`."""
    type_idx, charges, eps_tab, rmin_tab = tables
    cols, row_ptr, rows, row_off = lists
    n_types = len(eps_tab)
    for t in range(len(block_off)):
        started = time.perf_counter_ns()
        lo, hi = int(row_off[t]), int(row_off[t + 1])
        at = int(block_off[t])
        atoms, ptr = rows[lo:hi], row_ptr[lo + t : hi + t + 1]
        n_rows = hi - lo
        if (
            not 0 <= lo <= hi <= len(rows)
            or len(ptr) != n_rows + 1
            or at < 0
            or at + n_rows > len(scratch)
            or ptr[0] < 0
            or ptr[-1] > len(cols)
            or np.any(ptr[1:] < ptr[:-1])
        ):
            raise IndexError(CORRUPT.format(t))
        si, sj = expand_rows(cols, ptr)
        _check_indices(atoms, len(pos), t)
        _check_indices(sj, n_rows, t)
        types = type_idx[atoms]
        _check_indices(types, n_types, t)
        block = scratch[at : at + n_rows]
        block[...] = 0.0
        i_g, j_g = atoms[si], atoms[sj]
        ti, tj = types[si], types[sj]
        out[t, :3] = nb_pairs(
            pos, box, i_g, j_g, eps_tab[ti, tj], rmin_tab[ti, tj],
            charges[i_g] * charges[j_g], cutoff, switch, block, si, sj,
            alpha, ewald_cutoff,
        )
        out[t, 3] = time.perf_counter_ns() - started


def build_backend() -> KernelBackend:
    """The numpy reference backend instance."""
    return KernelBackend(
        name="numpy",
        compiled=False,
        nb_pairs=nb_pairs,
        pair_mask=pair_mask,
        segment_add=segment_add,
        ewald_real=ewald_real,
        ewald_recip=ewald_recip,
        bonded_terms=bonded_terms,
        pme_spread=pme_spread,
        pme_gather=pme_gather,
        block_pairs=block_pairs,
        nb_rows=nb_rows,
    )
