"""Numba-JIT kernels: serial compiled loops behind the backend contract.

Design notes:

* Kernels are **serial** ``@njit`` loops with ``fastmath`` off — no
  ``prange``.  A parallel reduction would make the floating-point
  summation order nondeterministic across runs, breaking the engine's
  bit-identical-repeat guarantee; process-level parallelism already comes
  from the ``ParallelEngine`` worker pool, so each compiled kernel only
  needs to be fast on one core.
* The minimum-image fold reproduces numpy's round-half-to-even exactly
  (see :func:`_round_half_even`): lattice systems (rock salt in the tests)
  place atom pairs at exactly half a box length, where round-half-up would
  flip the image — and with it the force direction.
* ``cache=True`` persists compiled machine code next to this module so
  pool workers and repeat runs skip recompilation.
* Wrappers coerce index arrays to contiguous ``int64`` and floats to
  ``float64`` so each kernel compiles one specialization.

This module is only imported by the registry's lazy ``numba`` loader;
``build_backend()`` raises ``ImportError`` when numba is missing, and any
compilation failure surfaces during the registry's parity self-check (the
first real call), which falls back to the numpy reference backend.
"""

from __future__ import annotations

import math

import numpy as np

from repro.backend.base import KernelBackend
from repro.backend.reference import COULOMB_CONSTANT

__all__ = ["HAS_NUMBA", "build_backend"]

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        raise ImportError("numba is not installed")


def _as_i8(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _as_f8(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


if HAS_NUMBA:

    @njit(cache=True, inline="always")
    def _round_half_even(t):
        # floor + exact fractional part, then round ties to even — matches
        # np.round bit-for-bit (t - floor(t) is exact for |t| < 2^52).
        rt = float(math.floor(t))
        frac = t - rt
        if frac > 0.5:
            rt += 1.0
        elif frac == 0.5:
            up = rt + 1.0
            if up % 2.0 == 0.0:
                rt = up
        return rt

    @njit(cache=True, inline="always")
    def _min_image_1d(d, length):
        return d - length * _round_half_even(d / length)

    @njit(cache=True)
    def _nb_pairs_jit(pos, box, i_idx, j_idx, eps, rmin, qq, cutoff, switch,
                      coulomb, forces, si, sj, alpha, ewald_cutoff):
        # alpha <= 0 selects the shifted point-charge term, alpha > 0 the
        # Ewald real-space term inside ewald_cutoff
        c2 = cutoff * cutoff
        s2 = switch * switch
        denom = (c2 - s2) ** 3
        ec2 = ewald_cutoff * ewald_cutoff
        reach2 = c2
        if alpha > 0.0 and ec2 > c2:
            reach2 = ec2
        two_a_rtpi = 2.0 * alpha / math.sqrt(math.pi)
        bx, by, bz = box[0], box[1], box[2]
        e_lj_tot = 0.0
        e_el_tot = 0.0
        n_pairs = 0
        for p in range(i_idx.shape[0]):
            i = i_idx[p]
            j = j_idx[p]
            dx = _min_image_1d(pos[j, 0] - pos[i, 0], bx)
            dy = _min_image_1d(pos[j, 1] - pos[i, 1], by)
            dz = _min_image_1d(pos[j, 2] - pos[i, 2], bz)
            r2 = dx * dx + dy * dy + dz * dz
            if r2 >= reach2:
                continue
            r = math.sqrt(r2)
            inv_r = 1.0 / r
            inv_r2 = inv_r * inv_r

            e_lj = 0.0
            dE_lj_total_dr = 0.0
            if r2 < c2:
                n_pairs += 1
                rm = rmin[p]
                sr2 = (rm * rm) * inv_r2
                sr6 = sr2 * sr2 * sr2
                sr12 = sr6 * sr6
                e_lj_raw = eps[p] * (sr12 - 2.0 * sr6)
                dE_lj_dr = -12.0 * eps[p] * inv_r * (sr12 - sr6)
                if r2 > s2:
                    S = (c2 - r2) ** 2 * (c2 + 2.0 * r2 - 3.0 * s2) / denom
                    dS_dr2 = 6.0 * (c2 - r2) * (s2 - r2) / denom
                else:
                    S = 1.0
                    dS_dr2 = 0.0
                e_lj = e_lj_raw * S
                dE_lj_total_dr = dE_lj_dr * S + e_lj_raw * dS_dr2 * 2.0 * r

            if alpha > 0.0:
                e_el = 0.0
                dE_el_dr = 0.0
                if r2 < ec2:
                    cqq = coulomb * qq[p]
                    erfc_term = math.erfc(alpha * r)
                    e_el = cqq * erfc_term * inv_r
                    dE_el_dr = -cqq * (
                        erfc_term * inv_r2
                        + two_a_rtpi * math.exp(-(alpha * alpha) * r2) * inv_r
                    )
            else:
                shift = 1.0 - r2 / c2
                e_el_raw = coulomb * qq[p] * inv_r
                e_el = e_el_raw * shift * shift
                dE_el_dr = coulomb * qq[p] * (
                    -inv_r2 * shift * shift + inv_r * 2.0 * shift * (-2.0 * r / c2)
                )

            f = (dE_lj_total_dr + dE_el_dr) * inv_r
            fx = f * dx
            fy = f * dy
            fz = f * dz
            a = si[p]
            b = sj[p]
            forces[a, 0] += fx
            forces[a, 1] += fy
            forces[a, 2] += fz
            forces[b, 0] -= fx
            forces[b, 1] -= fy
            forces[b, 2] -= fz
            e_lj_tot += e_lj
            e_el_tot += e_el
        return e_lj_tot, e_el_tot, n_pairs

    @njit(cache=True)
    def _pair_mask_jit(pos, box, i_idx, j_idx, cutoff, out):
        c2 = cutoff * cutoff
        bx, by, bz = box[0], box[1], box[2]
        for p in range(i_idx.shape[0]):
            i = i_idx[p]
            j = j_idx[p]
            dx = _min_image_1d(pos[j, 0] - pos[i, 0], bx)
            dy = _min_image_1d(pos[j, 1] - pos[i, 1], by)
            dz = _min_image_1d(pos[j, 2] - pos[i, 2], bz)
            out[p] = (dx * dx + dy * dy + dz * dz) < c2

    @njit(cache=True)
    def _segment_add_jit(out, idx, contrib):
        for p in range(idx.shape[0]):
            t = idx[p]
            for k in range(contrib.shape[1]):
                out[t, k] += contrib[p, k]

    @njit(cache=True)
    def _ewald_real_jit(pos, box, i_idx, j_idx, qq, alpha, cutoff, forces):
        c2 = cutoff * cutoff
        bx, by, bz = box[0], box[1], box[2]
        two_a_rtpi = 2.0 * alpha / math.sqrt(math.pi)
        energy = 0.0
        for p in range(i_idx.shape[0]):
            i = i_idx[p]
            j = j_idx[p]
            dx = _min_image_1d(pos[j, 0] - pos[i, 0], bx)
            dy = _min_image_1d(pos[j, 1] - pos[i, 1], by)
            dz = _min_image_1d(pos[j, 2] - pos[i, 2], bz)
            r2 = dx * dx + dy * dy + dz * dz
            if r2 >= c2 or r2 <= 1e-12:
                continue
            r = math.sqrt(r2)
            erfc_term = math.erfc(alpha * r)
            energy += qq[p] * erfc_term / r
            dE_dr = -qq[p] * (
                erfc_term / r2 + two_a_rtpi * math.exp(-(alpha * r) ** 2) / r
            )
            f = dE_dr / r
            fx = f * dx
            fy = f * dy
            fz = f * dz
            forces[i, 0] += fx
            forces[i, 1] += fy
            forces[i, 2] += fz
            forces[j, 0] -= fx
            forces[j, 1] -= fy
            forces[j, 2] -= fz
        return energy

    @njit(cache=True)
    def _bonds_jit(pos, box, idx, kpar, p1, forces, sidx):
        bx, by, bz = box[0], box[1], box[2]
        energy = 0.0
        for p in range(idx.shape[0]):
            i = idx[p, 0]
            j = idx[p, 1]
            dx = _min_image_1d(pos[j, 0] - pos[i, 0], bx)
            dy = _min_image_1d(pos[j, 1] - pos[i, 1], by)
            dz = _min_image_1d(pos[j, 2] - pos[i, 2], bz)
            r = math.sqrt(dx * dx + dy * dy + dz * dz)
            stretch = r - p1[p]
            energy += kpar[p] * stretch * stretch
            rsafe = r if r > 1e-12 else 1e-12
            fmag = 2.0 * kpar[p] * stretch / rsafe
            fx = fmag * dx
            fy = fmag * dy
            fz = fmag * dz
            a = sidx[p, 0]
            b = sidx[p, 1]
            forces[a, 0] += fx
            forces[a, 1] += fy
            forces[a, 2] += fz
            forces[b, 0] -= fx
            forces[b, 1] -= fy
            forces[b, 2] -= fz
        return energy

    @njit(cache=True)
    def _angles_jit(pos, box, idx, kpar, p1, forces, sidx):
        bx, by, bz = box[0], box[1], box[2]
        energy = 0.0
        for p in range(idx.shape[0]):
            i = idx[p, 0]
            j = idx[p, 1]
            k3 = idx[p, 2]
            ax = _min_image_1d(pos[i, 0] - pos[j, 0], bx)
            ay = _min_image_1d(pos[i, 1] - pos[j, 1], by)
            az = _min_image_1d(pos[i, 2] - pos[j, 2], bz)
            cx = _min_image_1d(pos[k3, 0] - pos[j, 0], bx)
            cy = _min_image_1d(pos[k3, 1] - pos[j, 1], by)
            cz = _min_image_1d(pos[k3, 2] - pos[j, 2], bz)
            na = math.sqrt(ax * ax + ay * ay + az * az)
            nc = math.sqrt(cx * cx + cy * cy + cz * cz)
            ahx = ax / na
            ahy = ay / na
            ahz = az / na
            chx = cx / nc
            chy = cy / nc
            chz = cz / nc
            cos_t = ahx * chx + ahy * chy + ahz * chz
            if cos_t > 1.0:
                cos_t = 1.0
            elif cos_t < -1.0:
                cos_t = -1.0
            theta = math.acos(cos_t)
            sin_t = math.sqrt(1.0 - cos_t * cos_t)
            if sin_t < 1e-8:  # _MIN_SIN collinearity guard
                sin_t = 1e-8
            diff = theta - p1[p]
            energy += kpar[p] * diff * diff
            dE = 2.0 * kpar[p] * diff
            ci = -dE / (na * sin_t)
            ck = -dE / (nc * sin_t)
            fix = ci * (cos_t * ahx - chx)
            fiy = ci * (cos_t * ahy - chy)
            fiz = ci * (cos_t * ahz - chz)
            fkx = ck * (cos_t * chx - ahx)
            fky = ck * (cos_t * chy - ahy)
            fkz = ck * (cos_t * chz - ahz)
            a = sidx[p, 0]
            b = sidx[p, 1]
            c = sidx[p, 2]
            forces[a, 0] += fix
            forces[a, 1] += fiy
            forces[a, 2] += fiz
            forces[b, 0] -= fix + fkx
            forces[b, 1] -= fiy + fky
            forces[b, 2] -= fiz + fkz
            forces[c, 0] += fkx
            forces[c, 1] += fky
            forces[c, 2] += fkz
        return energy

    @njit(cache=True)
    def _torsions_jit(pos, box, improper, idx, kpar, p1, p2, forces, sidx):
        bx, by, bz = box[0], box[1], box[2]
        energy = 0.0
        for p in range(idx.shape[0]):
            i = idx[p, 0]
            j = idx[p, 1]
            k3 = idx[p, 2]
            ll = idx[p, 3]
            b1x = _min_image_1d(pos[j, 0] - pos[i, 0], bx)
            b1y = _min_image_1d(pos[j, 1] - pos[i, 1], by)
            b1z = _min_image_1d(pos[j, 2] - pos[i, 2], bz)
            b2x = _min_image_1d(pos[k3, 0] - pos[j, 0], bx)
            b2y = _min_image_1d(pos[k3, 1] - pos[j, 1], by)
            b2z = _min_image_1d(pos[k3, 2] - pos[j, 2], bz)
            b3x = _min_image_1d(pos[ll, 0] - pos[k3, 0], bx)
            b3y = _min_image_1d(pos[ll, 1] - pos[k3, 1], by)
            b3z = _min_image_1d(pos[ll, 2] - pos[k3, 2], bz)
            mx = b1y * b2z - b1z * b2y
            my = b1z * b2x - b1x * b2z
            mz = b1x * b2y - b1y * b2x
            nx = b2y * b3z - b2z * b3y
            ny = b2z * b3x - b2x * b3z
            nz = b2x * b3y - b2y * b3x
            nb2 = math.sqrt(b2x * b2x + b2y * b2y + b2z * b2z)
            mxnx = my * nz - mz * ny
            mxny = mz * nx - mx * nz
            mxnz = mx * ny - my * nx
            nb2safe = nb2 if nb2 > 1e-12 else 1e-12
            sin_term = (mxnx * b2x + mxny * b2y + mxnz * b2z) / nb2safe
            cos_term = mx * nx + my * ny + mz * nz
            phi = math.atan2(sin_term, cos_term)
            m2 = mx * mx + my * my + mz * mz
            if m2 < 1e-12:
                m2 = 1e-12
            n2 = nx * nx + ny * ny + nz * nz
            if n2 < 1e-12:
                n2 = 1e-12
            if improper:
                diff = phi - p1[p]
                diff = (diff + math.pi) % (2.0 * math.pi) - math.pi
                energy += kpar[p] * diff * diff
                dE = 2.0 * kpar[p] * diff
            else:
                arg = p1[p] * phi - p2[p]
                energy += kpar[p] * (1.0 + math.cos(arg))
                dE = -kpar[p] * p1[p] * math.sin(arg)
            b2sq = nb2 * nb2
            if b2sq < 1e-12:
                b2sq = 1e-12
            sm = -nb2 / m2
            sn = nb2 / n2
            drix = sm * mx
            driy = sm * my
            driz = sm * mz
            drlx = sn * nx
            drly = sn * ny
            drlz = sn * nz
            t = (b1x * b2x + b1y * b2y + b1z * b2z) / b2sq
            s = (b3x * b2x + b3y * b2y + b3z * b2z) / b2sq
            drjx = -(1.0 + t) * drix + s * drlx
            drjy = -(1.0 + t) * driy + s * drly
            drjz = -(1.0 + t) * driz + s * drlz
            drkx = -(1.0 + s) * drlx + t * drix
            drky = -(1.0 + s) * drly + t * driy
            drkz = -(1.0 + s) * drlz + t * driz
            scale = -dE
            a = sidx[p, 0]
            b = sidx[p, 1]
            c = sidx[p, 2]
            d = sidx[p, 3]
            forces[a, 0] += scale * drix
            forces[a, 1] += scale * driy
            forces[a, 2] += scale * driz
            forces[b, 0] += scale * drjx
            forces[b, 1] += scale * drjy
            forces[b, 2] += scale * drjz
            forces[c, 0] += scale * drkx
            forces[c, 1] += scale * drky
            forces[c, 2] += scale * drkz
            forces[d, 0] += scale * drlx
            forces[d, 1] += scale * drly
            forces[d, 2] += scale * drlz
        return energy

    @njit(cache=True)
    def _ewald_recip_jit(pos, q, kvecs, ak, pref, forces):
        n = pos.shape[0]
        nk = kvecs.shape[0]
        S_re = np.zeros(nk)
        S_im = np.zeros(nk)
        cos_p = np.empty((n, nk))
        sin_p = np.empty((n, nk))
        for a in range(n):
            for kk in range(nk):
                ph = (pos[a, 0] * kvecs[kk, 0] + pos[a, 1] * kvecs[kk, 1]
                      + pos[a, 2] * kvecs[kk, 2])
                c = math.cos(ph)
                s = math.sin(ph)
                cos_p[a, kk] = c
                sin_p[a, kk] = s
                S_re[kk] += q[a] * c
                S_im[kk] += q[a] * s
        energy = 0.0
        for kk in range(nk):
            energy += ak[kk] * (S_re[kk] * S_re[kk] + S_im[kk] * S_im[kk])
        energy *= pref
        for a in range(n):
            fx = 0.0
            fy = 0.0
            fz = 0.0
            for kk in range(nk):
                coeff = (sin_p[a, kk] * S_re[kk] - cos_p[a, kk] * S_im[kk]) * ak[kk]
                fx += coeff * kvecs[kk, 0]
                fy += coeff * kvecs[kk, 1]
                fz += coeff * kvecs[kk, 2]
            scale = 2.0 * pref * q[a]
            forces[a, 0] += scale * fx
            forces[a, 1] += scale * fy
            forces[a, 2] += scale * fz
        return energy


def _nb_pairs(pos, box, i_idx, j_idx, eps, rmin, qq, cutoff, switch,
              forces, si, sj, alpha=None, ewald_cutoff=None):
    if len(i_idx) == 0:
        return 0.0, 0.0, 0
    if alpha is None:  # the jitted kernel's "unset" is alpha <= 0
        alpha = ewald_cutoff = 0.0
    e_lj, e_el, n_pairs = _nb_pairs_jit(
        _as_f8(pos), _as_f8(box), _as_i8(i_idx), _as_i8(j_idx),
        _as_f8(eps), _as_f8(rmin), _as_f8(qq),
        float(cutoff), float(switch), COULOMB_CONSTANT,
        forces, _as_i8(si), _as_i8(sj), float(alpha), float(ewald_cutoff),
    )
    return float(e_lj), float(e_el), int(n_pairs)


def _pair_mask(pos, box, i_idx, j_idx, cutoff):
    out = np.empty(len(i_idx), dtype=np.bool_)
    if len(i_idx):
        _pair_mask_jit(_as_f8(pos), _as_f8(box), _as_i8(i_idx), _as_i8(j_idx),
                       float(cutoff), out)
    return out


def _segment_add(out, idx, contrib):
    if len(idx) == 0:
        return
    contrib = np.ascontiguousarray(np.atleast_2d(contrib), dtype=np.float64)
    _segment_add_jit(out, _as_i8(idx), contrib)


def _ewald_real(pos, box, i_idx, j_idx, qq, alpha, cutoff, forces):
    if len(i_idx) == 0:
        return 0.0
    return float(_ewald_real_jit(
        _as_f8(pos), _as_f8(box), _as_i8(i_idx), _as_i8(j_idx), _as_f8(qq),
        float(alpha), float(cutoff), forces,
    ))


def _ewald_recip(pos, q, kvecs, ak, pref, forces):
    if len(kvecs) == 0:
        return 0.0
    return float(_ewald_recip_jit(
        _as_f8(pos), _as_f8(q), _as_f8(kvecs), _as_f8(ak), float(pref), forces,
    ))


#: Every k-vector contributes independently, so the shard kernel is the
#: full reciprocal kernel applied to sliced tables (same as the reference).
_ewald_recip_shard = _ewald_recip


def _bonded_terms(pos, box, kind, idx, kpar, p1, p2, forces, sidx):
    if len(idx) == 0:
        return 0.0
    pos8, box8 = _as_f8(pos), _as_f8(box)
    idx8, sidx8 = _as_i8(idx), _as_i8(sidx)
    kpar8, p18 = _as_f8(kpar), _as_f8(p1)
    if kind == 0:
        return float(_bonds_jit(pos8, box8, idx8, kpar8, p18, forces, sidx8))
    if kind == 1:
        return float(_angles_jit(pos8, box8, idx8, kpar8, p18, forces, sidx8))
    if kind == 2:
        return float(_torsions_jit(
            pos8, box8, False, idx8, kpar8, p18, _as_f8(p2), forces, sidx8
        ))
    if kind == 3:
        return float(_torsions_jit(
            pos8, box8, True, idx8, kpar8, p18, _as_f8(p2), forces, sidx8
        ))
    raise ValueError(f"unknown bonded term kind {kind!r}")


def build_backend() -> KernelBackend:
    """The numba backend instance (raises ``ImportError`` without numba)."""
    if not HAS_NUMBA:
        raise ImportError("numba is not installed")
    return KernelBackend(
        name="numba",
        compiled=True,
        nb_pairs=_nb_pairs,
        pair_mask=_pair_mask,
        segment_add=_segment_add,
        ewald_real=_ewald_real,
        ewald_recip=_ewald_recip,
        bonded_terms=_bonded_terms,
        ewald_recip_shard=_ewald_recip_shard,
    )
