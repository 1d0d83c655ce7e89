"""Classic Ewald summation for full periodic electrostatics.

The paper's results cover the cutoff atom-based force components and note
(§1) that "even when full, long-range electrostatic interactions are
included in a simulation, these forces may be calculated via an efficient
combination of global grid-based and cutoff atom-based components.  The
results in this paper are directly applicable to the atom-based components
of such methods.  The remaining grid-based calculations consume a small
fraction of the total computation time."

This module provides that remaining component as an extension: classic
Ewald summation (the exact O(N^{3/2}) method PME approximates), with

* a real-space sum, short-ranged by ``erfc(alpha r)`` and evaluated under
  the minimum-image convention within a cutoff,
* a reciprocal-space sum over k-vectors with ``|m| <= kmax`` per axis,
* the self-energy and charged-background corrections, and
* exclusion corrections so the 1-2/1-3 pairs removed from the cutoff
  kernel are also removed from the periodic sum.

Validated in the tests against the NaCl Madelung constant and numerical
force differentiation.

:func:`compute_ewald` is the self-contained reference evaluation.  The
engines split it along the paper's line: the atom-based real-space term is
a mode of their force tasks' pair kernel (``backend.nb_pairs`` with
``alpha`` set), over the tasks' Verlet lists, the reciprocal sum is
sharded into k-space tasks, and :func:`ewald_remainder` supplies the rest.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.backend import KernelBackend, get_backend
from repro.md.constants import COULOMB_CONSTANT
from repro.md.scatter import accumulate_pair_forces
from repro.md.system import MolecularSystem
from repro.util.pbc import minimum_image

__all__ = [
    "EwaldEnergies",
    "EwaldOptions",
    "EwaldResult",
    "compute_ewald",
    "ewald_remainder",
    "clear_kspace_cache",
    "kspace_cache_stats",
]


@dataclass(frozen=True)
class EwaldOptions:
    """Ewald parameters.

    ``alpha`` balances the two sums: larger alpha shortens the real-space
    range but requires more k-vectors.  The default pairing (alpha = 3/cutoff,
    kmax ~ alpha * L) keeps both truncation errors ~1e-5 for typical boxes.
    """

    cutoff: float = 9.0
    alpha: float | None = None
    kmax: int = 8

    def alpha_value(self) -> float:
        """The effective real/reciprocal split parameter."""
        return self.alpha if self.alpha is not None else 3.0 / self.cutoff


@dataclass
class EwaldEnergies:
    """The five energy components of one Ewald evaluation (kcal/mol)."""

    energy_real: float
    energy_recip: float
    energy_self: float
    energy_background: float
    energy_exclusion: float

    @property
    def energy(self) -> float:
        """Total electrostatic energy (all Ewald components)."""
        return (
            self.energy_real
            + self.energy_recip
            + self.energy_self
            + self.energy_background
            + self.energy_exclusion
        )


@dataclass
class EwaldResult(EwaldEnergies):
    """Energy components (kcal/mol) and forces (kcal/mol/Å)."""

    forces: np.ndarray


def _real_space(
    system: MolecularSystem,
    alpha: float,
    cutoff: float,
    forces: np.ndarray,
    backend: KernelBackend,
) -> float:
    from repro.md.cells import candidate_pairs

    pos = system.positions
    box = system.box
    q = system.charges
    i_c, j_c = candidate_pairs(pos, box, cutoff)
    if len(i_c) == 0:
        return 0.0
    # drop fully excluded pairs from the real-space sum (their periodic
    # contribution is corrected separately); the distance test, erfc math,
    # and force scatter are fused in the backend kernel
    excl = system.exclusions
    keep = ~excl.is_excluded(i_c, j_c)
    i_c, j_c = i_c[keep], j_c[keep]
    if len(i_c) == 0:
        return 0.0
    qq = COULOMB_CONSTANT * q[i_c] * q[j_c]
    return backend.ewald_real(pos, box, i_c, j_c, qq, alpha, cutoff, forces)


# k-space tables depend only on (box, kmax, alpha) — between box changes
# every step rebuilds identical meshgrids, so memoize them.  Bounded LRU;
# entries are marked read-only because callers share the cached arrays.
# The table cache is deliberately process-global (concurrent engines — the
# multi-job service case — share identical tables).  The module-level
# counters are monotonic raw totals read against a baseline; a caller that
# wants its own accounting (every force-task evaluator does) passes
# ``_kspace_tables`` a ``{"builds", "hits"}`` sink, which nobody else's
# clear can zero or negate.
_KSPACE_CACHE: OrderedDict[tuple, tuple[np.ndarray, ...]] = OrderedDict()
_KSPACE_CACHE_MAX = 8
_KSPACE_RAW = {"builds": 0, "hits": 0}
_KSPACE_BASE = {"builds": 0, "hits": 0}


def clear_kspace_cache() -> None:
    """Drop all memoized k-space tables and reset the hit/build counters.

    Only the *module-level* counter view resets; per-caller sinks keep
    counting (their next evaluation simply rebuilds the dropped tables).
    """
    _KSPACE_CACHE.clear()
    _KSPACE_BASE.update(_KSPACE_RAW)


def kspace_cache_stats() -> dict[str, int]:
    """Copy of the k-space cache counters (``builds``, ``hits``).

    Counts activity since the last module-level :func:`clear_kspace_cache`,
    clamped at zero, across every caller in the process.
    """
    return {
        key: max(_KSPACE_RAW[key] - _KSPACE_BASE[key], 0)
        for key in ("builds", "hits")
    }


def _kspace_tables(
    box: np.ndarray,
    kmax: int,
    alpha: float,
    stats: dict[str, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(k, k2, ak, m)`` reciprocal-space tables for one (box, kmax, alpha).

    ``k`` are the reciprocal vectors with ``|m| <= kmax`` per axis in one
    half space — one of every ``±k`` pair, ``((2 kmax + 1)³ - 1) / 2`` of
    them; a sum over the table is half the sum over all nonzero vectors —
    ``k2`` their squared norms, ``ak`` the ``exp(-k2/4a^2)/k2`` prefactors,
    ``m`` the int32 triplets ``k`` was built from (a shard's own vectors do
    not determine them: its smallest component is no common divisor).
    Cached: a box change (or different kmax/alpha) misses and rebuilds,
    identical parameters hit and share the same read-only arrays.

    The key and the tables are both derived from one private snapshot of
    the box taken on entry.  Callers routinely mutate the box ndarray in
    place (NPT-style rescale); keying on anything that aliases the live
    array would let a later mutation disagree with the tables the key maps
    to, silently serving stale reciprocal vectors.
    """
    box_snap = np.array(np.asarray(box, dtype=np.float64).reshape(3), copy=True)
    key = (
        float(box_snap[0]),
        float(box_snap[1]),
        float(box_snap[2]),
        int(kmax),
        float(alpha),
    )
    cached = _KSPACE_CACHE.get(key)
    if cached is not None:
        _KSPACE_RAW["hits"] += 1
        if stats is not None:
            stats["hits"] += 1
        _KSPACE_CACHE.move_to_end(key)
        return cached
    _KSPACE_RAW["builds"] += 1
    if stats is not None:
        stats["builds"] += 1
    mx, my, mz = np.meshgrid(
        np.arange(-kmax, kmax + 1),
        np.arange(-kmax, kmax + 1),
        np.arange(-kmax, kmax + 1),
        indexing="ij",
    )
    m = np.stack([mx.ravel(), my.ravel(), mz.ravel()], axis=1).astype(np.int32)
    # k and -k contribute identically (callers double the prefactor): keep
    # the half space whose first nonzero index is positive — in this
    # lexicographic order, everything after the origin in the middle
    m = m[len(m) // 2 + 1 :]
    k = 2.0 * np.pi * m / box_snap[None, :]
    k2 = np.einsum("ij,ij->i", k, k)
    ak = np.exp(-k2 / (4.0 * alpha * alpha)) / k2  # (nk,)
    tables = (k, k2, ak, m)
    for arr in tables:
        arr.setflags(write=False)
    _KSPACE_CACHE[key] = tables
    while len(_KSPACE_CACHE) > _KSPACE_CACHE_MAX:
        _KSPACE_CACHE.popitem(last=False)
    return tables


def _reciprocal_space(
    system: MolecularSystem,
    alpha: float,
    kmax: int,
    forces: np.ndarray,
    backend: KernelBackend,
) -> float:
    pos = system.positions
    box = system.box
    q = system.charges
    volume = float(np.prod(box))

    k, _k2, ak, m = _kspace_tables(box, kmax, alpha)
    if len(k) == 0:  # kmax=0: only the excluded m=0 term — nothing to sum
        return 0.0

    # twice C 2π/V: the table holds one of every ±k pair
    pref = COULOMB_CONSTANT * 4.0 * np.pi / volume
    return backend.ewald_recip(pos, q, k, ak, pref, forces, m)


def _exclusion_correction(
    system: MolecularSystem, alpha: float, forces: np.ndarray
) -> float:
    """Remove the reciprocal-sum interaction of excluded pairs.

    The k-space sum includes *all* pairs; for an excluded pair (i, j) the
    unwanted screened-complement interaction qiqj erf(alpha r)/r must be
    subtracted (standard Ewald exclusion handling).
    """
    from scipy.special import erf

    excl = system.exclusions
    if excl.n_excluded == 0:
        return 0.0
    # decoded (i, j) arrays are cached per Exclusions instance — the table
    # only changes when a topology edit rebuilds the exclusions object
    i_c, j_c = excl.excluded_pairs()
    pos = system.positions
    delta = minimum_image(pos[j_c] - pos[i_c], system.box)
    r2 = np.einsum("ij,ij->i", delta, delta)
    r = np.sqrt(np.maximum(r2, 1e-12))
    qq = COULOMB_CONSTANT * system.charges[i_c] * system.charges[j_c]
    erf_term = erf(alpha * r)
    energy = float(-np.sum(qq * erf_term / r))
    # d/dr [ -qq erf(ar)/r ] = -qq [ 2a/sqrt(pi) exp(-a^2r^2)/r - erf(ar)/r^2 ]
    dE_dr = -qq * (
        (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * r) ** 2) / r
        - erf_term / r2
    )
    fvec = (dE_dr / r)[:, None] * delta
    accumulate_pair_forces(forces, i_c, j_c, fvec)
    return energy


def ewald_remainder(
    system: MolecularSystem,
    options: EwaldOptions,
    forces: np.ndarray,
) -> EwaldEnergies:
    """The Ewald components that are neither pair sum nor k-space sum.

    The O(n_excluded) exclusion correction (into ``forces``) and the
    constant self and charged-background terms.  ``energy_real`` and
    ``energy_recip`` are left 0 for the caller's sums: :func:`compute_ewald`
    adds :func:`_real_space` and :func:`_reciprocal_space`, the engines
    their force tasks' fused pair kernel and k-space shards.
    """
    alpha = options.alpha_value()
    q = system.charges
    volume = float(np.prod(system.box))
    e_excl = _exclusion_correction(system, alpha, forces)
    e_self = float(-COULOMB_CONSTANT * alpha / np.sqrt(np.pi) * np.sum(q * q))
    total_charge = float(q.sum())
    e_bg = float(
        -COULOMB_CONSTANT * np.pi / (2.0 * volume * alpha * alpha) * total_charge**2
    )
    return EwaldEnergies(
        energy_real=0.0,
        energy_recip=0.0,
        energy_self=e_self,
        energy_background=e_bg,
        energy_exclusion=e_excl,
    )


def compute_ewald(
    system: MolecularSystem,
    options: EwaldOptions | None = None,
    backend: KernelBackend | str | None = None,
    recip: bool = True,
) -> EwaldResult:
    """Full periodic electrostatic energy and forces via Ewald summation.

    The reference implementation: the real-space sum enumerates the cell
    candidates afresh on every call (:func:`_real_space`) and the
    reciprocal sum runs unsharded (:func:`_reciprocal_space`; skipped with
    ``recip=False``, leaving ``energy_recip`` 0 and its forces absent), with
    nothing carried between calls.  The engines evaluate the same quantity
    as force tasks plus :func:`ewald_remainder`; tests hold them to this
    function.
    """
    options = options or EwaldOptions()
    be = get_backend(backend)
    alpha = options.alpha_value()
    forces = np.zeros((system.n_atoms, 3))
    system.wrap()
    e_real = _real_space(system, alpha, options.cutoff, forces, be)
    e_recip = (
        _reciprocal_space(system, alpha, options.kmax, forces, be)
        if recip
        else 0.0
    )
    energies = ewald_remainder(system, options, forces)
    energies.energy_real = e_real
    energies.energy_recip = e_recip
    return EwaldResult(**vars(energies), forces=forces)
