"""Cutoff non-bonded kernel: Lennard-Jones + Coulomb with switching.

This is the computation that dominates an MD timestep ("eighty percent or
more", paper §4.2.1) and the one the hybrid decomposition parallelizes.  The
functional forms follow NAMD's cutoff mode:

* Lennard-Jones is multiplied by the CHARMM switching function ``S(r)``,
  which is 1 below ``switch_dist``, 0 at ``cutoff``, and C¹ smooth between.
* Electrostatics use the shifting function ``(1 - r²/c²)²`` so the energy
  and force both vanish at the cutoff.
* 1-2 and 1-3 pairs are excluded; 1-4 pairs are computed separately with
  configurable scale factors (paper §3: "Non-bonded interactions are
  excluded or modified between atoms connected by one, two, or three
  bonds").

All kernels are fully vectorized over pair arrays per the HPC guide: no
Python loop touches individual atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import KernelBackend, get_backend
from repro.backend import reference as _reference
from repro.md.cells import candidate_pairs
from repro.md.system import MolecularSystem

__all__ = [
    "NonbondedOptions",
    "NonbondedResult",
    "switching_function",
    "pair_interactions",
    "pair_type_tables",
    "filter_candidates",
    "nonbonded_kernel",
    "nonbonded_14",
    "compute_nonbonded",
]


@dataclass(frozen=True)
class NonbondedOptions:
    """Cutoff scheme parameters.

    ``switch_dist`` defaults to ``0.85 * cutoff`` (NAMD's conventional 10 Å
    switch for a 12 Å cutoff is close to this ratio).
    """

    cutoff: float = 12.0
    switch_dist: float | None = None

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        sd = self.switch_dist
        if sd is not None and not (0 < sd < self.cutoff):
            raise ValueError("switch_dist must lie in (0, cutoff)")

    @property
    def switch(self) -> float:
        """Effective switching distance (explicit or 0.85 * cutoff)."""
        return self.switch_dist if self.switch_dist is not None else 0.85 * self.cutoff


@dataclass
class NonbondedResult:
    """Energies (kcal/mol) and forces (kcal/mol/Å) from one evaluation."""

    energy_lj: float
    energy_elec: float
    forces: np.ndarray
    n_pairs: int  # pairs actually within the cutoff (after exclusions)

    @property
    def energy(self) -> float:
        """Total non-bonded energy: LJ + electrostatics."""
        return self.energy_lj + self.energy_elec


def switching_function(
    r2: np.ndarray, switch: float, cutoff: float
) -> tuple[np.ndarray, np.ndarray]:
    """CHARMM switching function and its derivative w.r.t. ``r²``.

    Returns ``(S, dS_dr2)`` evaluated elementwise on squared distances.
    ``S`` is 1 for ``r <= switch`` and 0 for ``r >= cutoff``.  The math
    lives in :mod:`repro.backend.reference` (shared with the compiled
    backends); this is the md-facing name.
    """
    return _reference.switching_terms(r2, switch, cutoff)


def pair_interactions(
    delta: np.ndarray,
    r2: np.ndarray,
    eps_ij: np.ndarray,
    rmin_ij: np.ndarray,
    qq: np.ndarray,
    options: NonbondedOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Core LJ + Coulomb math for pre-combined pair parameters.

    Parameters are per-pair arrays: displacement vectors ``delta`` (shape
    ``(m, 3)``), squared distances ``r2``, combined LJ well depth and
    ``Rmin``, and charge products ``qq`` (already multiplied together, *not*
    including the Coulomb constant).

    Returns ``(e_lj, e_elec, fvec)`` where ``fvec[p]`` is the force on atom
    ``i`` of pair ``p`` (atom ``j`` receives ``-fvec[p]``), consistent with
    ``delta = x_j - x_i``.  The math lives in
    :mod:`repro.backend.reference` (shared with the compiled backends).
    """
    return _reference.pair_terms(
        delta, r2, eps_ij, rmin_ij, qq, options.cutoff, options.switch
    )


def _combined_params(
    system: MolecularSystem, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lorentz-Berthelot-combined ``(eps_ij, rmin_ij, qq)`` for pair arrays."""
    _, eps_t, rmin_t = system.forcefield.lj_tables()
    ti = system.type_indices[i]
    tj = system.type_indices[j]
    eps_ij = np.sqrt(eps_t[ti] * eps_t[tj])
    rmin_ij = rmin_t[ti] + rmin_t[tj]
    qq = system.charges[i] * system.charges[j]
    return eps_ij, rmin_ij, qq


def pair_type_tables(system: MolecularSystem) -> tuple[np.ndarray, np.ndarray]:
    """The two ``n_types x n_types`` tables ``backend.nb_rows`` reads a
    pair's LJ parameters from: ``sqrt(eps_a eps_b)`` and ``rmin_a + rmin_b``
    — entry ``[type_i, type_j]`` is :func:`_combined_params`' value for the
    pair, rounding for rounding."""
    _, eps_t, rmin_t = system.forcefield.lj_tables()
    return np.sqrt(eps_t[:, None] * eps_t[None, :]), rmin_t[:, None] + rmin_t[None, :]


def filter_candidates(
    system: MolecularSystem,
    i_cand: np.ndarray,
    j_cand: np.ndarray,
    cutoff: float,
    return_kept: bool = False,
    backend: KernelBackend | str | None = None,
):
    """Reduce candidate pairs to those within ``cutoff``, minus exclusions.

    Applies exactly the filters of the main loop of :func:`nonbonded_kernel`
    (distance, 1-2/1-3 exclusions, 1-4 removal) but returns only the
    surviving index arrays.  The force tasks use this at list-build time —
    with ``cutoff + skin`` — so the per-step hot loop touches only pairs
    that can actually interact during the list's lifetime.

    ``return_kept=True`` additionally returns the positions (into the input
    candidate arrays) of the surviving pairs, so callers carrying parallel
    per-pair metadata (e.g. the parallel engine's local scatter indices) can
    subset it identically.
    """
    excl = system.exclusions
    pos = system.positions
    if len(i_cand) == 0:
        empty = i_cand[:0].copy(), j_cand[:0].copy()
        if return_kept:
            return (*empty, np.zeros(0, dtype=np.int64))
        return empty
    within = get_backend(backend).pair_mask(pos, system.box, i_cand, j_cand, cutoff)
    i_c, j_c = i_cand[within], j_cand[within]
    mask = ~(excl.is_excluded(i_c, j_c) | excl.is_pair14(i_c, j_c))
    out = np.ascontiguousarray(i_c[mask]), np.ascontiguousarray(j_c[mask])
    if return_kept:
        kept = np.flatnonzero(within)[mask]
        return (*out, kept)
    return out


def nonbonded_kernel(
    system: MolecularSystem,
    i_cand: np.ndarray,
    j_cand: np.ndarray,
    options: NonbondedOptions,
    forces: np.ndarray,
    prefiltered: bool = False,
    scatter_i: np.ndarray | None = None,
    scatter_j: np.ndarray | None = None,
    backend: KernelBackend | str | None = None,
    coulomb: bool = True,
) -> tuple[float, float, int]:
    """Main-loop LJ + electrostatics over candidate pairs.

    ``coulomb=False`` zeroes the charge products so the kernel evaluates
    the switched LJ term only — the mode used when full electrostatics come
    from the Ewald sum instead of the shifted-Coulomb cutoff form.

    Distance-filters ``(i_cand, j_cand)`` to the cutoff, removes excluded
    (1-2/1-3) and modified (1-4) pairs, evaluates the switched/shifted
    kernel, and scatters the pair forces into ``forces`` (in place).
    Returns ``(e_lj, e_elec, n_pairs)``.

    ``prefiltered=True`` declares that exclusions and 1-4 pairs were already
    removed from the candidate arrays (see :func:`filter_candidates`), so
    only the distance test remains — the per-step path of the parallel
    engine's per-worker Verlet lists.  The per-pair arithmetic is identical
    either way, which is what keeps sequential and parallel energies within
    mutual rounding error.

    ``scatter_i``/``scatter_j`` (parallel to the candidate arrays) redirect
    the force scatter: positions and parameters are still read through the
    global ``i_cand``/``j_cand`` indices, but forces accumulate at the
    scatter indices instead.  The parallel engine passes per-task *local*
    indices so each task writes a compact block of a shared buffer.

    The distance test, pair math, and force scatter are fused in
    ``backend.nb_pairs``; exclusion bookkeeping (searchsorted over pair
    keys) stays vectorized numpy here.
    """
    excl = system.exclusions
    be = get_backend(backend)
    if len(i_cand) == 0:
        return 0.0, 0.0, 0
    i_c, j_c = i_cand, j_cand
    s_i, s_j = scatter_i, scatter_j
    if not prefiltered:
        # remove excluded (1-2, 1-3) and modified (1-4) pairs from main loop
        mask = ~(excl.is_excluded(i_c, j_c) | excl.is_pair14(i_c, j_c))
        i_c, j_c = i_c[mask], j_c[mask]
        if s_i is not None:
            s_i, s_j = s_i[mask], s_j[mask]
    if len(i_c) == 0:
        return 0.0, 0.0, 0
    eps_ij, rmin_ij, qq = _combined_params(system, i_c, j_c)
    if not coulomb:
        qq = np.zeros_like(qq)
    return be.nb_pairs(
        system.positions, system.box, i_c, j_c, eps_ij, rmin_ij, qq,
        options.cutoff, options.switch, forces,
        s_i if s_i is not None else i_c,
        s_j if s_j is not None else j_c,
    )


def ewald_pair_mode(ewald) -> tuple:
    """The trailing ``backend.nb_pairs`` scalars for an engine's
    electrostatics: none (cutoff mode) without ``ewald``, else the
    ``(alpha, cutoff)`` of the :class:`repro.md.ewald.EwaldOptions`."""
    return () if ewald is None else (ewald.alpha_value(), ewald.cutoff)


def nonbonded_14(
    system: MolecularSystem,
    options: NonbondedOptions,
    forces: np.ndarray,
    backend: KernelBackend | str | None = None,
    coulomb: bool = True,
    ewald=None,
) -> tuple[float, float, int]:
    """Scaled 1-4 pass: modified pairs with the ``scale14_*`` factors.

    ``coulomb=False`` drops the scaled 1-4 electrostatics; the scaled 1-4
    LJ term remains.  ``ewald`` (an :class:`repro.md.ewald.EwaldOptions`)
    replaces them with the Ewald real-space term at full strength — the
    periodic sum includes 1-4 pairs unscaled, and the engines' pair lists
    leave them to this pass.

    Always computed with the plain (unswitched at short range, but the
    switching/shift factors still apply) kernel; scatters into ``forces``
    in place and returns ``(e_lj, e_elec, n_pairs_14)``.  Scaling folds
    into the pre-combined parameters, so the backend kernel is the same
    one the main loop uses.
    """
    excl = system.exclusions
    ff = system.forcefield
    if not len(excl.pairs14) or (
        ewald is None and ff.scale14_lj == 0.0 and ff.scale14_elec == 0.0
    ):
        return 0.0, 0.0, 0
    if ewald is not None:
        scale_el = 1.0
    else:
        scale_el = ff.scale14_elec if coulomb else 0.0
    i14 = excl.pairs14[:, 0]
    j14 = excl.pairs14[:, 1]
    eps_ij, rmin_ij, qq = _combined_params(system, i14, j14)
    return get_backend(backend).nb_pairs(
        system.positions, system.box, i14, j14,
        eps_ij * ff.scale14_lj, rmin_ij, qq * scale_el,
        options.cutoff, options.switch, forces, i14, j14,
        *ewald_pair_mode(ewald),
    )


def compute_nonbonded(
    system: MolecularSystem,
    options: NonbondedOptions | None = None,
    backend: KernelBackend | str | None = None,
    coulomb: bool = True,
) -> NonbondedResult:
    """Full non-bonded evaluation for a system (cell-list based).

    The reference implementation: every call enumerates the cell
    candidates afresh and filters them, with nothing carried between
    calls.  The engines evaluate the same quantity through the force
    tasks of :mod:`repro.md.tasks`; tests hold them to this function.

    ``coulomb=False`` evaluates the LJ terms only (main loop and scaled
    1-4 pass) — the pairing mode for engines whose electrostatics come
    from :func:`repro.md.ewald.compute_ewald`.

    Handles exclusions (1-2/1-3 removed entirely) and modified 1-4 pairs
    (computed with the force field's ``scale14_*`` factors regardless of
    whether they currently fall inside the cutoff — they always do for sane
    geometries, but the unconditional treatment matches CHARMM).
    """
    options = options or NonbondedOptions()
    n = system.n_atoms
    forces = np.zeros((n, 3), dtype=np.float64)
    if n < 2:
        return NonbondedResult(0.0, 0.0, forces, 0)

    i_cand, j_cand = candidate_pairs(
        system.positions, system.box, options.cutoff
    )
    e_lj_total, e_el_total, n_pairs = nonbonded_kernel(
        system, i_cand, j_cand, options, forces, backend=backend, coulomb=coulomb
    )
    e_lj14, e_el14, n14 = nonbonded_14(
        system, options, forces, backend=backend, coulomb=coulomb
    )
    return NonbondedResult(
        e_lj_total + e_lj14, e_el_total + e_el14, forces, n_pairs + n14
    )
