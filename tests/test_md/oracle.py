"""The engines' independent oracle: the reference force-field functions,
which ``test_conformance.py`` holds the engines' reference runs to (every
other run is held to those bit for bit).

The non-bonded main loop (``candidate_pairs`` enumerated afresh per call,
filtered and evaluated by ``nonbonded_kernel``), ``compute_bonded`` and
``compute_ewald`` share no list, task or reduction code with the engines'
force-task path, so agreement to 1e-9 (summation order differs) checks
that path end to end.  The scaled 1-4 pass is written out here
(:func:`scaled_14`) from the force field's public tables and the pair
arithmetic, so it calls nothing of the engines' own 1-4 pass,
``nonbonded_14``: a fault there fails the oracle tests instead of moving
the oracle with the engines.

Under Ewald one part is held to a different bound, here and nowhere else:
the engines compute the reciprocal sum by smooth PME, which approximates
``compute_ewald``'s classic sum over the same k-set.  The engine's PME
part — :func:`repro.md.ewald.pme_reciprocal` at its positions, the
function its reciprocal task runs — is taken out of its forces and
energy; what remains (LJ, bonded, real space and the remainder) is held to
``compute_ewald(..., recip=False)`` at 1e-9, and the PME part to the
classic reciprocal sum at :data:`PME_ENERGY_RTOL` / :data:`PME_FORCE_RTOL`.

:func:`candidate_task_lists` is the list oracle: the per-candidate
``repeat``/``tile`` enumeration the force tasks used before they built
their lists from dense cell blocks, kept here so the row lists can be held
to it array for array.
"""

import numpy as np
import pytest

from repro.md.bonded import BONDED_KINDS, compute_bonded
from repro.md.cells import candidate_pairs
from repro.md.ewald import (
    _pme_influence,
    _reciprocal_space,
    compute_ewald,
    pme_reciprocal,
)
from repro.md.nonbonded import (
    filter_candidates,
    nonbonded_kernel,
    pair_interactions,
)
from repro.util.pbc import minimum_image

RTOL = 1e-9
#: PME against the classic reciprocal sum: the energy, relative, and the
#: RMS force error relative to the classic forces' RMS (DESIGN "Reciprocal
#: space is smooth PME" has the measured errors)
PME_ENERGY_RTOL = 1e-5
PME_FORCE_RTOL = 1e-4


def scaled_14(system, options, forces, coulomb=True):
    """The scaled 1-4 pass over ``system.exclusions.pairs14``: each pair
    within the cutoff, at minimum image, with its Lorentz-Berthelot
    parameters scaled by ``scale14_lj`` / ``scale14_elec`` (no
    electrostatics without ``coulomb``).  Scatters into ``forces``;
    returns ``(lj, elec, n_pairs)``."""
    pairs = system.exclusions.pairs14
    if not len(pairs):
        return 0.0, 0.0, 0
    ff = system.forcefield
    i, j = pairs[:, 0], pairs[:, 1]
    _, eps_t, rmin_t = ff.lj_tables()
    ti, tj = system.type_indices[i], system.type_indices[j]
    eps = np.sqrt(eps_t[ti] * eps_t[tj]) * ff.scale14_lj
    rmin = rmin_t[ti] + rmin_t[tj]
    qq = system.charges[i] * system.charges[j]
    qq = qq * ff.scale14_elec if coulomb else np.zeros_like(qq)
    delta = minimum_image(system.positions[j] - system.positions[i], system.box)
    r2 = np.einsum("pk,pk->p", delta, delta)
    inside = np.flatnonzero(r2 < options.cutoff**2)
    lj, elec, fvec = pair_interactions(
        delta[inside], r2[inside], eps[inside], rmin[inside], qq[inside], options
    )
    np.add.at(forces, i[inside], fvec)
    np.subtract.at(forces, j[inside], fvec)
    return float(lj.sum()), float(elec.sum()), len(inside)


def reference(system, options, ewald=None):
    """``(forces, lj, elec, bonded, n_pairs)`` at ``system``'s positions —
    under Ewald without the reciprocal sum, and with the scaled 1-4 pass
    LJ only (``compute_ewald`` carries those pairs' electrostatics)."""
    bonded, forces = compute_bonded(system)
    coulomb = ewald is None
    i_cand, j_cand = candidate_pairs(system.positions, system.box, options.cutoff)
    lj, elec, n_pairs = nonbonded_kernel(
        system, i_cand, j_cand, options, forces, coulomb=coulomb
    )
    lj14, elec14, n14 = scaled_14(system, options, forces, coulomb=coulomb)
    lj += lj14
    elec += elec14
    if ewald is not None:
        ew = compute_ewald(system, ewald, recip=False)
        forces += ew.forces
        elec += ew.energy
    return forces, lj, elec, bonded, n_pairs + n14


def pme_part(system, ewald, backend):
    """``(energy, forces)`` of the engines' reciprocal task at ``system``'s
    positions (none without k-vectors)."""
    forces = np.zeros((system.n_atoms, 3))
    if ewald.kmax == 0:
        return 0.0, forces
    influence = _pme_influence(system.box, ewald.kmax, ewald.alpha_value())
    energy, _ = pme_reciprocal(
        system.positions, system.charges, system.box, influence, forces, backend
    )
    return energy, forces


def assert_pme_matches_classic(system, ewald, energy, forces, backend):
    """A PME evaluation against ``compute_ewald``'s reciprocal sum (the
    classic one over the same k-set) at the PME bound."""
    classic = np.zeros((system.n_atoms, 3))
    e_classic = _reciprocal_space(
        system, ewald.alpha_value(), ewald.kmax, classic, backend
    )
    assert energy == pytest.approx(e_classic, rel=PME_ENERGY_RTOL, abs=1e-12)
    rms = np.sqrt(np.mean(classic**2))
    assert np.sqrt(np.mean((forces - classic) ** 2)) <= PME_FORCE_RTOL * rms


def assert_matches_reference(engine, forces=None, weight=1):
    """The engine's evaluation at its current positions — a fresh one, or
    ``forces`` it already computed there — against the reference functions.

    ``weight`` is the reciprocal task's weight in that evaluation (multiple
    time stepping: ``recip_every`` on an outer step, 0 on an inner one):
    ``weight ×`` the PME part is taken out of the forces, and the energy
    report's reciprocal energy — an inner step's carried from the last
    outer one — out of ``elec``."""
    if forces is None:
        forces = engine.compute_forces()
    report = engine.report()
    elec = report.elec
    if engine.ewald is not None:
        e_pme, f_pme = pme_part(engine.system, engine.ewald, engine.backend)
        if weight:
            assert engine._nb.last_ewald.energy_recip == e_pme  # the task's bits
            assert_pme_matches_classic(
                engine.system, engine.ewald, e_pme, f_pme, engine.backend
            )
            forces = forces - weight * f_pme
        elec -= engine._nb.last_ewald.energy_recip
    f_ref, lj, elec_ref, bonded, n_pairs = reference(
        engine.system, engine.options, engine.ewald
    )
    scale = np.abs(f_ref).max()
    assert np.allclose(forces, f_ref, rtol=RTOL, atol=RTOL * scale)
    assert report.lj == pytest.approx(lj, rel=RTOL)
    assert elec == pytest.approx(elec_ref, rel=RTOL)
    for name in BONDED_KINDS:
        assert getattr(report.bonded, name) == pytest.approx(
            getattr(bonded, name), rel=RTOL, abs=1e-12
        )
    assert report.n_pairs == n_pairs


def candidate_task_lists(system, tasks, my_tasks, buckets, r_list):
    """``build_row_lists`` the slow way: every candidate index pair of a
    block materialised, then ``filter_candidates`` over them.  Per task
    ``(cols, row_ptr, rows)``: the partners' block rows (int32, row-major),
    each block row's range in them counted from 0, and the block rows'
    atoms."""
    lists = {}
    for t in my_tasks:
        a, b, part, n_parts = tasks[t]
        atoms_a = buckets[a]
        na = len(atoms_a)
        if a == b:
            rows = atoms_a
            si, sj = np.triu_indices(na, k=1)
            stripe = si % n_parts == part
            si, sj = si[stripe], sj[stripe]
        else:
            atoms_b = buckets[b]
            nb = len(atoms_b)
            ns = len(range(part, na, n_parts))
            rows = np.concatenate([atoms_a[part::n_parts], atoms_b])
            si = np.repeat(np.arange(ns, dtype=np.int64), nb)
            sj = np.tile(np.arange(nb, dtype=np.int64) + ns, ns)
        _, _, kept = filter_candidates(
            system, rows[si].astype(np.int32), rows[sj].astype(np.int32),
            r_list, return_kept=True,
        )
        si, sj = si[kept], sj[kept]
        row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.bincount(si, minlength=len(rows)), out=row_ptr[1:])
        lists[t] = sj.astype(np.int32), row_ptr, rows
    return lists
