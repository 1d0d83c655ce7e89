"""The engines' independent oracle: the reference force-field functions.

``compute_nonbonded`` (direct per-call cell enumeration, nothing carried
between calls), ``compute_bonded`` and ``compute_ewald`` share no list,
task or reduction code with the engines' force-task path, so agreement to
1e-9 (summation order differs) checks that path end to end.

:func:`candidate_task_lists` is the list oracle: the per-candidate
``repeat``/``tile`` enumeration the force tasks used before they built
their lists from dense cell blocks, kept here so the row lists can be held
to it array for array.
"""

import numpy as np
import pytest

from repro.md.bonded import BONDED_KINDS, compute_bonded
from repro.md.ewald import compute_ewald
from repro.md.nonbonded import compute_nonbonded, filter_candidates

RTOL = 1e-9


def reference(system, options, ewald=None):
    """``(forces, lj, elec, bonded, n_pairs)`` at ``system``'s positions."""
    nb = compute_nonbonded(system, options, coulomb=ewald is None)
    bonded, forces = compute_bonded(system)
    forces += nb.forces
    elec = nb.energy_elec
    if ewald is not None:
        ew = compute_ewald(system, ewald)
        forces += ew.forces
        elec += ew.energy
    return forces, nb.energy_lj, elec, bonded, nb.n_pairs


def assert_matches_reference(engine, forces=None):
    """The engine's evaluation at its current positions — a fresh one, or
    ``forces`` it already computed there — against the reference functions."""
    if forces is None:
        forces = engine.compute_forces()
    report = engine.report()
    f_ref, lj, elec, bonded, n_pairs = reference(
        engine.system, engine.options, engine.ewald
    )
    scale = np.abs(f_ref).max()
    assert np.allclose(forces, f_ref, rtol=RTOL, atol=RTOL * scale)
    assert report.lj == pytest.approx(lj, rel=RTOL)
    assert report.elec == pytest.approx(elec, rel=RTOL)
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
