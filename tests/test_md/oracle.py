"""The engines' independent oracle: the reference force-field functions.

``compute_nonbonded`` (direct per-call cell enumeration, nothing carried
between calls), ``compute_bonded`` and ``compute_ewald`` share no list,
task or reduction code with the engines' force-task path, so agreement to
1e-9 (summation order differs) checks that path end to end.
"""

import numpy as np
import pytest

from repro.md.bonded import BONDED_KINDS, compute_bonded
from repro.md.ewald import compute_ewald
from repro.md.nonbonded import compute_nonbonded

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
