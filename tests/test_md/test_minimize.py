"""Steepest-descent minimizer."""

import numpy as np
import pytest

from repro.builder import small_water_box, tiny_peptide
from repro.md.bonded import compute_bonded
from repro.md.minimize import minimize
from repro.md.nonbonded import NonbondedOptions, compute_nonbonded


class TestMinimize:
    def test_reduces_energy(self):
        s = small_water_box(27, seed=12, relax=False)
        res = minimize(s, NonbondedOptions(cutoff=5.0), max_iterations=50)
        assert res.final_energy <= res.initial_energy

    def test_monotone_nonincreasing_api(self):
        s = small_water_box(27, seed=12, relax=False)
        r1 = minimize(s, NonbondedOptions(cutoff=5.0), max_iterations=20)
        r2 = minimize(s, NonbondedOptions(cutoff=5.0), max_iterations=20)
        assert r2.initial_energy == pytest.approx(r1.final_energy, rel=1e-9)
        assert r2.final_energy <= r2.initial_energy

    def test_converged_flag_on_easy_system(self):
        s = small_water_box(8, seed=2, relax=False)
        res = minimize(
            s, NonbondedOptions(cutoff=4.0), max_iterations=500, force_tolerance=30.0
        )
        assert res.converged
        assert res.max_force < 30.0

    def test_max_displacement_respected(self):
        s = small_water_box(27, seed=12, relax=False)
        before = s.positions.copy()
        minimize(s, NonbondedOptions(cutoff=5.0), max_iterations=1, max_displacement=0.1)
        moved = np.linalg.norm(s.positions - before, axis=1)
        assert moved.max() <= 0.1 + 1e-9


def reference_descent(
    system,
    options,
    max_iterations=200,
    force_tolerance=10.0,
    initial_step=0.02,
    max_displacement=0.2,
):
    """The descent on the global force functions: the same step rule,
    displacement cap and stopping rule, with every trial evaluated by
    ``compute_nonbonded`` + ``compute_bonded``.  Returns ``(iterations,
    converged, final_energy)`` and leaves ``system`` at the final
    positions."""

    def energy_forces():
        nb = compute_nonbonded(system, options)
        be, forces = compute_bonded(system)
        forces += nb.forces
        return nb.energy + be.total, forces

    energy, forces = energy_forces()
    step = initial_step
    it = 0
    for it in range(1, max_iterations + 1):
        fmax = float(np.abs(forces).max())
        if fmax < force_tolerance:
            return it - 1, True, energy
        displacement = step * forces
        norms = np.linalg.norm(displacement, axis=1)
        big = norms > max_displacement
        if np.any(big):
            displacement[big] *= (max_displacement / norms[big])[:, None]
        saved = system.positions
        system.positions = saved + displacement
        new_energy, new_forces = energy_forces()
        if new_energy < energy:
            energy, forces = new_energy, new_forces
            step *= 1.2
        else:
            system.positions = saved
            step *= 0.5
            if step < 1e-8:
                break
    fmax = float(np.abs(forces).max())
    return it, fmax < force_tolerance, energy


def _water(n, seed):
    s = small_water_box(n, seed=seed, relax=False)
    return s, NonbondedOptions(cutoff=min(6.0, 0.49 * float(s.box[0])))


class TestEngineDescent:
    """``minimize`` evaluates on a ``SequentialEngine``'s force tasks; it
    must take the reference descent's path: the same accepted and rejected
    trials, so the same iteration count, and the same minimum."""

    @pytest.mark.parametrize(
        "make, kwargs",
        [
            (lambda: _water(64, 3), {}),
            (lambda: _water(100, 4), {}),
            (
                lambda: (
                    tiny_peptide(5, relax=False),
                    NonbondedOptions(cutoff=10.0),
                ),
                {"max_iterations": 150},
            ),
        ],
        ids=["water64", "water100", "peptide5"],
    )
    def test_matches_the_reference_descent(self, make, kwargs):
        system, options = make()
        reference = system.copy()
        iterations, converged, energy = reference_descent(
            reference, options, **kwargs
        )
        res = minimize(system, options, **kwargs)
        assert res.iterations == iterations
        assert res.converged == converged
        assert res.final_energy == pytest.approx(energy, rel=1e-9, abs=0.0)
        np.testing.assert_allclose(
            system.positions, reference.positions, rtol=0.0, atol=1e-9
        )

    def test_positions_are_not_wrapped(self):
        """The engine folds positions into the box for its cell lists; the
        descent hands back its own unwrapped coordinates."""
        system, options = _water(27, 12)
        system.positions = system.positions + system.box
        start = system.positions.copy()
        minimize(system, options, max_iterations=3)
        assert np.all(system.positions > system.box - 1.0)
        assert np.abs(system.positions - start).max() <= 0.2 + 1e-9
