"""Energy minimization (steepest descent with adaptive step).

Synthetic structures from :mod:`repro.builder` start from jittered lattices
and random-walk chains, so a few bad contacts are inevitable.  A short
minimization removes them before dynamics — the same preparation step every
production MD package performs before equilibration.

Every trial is evaluated on the engine's force tasks: one
:class:`~repro.md.engine.SequentialEngine`, held for the whole descent,
gives the forces (``compute_forces``) and the potential energy
(``report().potential``), with its pair lists reused between trials while
the atoms stay inside their skin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.engine import SequentialEngine
from repro.md.nonbonded import NonbondedOptions
from repro.md.system import MolecularSystem

__all__ = ["minimize", "MinimizationResult"]


@dataclass
class MinimizationResult:
    """Outcome of a minimization run."""

    initial_energy: float
    final_energy: float
    iterations: int
    converged: bool
    max_force: float


def _energy_forces(
    engine: SequentialEngine, positions: np.ndarray
) -> tuple[float, np.ndarray]:
    # compute_forces swaps a wrapped copy into system.positions and leaves
    # ``positions`` as it was: the descent's own, unwrapped, coordinates
    engine.system.positions = positions
    forces = engine.compute_forces()
    return engine.report().potential, forces


def minimize(
    system: MolecularSystem,
    options: NonbondedOptions | None = None,
    max_iterations: int = 200,
    force_tolerance: float = 10.0,
    initial_step: float = 0.02,
    max_displacement: float = 0.2,
) -> MinimizationResult:
    """Steepest-descent minimization, in place.

    The step size adapts: it grows 20% after a successful (energy-lowering)
    step and halves after a rejected one — the classic robust scheme for
    removing clashes.  Per-atom displacement is capped at
    ``max_displacement`` Å per iteration so overlapping atoms cannot be
    catapulted.

    Returns a :class:`MinimizationResult`; ``converged`` means the maximum
    per-atom force dropped below ``force_tolerance`` (kcal/mol/Å).
    """
    positions = system.positions
    engine = SequentialEngine(system, options)
    try:
        energy, forces = _energy_forces(engine, positions)
        initial_energy = energy
        step = initial_step
        it = 0
        for it in range(1, max_iterations + 1):
            fmax = float(np.abs(forces).max()) if system.n_atoms else 0.0
            if fmax < force_tolerance:
                return MinimizationResult(initial_energy, energy, it - 1, True, fmax)
            displacement = step * forces
            norms = np.linalg.norm(displacement, axis=1)
            big = norms > max_displacement
            if np.any(big):
                displacement[big] *= (max_displacement / norms[big])[:, None]
            trial = positions + displacement
            new_energy, new_forces = _energy_forces(engine, trial)
            if new_energy < energy:
                positions, energy, forces = trial, new_energy, new_forces
                step *= 1.2
            else:
                step *= 0.5
                if step < 1e-8:
                    break
        fmax = float(np.abs(forces).max()) if system.n_atoms else 0.0
        return MinimizationResult(
            initial_energy, energy, it, fmax < force_tolerance, fmax
        )
    finally:
        engine.close()
        system.positions = positions
