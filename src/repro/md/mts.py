"""Multiple timestepping (impulse/r-RESPA style).

The paper notes that grid-based long-range methods are typically "combined
with multiple timestepping methods" (§1); NAMD itself integrates bonded
forces every step and non-bonded forces on a longer cycle.  This module
implements the impulse (Verlet-I/r-RESPA) scheme for the cutoff engine:

* *fast* forces (bonded terms) are evaluated every inner step ``dt``,
* *slow* forces (non-bonded) are evaluated every ``n_inner`` steps and
  applied as impulses of weight ``n_inner * dt``.

Symplectic and time-reversible; energy conservation degrades gracefully as
``n_inner`` grows (resonance limits apply, as in real MD practice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.bonded import compute_bonded
from repro.md.constants import ACC_CONVERSION
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import ParallelNonbonded
from repro.md.system import MolecularSystem

__all__ = ["MTSEngine", "MTSReport"]


@dataclass
class MTSReport:
    """Energies after one outer MTS cycle."""

    outer_step: int
    kinetic: float
    lj: float
    elec: float
    bonded: float

    @property
    def total(self) -> float:
        """Total energy of the outer step (kcal/mol)."""
        return self.kinetic + self.lj + self.elec + self.bonded


class MTSEngine:
    """Impulse multiple-timestep integrator over a molecular system.

    Parameters
    ----------
    system:
        Advanced in place.
    dt:
        Inner (bonded) timestep in fs.
    n_inner:
        Inner steps per non-bonded evaluation (1 = plain velocity Verlet
        with split force evaluation).
    options:
        Non-bonded cutoff scheme.
    nonbonded:
        Optional evaluator for the slow forces — any object with the
        :meth:`repro.md.parallel.ParallelNonbonded.compute` interface
        (returns a :class:`~repro.md.nonbonded.NonbondedResult` at the
        system's current positions).  Defaults to a ``ParallelNonbonded``
        without workers (the force tasks run in-process); pass one with
        ``n_workers > 1`` to evaluate the slow impulse on a worker pool.
        The engine adopts it: :meth:`close` shuts it down.
    backend:
        Kernel backend spec for the default evaluator (see
        :mod:`repro.backend`); ignored when an external ``nonbonded``
        evaluator is supplied (that evaluator carries its own backend).
    ewald:
        Optional :class:`repro.md.ewald.EwaldOptions`; replaces the cutoff
        point-charge electrostatics of the default evaluator with the
        full periodic Ewald sum (as the slow component — standard r-RESPA
        practice).  Ignored when an external ``nonbonded`` evaluator is
        supplied: construct that evaluator with its own ``ewald``.
    """

    def __init__(
        self,
        system: MolecularSystem,
        dt: float = 1.0,
        n_inner: int = 2,
        options: NonbondedOptions | None = None,
        nonbonded=None,
        backend=None,
        ewald=None,
    ) -> None:
        from repro.backend import get_backend

        if n_inner < 1:
            raise ValueError("n_inner must be >= 1")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.system = system
        self.dt = float(dt)
        self.n_inner = int(n_inner)
        self.options = options or NonbondedOptions()
        self.backend = get_backend(backend)
        self.ewald = ewald if nonbonded is None else None
        self.nonbonded = nonbonded or ParallelNonbonded(
            system, self.options, n_workers=1, backend=self.backend,
            ewald=ewald,
        )
        self._outer = 0
        self._slow_forces: np.ndarray | None = None
        self._last: MTSReport | None = None

    # ------------------------------------------------------------------ #
    def _fast_forces(self) -> tuple[float, np.ndarray]:
        energies, forces = compute_bonded(self.system)
        return energies.total, forces

    def _slow(self) -> tuple[float, float, np.ndarray]:
        self.system.wrap()
        res = self.nonbonded.compute()
        return res.energy_lj, res.energy_elec, res.forces

    def _kick(self, forces: np.ndarray, dt: float) -> None:
        self.system.velocities += (
            (0.5 * dt * ACC_CONVERSION) * forces / self.system.masses[:, None]
        )

    def step(self) -> MTSReport:
        """One outer cycle: slow impulse, ``n_inner`` fast Verlet steps,
        slow impulse."""
        sys = self.system
        if self._slow_forces is None:
            _, _, self._slow_forces = self._slow()
        outer_dt = self.n_inner * self.dt

        # opening slow impulse (half of the outer kick)
        self._kick(self._slow_forces, outer_dt)

        e_fast = 0.0
        _, fast = self._fast_forces()
        for _ in range(self.n_inner):
            self._kick(fast, self.dt)
            sys.positions += self.dt * sys.velocities
            e_fast, fast = self._fast_forces()
            self._kick(fast, self.dt)

        # closing slow impulse with forces at the new positions
        e_lj, e_el, self._slow_forces = self._slow()
        self._kick(self._slow_forces, outer_dt)

        self._outer += 1
        self._last = MTSReport(
            outer_step=self._outer,
            kinetic=sys.kinetic_energy(),
            lj=e_lj,
            elec=e_el,
            bonded=e_fast,
        )
        return self._last

    def run(self, n_outer: int) -> list[MTSReport]:
        """Advance ``n_outer`` outer cycles; returns per-cycle reports."""
        return [self.step() for _ in range(n_outer)]

    @property
    def nonbonded_evaluations_saved(self) -> float:
        """Fraction of non-bonded evaluations avoided vs single stepping."""
        return 1.0 - 1.0 / self.n_inner

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the non-bonded evaluator (its worker pool, if any)."""
        if hasattr(self.nonbonded, "close"):
            self.nonbonded.close()

    def __enter__(self) -> "MTSEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
