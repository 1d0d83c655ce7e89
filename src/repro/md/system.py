"""The :class:`MolecularSystem` container.

A system bundles per-atom arrays (positions, velocities, masses, charges,
atom-type indices), the covalent :class:`~repro.md.topology.Topology`, the
force field, and the periodic box.  It is the single input object consumed by
both the sequential engine (:mod:`repro.md.engine`) and the parallel
decomposition (:mod:`repro.core.decomposition`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import get_backend
from repro.md.constants import BOLTZMANN_KCAL, KCAL_PER_AMU_A2_FS2
from repro.md.forcefield import ForceField
from repro.md.topology import Exclusions, Topology
from repro.util.rng import make_rng

__all__ = ["MolecularSystem"]


@dataclass
class MolecularSystem:
    """A complete simulatable molecular system.

    Attributes
    ----------
    positions:
        ``(n, 3)`` float64 coordinates in Å.
    velocities:
        ``(n, 3)`` float64 velocities in Å/fs.
    charges:
        ``(n,)`` partial charges in units of e.
    type_indices:
        ``(n,)`` integer indices into ``forcefield.atom_types``.
    topology:
        Covalent structure; see :class:`repro.md.topology.Topology`.
    forcefield:
        Parameter registry the type indices refer to.
    box:
        Orthorhombic box lengths ``(Lx, Ly, Lz)`` in Å.
    segment_labels:
        Optional per-atom component label (``"WAT"``, ``"PROT"``, ``"LIP"``)
        used by analysis and the density-aware builders.
    """

    positions: np.ndarray
    velocities: np.ndarray
    charges: np.ndarray
    type_indices: np.ndarray
    topology: Topology
    forcefield: ForceField
    box: np.ndarray
    segment_labels: list[str] = field(default_factory=list)
    name: str = "system"
    _exclusions: Exclusions | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.velocities = np.ascontiguousarray(self.velocities, dtype=np.float64)
        self.charges = np.ascontiguousarray(self.charges, dtype=np.float64)
        self.type_indices = np.ascontiguousarray(self.type_indices, dtype=np.int64)
        self.box = np.asarray(self.box, dtype=np.float64)
        n = len(self.positions)
        if self.positions.shape != (n, 3):
            raise ValueError(f"positions must be (n, 3); got {self.positions.shape}")
        for label, arr, shape in (
            ("velocities", self.velocities, (n, 3)),
            ("charges", self.charges, (n,)),
            ("type_indices", self.type_indices, (n,)),
        ):
            if arr.shape != shape:
                raise ValueError(f"{label} must have shape {shape}; got {arr.shape}")
        if self.box.shape != (3,) or np.any(self.box <= 0):
            raise ValueError(f"box must be 3 positive lengths; got {self.box}")
        if self.type_indices.size and (
            self.type_indices.min() < 0
            or self.type_indices.max() >= self.forcefield.n_atom_types
        ):
            raise ValueError("type_indices reference unknown atom types")
        if self.segment_labels and len(self.segment_labels) != n:
            raise ValueError("segment_labels length must match atom count")
        self.topology.validate(n)

    # ------------------------------------------------------------------ #
    @property
    def n_atoms(self) -> int:
        """Number of atoms in the system."""
        return len(self.positions)

    @property
    def masses(self) -> np.ndarray:
        """Per-atom masses (amu), gathered from the force field."""
        mass_table, _, _ = self.forcefield.lj_tables()
        return mass_table[self.type_indices]

    @property
    def exclusions(self) -> Exclusions:
        """Exclusion data, built lazily from the topology and cached."""
        if self._exclusions is None:
            self._exclusions = self.topology.build_exclusions(self.n_atoms)
        return self._exclusions

    def invalidate_exclusions(self) -> None:
        """Drop the cached exclusion data (call after editing the topology)."""
        self._exclusions = None

    # ------------------------------------------------------------------ #
    def wrap(self, backend=None) -> None:
        """Fold all positions into the primary periodic cell, in place:
        ``positions`` stays the same array.  Positions that are not a
        writable C-contiguous float64 array are replaced by a contiguous
        copy first.  ``backend`` folds them (a
        :class:`repro.backend.KernelBackend` or spec; ``None``, the session
        default) — with :func:`repro.util.pbc.wrap_positions`' bits on every
        backend."""
        pos = self.positions
        if not (
            isinstance(pos, np.ndarray) and pos.dtype == np.float64
            and pos.flags.c_contiguous and pos.flags.writeable
        ):
            self.positions = pos = np.array(pos, dtype=np.float64, order="C")
        get_backend(backend).wrap_positions(pos, self.box)

    def kinetic_energy(self) -> float:
        """Total kinetic energy in kcal/mol."""
        v2 = np.einsum("ij,ij->i", self.velocities, self.velocities)
        return float(0.5 * KCAL_PER_AMU_A2_FS2 * np.dot(self.masses, v2))

    def temperature(self) -> float:
        """Instantaneous temperature in K (3N degrees of freedom)."""
        if self.n_atoms == 0:
            return 0.0
        dof = 3 * self.n_atoms
        return 2.0 * self.kinetic_energy() / (dof * BOLTZMANN_KCAL)

    def assign_velocities(self, temperature: float, seed: int | None = 0) -> None:
        """Draw Maxwell-Boltzmann velocities for ``temperature`` Kelvin.

        After sampling, the centre-of-mass momentum is removed so the system
        does not drift, and velocities are rescaled to hit ``temperature``
        exactly.
        """
        rng = make_rng(seed)
        masses = self.masses
        # sigma^2 = kB T / m in engine units: v in Å/fs
        sigma = np.sqrt(BOLTZMANN_KCAL * temperature / (masses * KCAL_PER_AMU_A2_FS2))
        self.velocities = rng.normal(size=(self.n_atoms, 3)) * sigma[:, None]
        # remove centre-of-mass drift
        total_mass = masses.sum()
        com_velocity = (masses[:, None] * self.velocities).sum(axis=0) / total_mass
        self.velocities -= com_velocity
        if temperature > 0 and self.n_atoms > 1:
            current = self.temperature()
            if current > 0:
                self.velocities *= np.sqrt(temperature / current)

    # ------------------------------------------------------------------ #
    def copy(self) -> "MolecularSystem":
        """Deep copy of arrays; topology and force field are shared."""
        return MolecularSystem(
            positions=self.positions.copy(),
            velocities=self.velocities.copy(),
            charges=self.charges.copy(),
            type_indices=self.type_indices.copy(),
            topology=self.topology,
            forcefield=self.forcefield,
            box=self.box.copy(),
            segment_labels=list(self.segment_labels),
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MolecularSystem(name={self.name!r}, n_atoms={self.n_atoms}, "
            f"box={self.box.tolist()}, {self.topology!r})"
        )
