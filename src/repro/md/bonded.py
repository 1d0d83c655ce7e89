"""Bonded force kernels: bonds, angles, dihedrals, impropers.

These are the 2-, 3-, and 4-body covalent terms of §3 of the paper ("Forces
due to covalent bonds within biomolecules are represented via a sum of 2-body
(bond), 3-body (angle), and 4-body (dihedral and improper) terms which follow
the topology of the molecule").

Every kernel is vectorized over its term array and accepts an optional
``subset`` of term indices so the parallel layer can evaluate exactly the
terms owned by one patch (paper §3: the upstream-ownership rule assigns each
term to a unique patch).  Forces are *accumulated* into the caller's array,
matching how home patches combine force messages.

The per-term math lives in the backend layer (``backend.bonded_terms``, a
numpy reference bit-identical to the historical inline code) so the
parallel engine's worker processes can evaluate bonded tasks through the
same kernel registry as the pair kernel.  These wrappers
keep the md-facing API: term arrays come from the topology, forces scatter
at the global atom indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import KernelBackend, get_backend
from repro.md.system import MolecularSystem

__all__ = [
    "BondedEnergies",
    "BONDED_KINDS",
    "bonded_term_arrays",
    "compute_bonds",
    "compute_angles",
    "compute_dihedrals",
    "compute_impropers",
    "compute_bonded",
    "dihedral_angles",
]

#: Kind codes of the ``backend.bonded_terms`` contract, in evaluation order.
BONDED_KINDS = ("bond", "angle", "dihedral", "improper")


@dataclass
class BondedEnergies:
    """Per-kind bonded energies (kcal/mol) from one evaluation."""

    bond: float = 0.0
    angle: float = 0.0
    dihedral: float = 0.0
    improper: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all bonded energy components."""
        return self.bond + self.angle + self.dihedral + self.improper


def _take(arr: np.ndarray, subset: np.ndarray | None) -> np.ndarray:
    return arr if subset is None else arr[subset]


def bonded_term_arrays(
    system: MolecularSystem, kind: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(idx, k, p1, p2)`` arrays of one bonded-term kind.

    This is the kernel-ready form of the topology's term tables, matching
    the ``backend.bonded_terms`` contract: ``p1`` is the equilibrium
    parameter (``r0``/``theta0``/periodicity/``psi0``), ``p2`` the dihedral
    phase (zeros for other kinds).  The parallel engine partitions these
    arrays into per-cell tasks.
    """
    topo = system.topology
    if kind == 0:
        idx, k, r0 = topo.bond_arrays()
        return idx, k, r0, np.zeros(len(k))
    if kind == 1:
        idx, k, theta0 = topo.angle_arrays()
        return idx, k, theta0, np.zeros(len(k))
    if kind == 2:
        idx, k, n_per, delta = topo.dihedral_arrays()
        return idx, k, n_per, delta
    if kind == 3:
        idx, k, psi0 = topo.improper_arrays()
        return idx, k, psi0, np.zeros(len(k))
    raise ValueError(f"unknown bonded term kind {kind!r}")


def _compute_kind(
    system: MolecularSystem,
    kind: int,
    forces: np.ndarray,
    subset: np.ndarray | None,
    backend: KernelBackend | str | None,
) -> float:
    idx, k, p1, p2 = bonded_term_arrays(system, kind)
    idx, k = _take(idx, subset), _take(k, subset)
    p1, p2 = _take(p1, subset), _take(p2, subset)
    if len(idx) == 0:
        return 0.0
    return get_backend(backend).bonded_terms(
        system.positions, system.box, kind, idx, k, p1, p2, forces, idx
    )


def compute_bonds(
    system: MolecularSystem,
    forces: np.ndarray,
    subset: np.ndarray | None = None,
    backend: KernelBackend | str | None = None,
) -> float:
    """Harmonic bonds ``E = k (r - r0)²``; returns energy, accumulates forces."""
    return _compute_kind(system, 0, forces, subset, backend)


def compute_angles(
    system: MolecularSystem,
    forces: np.ndarray,
    subset: np.ndarray | None = None,
    backend: KernelBackend | str | None = None,
) -> float:
    """Harmonic angles ``E = k (θ - θ0)²`` centred on the middle atom."""
    return _compute_kind(system, 1, forces, subset, backend)


def compute_dihedrals(
    system: MolecularSystem,
    forces: np.ndarray,
    subset: np.ndarray | None = None,
    backend: KernelBackend | str | None = None,
) -> float:
    """Cosine torsions ``E = k (1 + cos(n φ - δ))``."""
    return _compute_kind(system, 2, forces, subset, backend)


def compute_impropers(
    system: MolecularSystem,
    forces: np.ndarray,
    subset: np.ndarray | None = None,
    backend: KernelBackend | str | None = None,
) -> float:
    """Harmonic impropers ``E = k (ψ - ψ0)²`` on the torsion angle ψ.

    The deviation is wrapped into ``[-π, π)`` so that ψ0 near ±π behaves
    continuously.
    """
    return _compute_kind(system, 3, forces, subset, backend)


def compute_bonded(
    system: MolecularSystem,
    forces: np.ndarray | None = None,
    backend: KernelBackend | str | None = None,
) -> tuple[BondedEnergies, np.ndarray]:
    """All bonded terms; returns energies and the (possibly new) force array."""
    if forces is None:
        forces = np.zeros((system.n_atoms, 3), dtype=np.float64)
    energies = BondedEnergies(
        bond=compute_bonds(system, forces, backend=backend),
        angle=compute_angles(system, forces, backend=backend),
        dihedral=compute_dihedrals(system, forces, backend=backend),
        improper=compute_impropers(system, forces, backend=backend),
    )
    return energies, forces


def dihedral_angles(system: MolecularSystem) -> np.ndarray:
    """Torsion angles φ (radians) of every dihedral, for analysis/tests."""
    from repro.backend import reference as _reference

    idx, _, _, _ = system.topology.dihedral_arrays()
    if len(idx) == 0:
        return np.zeros(0)
    phi = _reference._torsion_geometry(system.positions, system.box, idx)[0]
    return phi
