"""Incremental composition of molecular systems.

The synthetic benchmark builders construct systems one molecule (or one
molecule family) at a time: each :meth:`SystemAssembler.add_component` call
appends a block of atoms plus its local topology, shifting term indices by
the current atom count.  :meth:`SystemAssembler.finalize` produces the
:class:`~repro.md.system.MolecularSystem` consumed by both engines.
"""

from __future__ import annotations

import numpy as np

from repro.md.forcefield import ForceField, default_forcefield
from repro.md.system import MolecularSystem
from repro.md.topology import Topology

__all__ = ["SystemAssembler"]


class SystemAssembler:
    """Accumulates components (water, protein, lipids, ions) into one system.

    Parameters
    ----------
    box:
        Orthorhombic box lengths ``(Lx, Ly, Lz)`` in Å.
    forcefield:
        Parameter registry; defaults to :func:`default_forcefield`.  Atom
        names passed to :meth:`add_component` must already be registered.
    """

    def __init__(self, box: np.ndarray, forcefield: ForceField | None = None) -> None:
        self.box = np.asarray(box, dtype=np.float64)
        if self.box.shape != (3,) or np.any(self.box <= 0):
            raise ValueError(f"box must be 3 positive lengths; got {box}")
        self.forcefield = forcefield if forcefield is not None else default_forcefield()
        self.topology = Topology()
        self._positions: list[np.ndarray] = []
        self._charges: list[np.ndarray] = []
        self._type_indices: list[int] = []
        self._labels: list[str] = []
        self._n_atoms = 0

    @property
    def n_atoms(self) -> int:
        """Number of atoms added so far."""
        return self._n_atoms

    def add_component(
        self,
        positions: np.ndarray,
        charges: np.ndarray,
        names: list[str],
        topology: Topology,
        label: str,
    ) -> int:
        """Append one component; returns the atom-index offset it received.

        ``names`` are atom-type names resolved against the assembler's force
        field (``KeyError`` if unregistered); ``topology`` uses local indices
        ``0..n-1`` and is merged with the returned offset.
        """
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        q = np.asarray(charges, dtype=np.float64).ravel()
        n = len(pos)
        if len(q) != n or len(names) != n:
            raise ValueError(
                f"component arrays disagree: {n} positions, {len(q)} charges, "
                f"{len(names)} names"
            )
        # each distinct name resolved once, in order of first use
        index = {
            name: self.forcefield.atom_type_index(name) for name in dict.fromkeys(names)
        }
        offset = self._n_atoms
        self.topology.merge(topology, offset)
        self._positions.append(pos)
        self._charges.append(q)
        self._type_indices.extend(map(index.__getitem__, names))
        self._labels.extend([label] * n)
        self._n_atoms += n
        return offset

    def current_positions(self) -> np.ndarray:
        """Copy of all positions added so far (``(n_atoms, 3)``)."""
        if not self._positions:
            return np.zeros((0, 3), dtype=np.float64)
        return np.concatenate(self._positions, axis=0)

    def finalize(self, name: str = "assembly", wrap: bool = True) -> MolecularSystem:
        """Build the :class:`MolecularSystem`; wraps into the box by default."""
        if self._n_atoms == 0:
            raise ValueError("cannot finalize an empty assembly")
        system = MolecularSystem(
            positions=self.current_positions(),
            velocities=np.zeros((self._n_atoms, 3), dtype=np.float64),
            charges=np.concatenate(self._charges),
            type_indices=np.array(self._type_indices, dtype=np.int64),
            topology=self.topology,
            forcefield=self.forcefield,
            box=self.box.copy(),
            segment_labels=list(self._labels),
            name=name,
        )
        if wrap:
            system.wrap()
        return system
