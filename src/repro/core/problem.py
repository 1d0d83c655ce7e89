"""Reusable decomposition + descriptor bundle.

Building descriptors requires exact pair counting over every patch pair —
seconds of work for the 92k/206k-atom benchmarks.  None of it depends on the
processor count or machine model, so benchmark sweeps build one
:class:`DecomposedProblem` per (system, grainsize/bonded configuration) and
run :class:`~repro.core.simulation.ParallelSimulation` against it for every
processor count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.computes import (
    ComputeDescriptor,
    build_bonded_computes,
    build_nonbonded_computes,
)
from repro.core.decomposition import BondedAssignment, SpatialDecomposition
from repro.costmodel.grainsize import GrainsizeConfig
from repro.costmodel.model import CostModel, WorkCounts
from repro.md.system import MolecularSystem

__all__ = ["DecomposedProblem"]


@dataclass
class DecomposedProblem:
    """Everything about a system's parallel structure that is independent of
    the machine and processor count."""

    system: MolecularSystem
    cutoff: float
    grainsize: GrainsizeConfig
    split_bonded: bool
    cost_model: CostModel
    decomposition: SpatialDecomposition
    assignment: BondedAssignment
    nb_descriptors: list[ComputeDescriptor]
    bonded_descriptors: list[ComputeDescriptor]
    counts: WorkCounts

    @classmethod
    def build(
        cls,
        system: MolecularSystem,
        cost_model: CostModel,
        cutoff: float = 12.0,
        dims: tuple[int, int, int] | None = None,
        grainsize: GrainsizeConfig | None = None,
        split_bonded: bool = True,
    ) -> "DecomposedProblem":
        """Decompose a system and build all compute descriptors."""
        grainsize = grainsize or GrainsizeConfig()
        decomposition = SpatialDecomposition(system, cutoff, dims)
        assignment = decomposition.assign_bonded_terms()
        nb = build_nonbonded_computes(decomposition, cost_model, grainsize)
        bonded = build_bonded_computes(
            decomposition,
            assignment,
            cost_model,
            split_intra_inter=split_bonded,
            index_offset=len(nb),
            grainsize=grainsize,
        )
        topo = system.topology
        counts = WorkCounts(
            atoms=system.n_atoms,
            nonbonded_pairs=sum(d.n_pairs for d in nb),
            candidate_pairs=sum(d.n_candidates for d in nb),
            bonds=topo.n_bonds,
            angles=topo.n_angles,
            dihedrals=topo.n_dihedrals,
            impropers=topo.n_impropers,
        )
        return cls(
            system=system,
            cutoff=cutoff,
            grainsize=grainsize,
            split_bonded=split_bonded,
            cost_model=cost_model,
            decomposition=decomposition,
            assignment=assignment,
            nb_descriptors=nb,
            bonded_descriptors=bonded,
            counts=counts,
        )

    @property
    def descriptors(self) -> list[ComputeDescriptor]:
        """All compute descriptors (non-bonded then bonded)."""
        return self.nb_descriptors + self.bonded_descriptors
