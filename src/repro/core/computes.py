"""Compute-object descriptors and grainsize control (paper §3.1, §4.2.1–2).

A *descriptor* is the placement-independent identity of one compute object:
what it computes, which patches it needs, its modeled load, and whether the
balancer may move it.  The simulation driver turns descriptors into chares
each placement phase; the balancer reasons about descriptors only.

Grainsize control reproduces §4.2.1: self computes are split by atom count
(the "initial" improvement) and face/edge/corner pair computes are split when
their modeled load exceeds the target grainsize (the Figure 1 → Figure 2
optimization, eliminating the bimodal tail that capped scaling at
``T_sequential / T_largest_object``).

The bonded split reproduces §4.2.2: per patch and term kind we create one
*intra* object (every atom in the patch; migratable, communicates exactly
like a non-bonded self compute) and one *inter* object (terms spanning
patches; non-migratable, pinned to the owner patch's processor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import get_backend
from repro.core.decomposition import BondedAssignment, SpatialDecomposition
from repro.core.grainsize import GrainsizeConfig
from repro.costmodel.model import CostModel, block_pair_counts

__all__ = [
    "ComputeDescriptor",
    "GrainsizeConfig",
    "build_nonbonded_computes",
    "build_bonded_computes",
]


@dataclass
class ComputeDescriptor:
    """Identity + modeled load of one compute object.

    ``kind`` is one of ``"nb_self"``, ``"nb_pair"``, ``"bonded_intra"``,
    ``"bonded_inter"``.  ``part``/``n_parts`` identify a grainsize slice
    (atoms of the first patch striped ``part::n_parts``).  ``load`` is the
    cost-model execution time in reference seconds; the load balancer will
    *measure* actual times at runtime, but descriptors carry the model value
    for placement before any measurement exists.
    """

    kind: str
    patches: tuple[int, ...]
    part: int = 0
    n_parts: int = 1
    load: float = 0.0
    n_pairs: int = 0
    n_candidates: int = 0
    migratable: bool = True
    #: term indices for bonded computes: {kind: np.ndarray}
    term_indices: dict[str, np.ndarray] = field(default_factory=dict)
    #: stable index assigned by the builder (used to match LB measurements
    #: across placement phases)
    index: int = -1

    @property
    def home_patch(self) -> int:
        """The patch this compute is anchored to for initial placement."""
        return self.patches[0]

    def label(self) -> str:
        p = "+".join(str(x) for x in self.patches)
        part = f"[{self.part}/{self.n_parts}]" if self.n_parts > 1 else ""
        return f"{self.kind}({p}){part}"


def build_nonbonded_computes(
    decomposition: SpatialDecomposition,
    cost_model: CostModel,
    grainsize: GrainsizeConfig | None = None,
) -> list[ComputeDescriptor]:
    """All non-bonded compute descriptors with exact loads.

    Loads come from exact in-cutoff pair counts on the current coordinates
    (what the paper's Projections measurements would report), through the
    calibrated cost model.  Every count is the count mode of the kernel
    that builds the engines' pair lists (``block_pairs``): a block's total
    decides its number of grainsize slices, and each slice counts its own
    row stripe, so the slices partition the block's pairs exactly.
    """
    grainsize = grainsize or GrainsizeConfig()
    pos, box = decomposition.system.positions, decomposition.system.box
    cutoff = decomposition.cutoff
    block_pairs = get_backend().block_pairs
    atoms = decomposition.patch_atoms
    blocks = [("nb_self", (p,)) for p in decomposition.self_patches()]
    blocks += [("nb_pair", pair) for pair in decomposition.neighbor_pairs()]
    descriptors: list[ComputeDescriptor] = []

    for kind, patches in blocks:
        atoms_a = atoms[patches[0]]
        atoms_b = atoms[patches[1]] if kind == "nb_pair" else None
        total_pairs, total_cand = block_pair_counts(
            pos, box, cutoff, atoms_a, atoms_b
        )
        n_parts = grainsize.parts_for(
            cost_model.nonbonded_cost(total_pairs, total_cand),
            grainsize.split_self if atoms_b is None else grainsize.split_pairs,
        )
        for part in range(n_parts):
            pairs = total_pairs if n_parts == 1 else int(
                block_pairs(pos, box, atoms_a, atoms_b, part, n_parts, cutoff)
            )
            # slice ``part`` owns the rows ``part::n_parts`` of the first patch
            n_rows = len(range(part, len(atoms_a), n_parts))
            if atoms_b is None:
                cand = n_rows * (len(atoms_a) - 1) // 2
            else:
                cand = n_rows * len(atoms_b)
            descriptors.append(
                ComputeDescriptor(
                    kind=kind,
                    patches=patches,
                    part=part,
                    n_parts=n_parts,
                    load=cost_model.nonbonded_cost(pairs, cand),
                    n_pairs=pairs,
                    n_candidates=cand,
                    migratable=True,
                )
            )

    for i, d in enumerate(descriptors):
        d.index = i
    return descriptors


def build_bonded_computes(
    decomposition: SpatialDecomposition,
    assignment: BondedAssignment,
    cost_model: CostModel,
    split_intra_inter: bool = True,
    index_offset: int = 0,
    grainsize: GrainsizeConfig | None = None,
) -> list[ComputeDescriptor]:
    """Bonded compute descriptors per patch (§4.2.2).

    The paper creates separate objects per bond *type* and per cube ("we
    created two bond objects for each bond type associated with a cube"); we
    do the same — one migratable intra object per (patch, term kind), further
    grainsize-split when a dense patch's terms exceed the target load, plus
    one non-migratable inter object per patch holding all boundary-crossing
    terms.

    With ``split_intra_inter=False`` the pre-§4.2.2 design is emulated: a
    single non-migratable bonded object per patch holding *all* of its terms
    (the ablation benchmark measures what this costs at scale).
    """
    grainsize = grainsize or GrainsizeConfig()
    descriptors: list[ComputeDescriptor] = []
    kinds = BondedAssignment.KINDS

    def kind_cost(kind: str, count: int) -> float:
        return cost_model.bonded_cost(
            count if kind == "bond" else 0,
            count if kind == "angle" else 0,
            count if kind == "dihedral" else 0,
            count if kind == "improper" else 0,
        )

    for p in decomposition.self_patches():
        intra_terms = {
            k: assignment.intra[k].get(p, np.zeros(0, dtype=np.int64)) for k in kinds
        }
        inter_terms = {
            k: assignment.inter[k].get(p, np.zeros(0, dtype=np.int64)) for k in kinds
        }
        intra_counts = {k: len(v) for k, v in intra_terms.items()}
        inter_counts = {k: len(v) for k, v in inter_terms.items()}

        if split_intra_inter:
            for kind in kinds:
                idx = intra_terms[kind]
                if len(idx) == 0:
                    continue
                total_load = kind_cost(kind, len(idx))
                n_parts = grainsize.parts_for(total_load, grainsize.split_self)
                for part in range(n_parts):
                    subset = idx[part::n_parts]
                    if len(subset) == 0:
                        continue
                    descriptors.append(
                        ComputeDescriptor(
                            kind="bonded_intra",
                            patches=(p,),
                            part=part,
                            n_parts=n_parts,
                            load=kind_cost(kind, len(subset)),
                            migratable=True,
                            term_indices={kind: subset},
                        )
                    )
            if sum(inter_counts.values()):
                upstream = tuple(
                    sorted({p, *_patches_of_terms(decomposition, inter_terms)})
                )
                descriptors.append(
                    ComputeDescriptor(
                        kind="bonded_inter",
                        patches=(p,) + tuple(q for q in upstream if q != p),
                        load=cost_model.bonded_cost(
                            inter_counts["bond"],
                            inter_counts["angle"],
                            inter_counts["dihedral"],
                            inter_counts["improper"],
                        ),
                        migratable=False,
                        term_indices=inter_terms,
                    )
                )
        else:
            merged = {
                k: np.concatenate([intra_terms[k], inter_terms[k]]) for k in kinds
            }
            if sum(len(v) for v in merged.values()) == 0:
                continue
            upstream = tuple(sorted({p, *_patches_of_terms(decomposition, merged)}))
            descriptors.append(
                ComputeDescriptor(
                    kind="bonded_inter",
                    patches=(p,) + tuple(q for q in upstream if q != p),
                    load=cost_model.bonded_cost(
                        intra_counts["bond"] + inter_counts["bond"],
                        intra_counts["angle"] + inter_counts["angle"],
                        intra_counts["dihedral"] + inter_counts["dihedral"],
                        intra_counts["improper"] + inter_counts["improper"],
                    ),
                    migratable=False,
                    term_indices=merged,
                )
            )

    for i, d in enumerate(descriptors):
        d.index = index_offset + i
    return descriptors


def _patches_of_terms(
    decomposition: SpatialDecomposition, terms: dict[str, np.ndarray]
) -> set[int]:
    """All patches touched by the atoms of the given terms."""
    topo = decomposition.system.topology
    tables = {
        "bond": topo.bond_arrays()[0],
        "angle": topo.angle_arrays()[0],
        "dihedral": topo.dihedral_arrays()[0],
        "improper": topo.improper_arrays()[0],
    }
    patches: set[int] = set()
    for kind, idx in terms.items():
        if len(idx) == 0:
            continue
        atoms = tables[kind][idx].ravel()
        patches.update(int(p) for p in np.unique(decomposition.patch_of_atom[atoms]))
    return patches
