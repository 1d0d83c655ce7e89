"""Spatial decomposition into patches (paper §3).

"The variant of spatial decomposition we propose uses cubes whose dimensions
are slightly larger than the cutoff radius.  Thus, atoms in one cube need to
interact only with their neighboring cubes; there are 26 such neighboring
cubes."

The patch grid divides each box axis into ``floor(L / (cutoff * factor))``
patches with ``factor = 15.5/12`` — the sizing that reproduces the paper's
published grids exactly: ApoA-I's 108.86x108.86x77.76 Å box at 12 Å cutoff
gives 7x7x5 = 245 patches, BC1 gives 9x7x6 = 378, bR gives 4x3x3 = 36.

Bonded-term ownership follows §3 verbatim: "a force computation object is
created for each cube and its upstream neighbors ... Bonded forces among
sets of (2, 3, or 4) atoms are calculated by this object if and only if the
base cube coordinates are equal to the minimum of the cube coordinates for
all constituent atoms along each axis" — with the minimum taken
periodic-wrap-aware, since covalent terms span at most adjacent patches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.cells import HALF_SHELL_OFFSETS, bin_atoms
from repro.md.system import MolecularSystem

__all__ = [
    "SpatialDecomposition",
    "BondedAssignment",
    "PATCH_SIZE_FACTOR",
]

#: Patch edge = cutoff * this factor (minimum); 15.5/12 reproduces ApoA-I's
#: published 245-patch grid.
PATCH_SIZE_FACTOR = 15.5 / 12.0

#: The 7 upstream offsets of §3: {0,1}³ minus the zero offset.
UPSTREAM_OFFSETS = np.array(
    [
        (dx, dy, dz)
        for dx in (0, 1)
        for dy in (0, 1)
        for dz in (0, 1)
        if (dx, dy, dz) != (0, 0, 0)
    ],
    dtype=np.int64,
)


@dataclass
class BondedAssignment:
    """Per-patch bonded-term ownership, split intra/inter (§4.2.2).

    Each field maps ``patch -> array of term indices`` into the system
    topology.  ``intra`` terms have every atom inside the owner patch (these
    become migratable computes); ``inter`` terms span patches (these stay on
    the owner patch's processor).
    """

    intra: dict[str, dict[int, np.ndarray]] = field(default_factory=dict)
    inter: dict[str, dict[int, np.ndarray]] = field(default_factory=dict)

    KINDS = ("bond", "angle", "dihedral", "improper")

    def counts(self, patch: int, where: str) -> dict[str, int]:
        """Term counts of one patch: ``where`` is "intra" or "inter"."""
        table = getattr(self, where)
        return {k: len(table[k].get(patch, ())) for k in self.KINDS}


class SpatialDecomposition:
    """Atoms bucketed into cutoff-sized periodic patches."""

    def __init__(
        self,
        system: MolecularSystem,
        cutoff: float = 12.0,
        dims: tuple[int, int, int] | None = None,
    ) -> None:
        self.system = system
        self.cutoff = float(cutoff)
        box = system.box
        if dims is None:
            divisor = self.cutoff * PATCH_SIZE_FACTOR
            dims_arr = np.maximum(np.floor(box / divisor).astype(np.int64), 1)
        else:
            dims_arr = np.asarray(dims, dtype=np.int64)
            if dims_arr.shape != (3,) or np.any(dims_arr < 1):
                raise ValueError(f"bad patch dims {dims}")
        # patch edge must cover the cutoff wherever the axis is subdivided,
        # or neighbor-only interaction coverage breaks
        edge = box / dims_arr
        if np.any((dims_arr > 1) & (edge < self.cutoff)):
            raise ValueError(
                f"patch edges {edge} smaller than cutoff {self.cutoff}; "
                "reduce dims or cutoff"
            )
        self.dims = dims_arr
        self.patch_edge = edge

        idx3, flat, buckets = bin_atoms(system.positions, box, dims_arr)
        self.patch_coords_of_atom = idx3
        self.patch_of_atom = flat
        self.patch_atoms: list[np.ndarray] = buckets
        self._neighbor_pairs: list[tuple[int, int]] | None = None

    # ------------------------------------------------------------------ #
    @property
    def n_patches(self) -> int:
        """Total patch count (product of grid dims)."""
        return int(np.prod(self.dims))

    def coords(self, patch: int) -> tuple[int, int, int]:
        """Grid coordinates ``(ix, iy, iz)`` of a flat patch index."""
        dy, dz = int(self.dims[1]), int(self.dims[2])
        ix, rem = divmod(int(patch), dy * dz)
        iy, iz = divmod(rem, dz)
        return ix, iy, iz

    def flat(self, ix: int, iy: int, iz: int) -> int:
        """Flat patch index of (periodic) grid coordinates."""
        d = self.dims
        return int(((ix % d[0]) * d[1] + (iy % d[1])) * d[2] + (iz % d[2]))

    def patch_size(self, patch: int) -> int:
        """Atom count of one patch."""
        return len(self.patch_atoms[patch])

    def self_patches(self) -> range:
        """Iterable of all patch indices (self-compute targets)."""
        return range(self.n_patches)

    def neighbor_pairs(self) -> list[tuple[int, int]]:
        """Every neighboring patch pair exactly once (13 per patch, PBC).

        These are the pairs that receive non-bonded pair compute objects:
        "for each pair of neighboring cubes, we assign a non-bonded force
        computation object" — 26/2 = 13 pair objects plus 1 self object per
        patch, the paper's 14x count (3430 objects for ApoA-I's 245 cubes).
        """
        if self._neighbor_pairs is None:
            pairs: set[tuple[int, int]] = set()
            for p in range(self.n_patches):
                ix, iy, iz = self.coords(p)
                for dx, dy, dz in HALF_SHELL_OFFSETS:
                    q = self.flat(ix + int(dx), iy + int(dy), iz + int(dz))
                    if q != p:
                        pairs.add((min(p, q), max(p, q)))
            self._neighbor_pairs = sorted(pairs)
        return self._neighbor_pairs

    def upstream_neighbors(self, patch: int) -> list[int]:
        """The <= 7 distinct neighbors at equal-or-greater coordinates (§3)."""
        ix, iy, iz = self.coords(patch)
        out: list[int] = []
        seen = {patch}
        for dx, dy, dz in UPSTREAM_OFFSETS:
            q = self.flat(ix + int(dx), iy + int(dy), iz + int(dz))
            if q not in seen:
                seen.add(q)
                out.append(q)
        return out

    # ------------------------------------------------------------------ #
    def _owner_coord(self, coords: np.ndarray, axis_dim: int) -> int:
        """Wrap-aware minimum of patch coordinates along one axis.

        Covalent terms span at most adjacent patches, so the coordinate set
        is either {c} or {c, (c+1) % dim}; the owner coordinate is c.
        """
        vals = np.unique(coords)
        if len(vals) == 1:
            return int(vals[0])
        if len(vals) == 2:
            a, b = int(vals[0]), int(vals[1])
            if (a + 1) % axis_dim == b:
                return a
            if (b + 1) % axis_dim == a:
                return b
        # a term spanning non-adjacent patches indicates a stretched bond
        # (bad geometry); fall back to the plain minimum so ownership stays
        # unique and total
        return int(vals[0])

    def owner_patch(self, atom_indices: np.ndarray) -> int:
        """The patch owning a bonded term over ``atom_indices`` (§3 rule)."""
        coords = self.patch_coords_of_atom[atom_indices]
        return self.flat(
            self._owner_coord(coords[:, 0], int(self.dims[0])),
            self._owner_coord(coords[:, 1], int(self.dims[1])),
            self._owner_coord(coords[:, 2], int(self.dims[2])),
        )

    def assign_bonded_terms(self) -> BondedAssignment:
        """Partition every bonded term to its owner patch, intra/inter split.

        A term is *intra* when all constituent atoms live in the owner patch
        (the common case: "Although some bonds cross the boundaries between
        cubes, most are contained completely within a single cube", §4.2.2).
        """
        topo = self.system.topology
        result = BondedAssignment()
        term_tables = {
            "bond": topo.bond_arrays()[0],
            "angle": topo.angle_arrays()[0],
            "dihedral": topo.dihedral_arrays()[0],
            "improper": topo.improper_arrays()[0],
        }
        for kind, idx in term_tables.items():
            intra: dict[int, list[int]] = {}
            inter: dict[int, list[int]] = {}
            for t in range(len(idx)):
                atoms = idx[t]
                owner = self.owner_patch(atoms)
                same = np.all(self.patch_of_atom[atoms] == self.patch_of_atom[atoms[0]])
                bucket = intra if same else inter
                bucket.setdefault(owner, []).append(t)
            result.intra[kind] = {
                p: np.array(v, dtype=np.int64) for p, v in intra.items()
            }
            result.inter[kind] = {
                p: np.array(v, dtype=np.int64) for p, v in inter.items()
            }
        return result

    def __repr__(self) -> str:  # pragma: no cover
        d = self.dims
        return (
            f"SpatialDecomposition({d[0]}x{d[1]}x{d[2]} = {self.n_patches} patches, "
            f"cutoff={self.cutoff}, edges={np.round(self.patch_edge, 2).tolist()})"
        )
