"""Molecular topology: bonded terms and exclusion generation.

A :class:`Topology` stores the covalent structure of a molecular system as
index arrays into the atom list, with one parameter object per term:

* bonds — ``(i, j)`` with a :class:`~repro.md.forcefield.BondType`
* angles — ``(i, j, k)`` centred on ``j``
* dihedrals — ``(i, j, k, l)`` around the ``j-k`` axis
* impropers — ``(i, j, k, l)`` with ``i`` the central atom

Following CHARMM/NAMD semantics (paper §3), non-bonded interactions between
atoms connected by one or two bonds (1-2 and 1-3 pairs) are *excluded*, and
pairs connected by three bonds (1-4 pairs) are *modified* (computed with
scaled parameters).  :meth:`Topology.build_exclusions` derives both sets from
the bond graph by breadth-first expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.forcefield import AngleType, BondType, DihedralType, ImproperType

__all__ = ["Topology", "Exclusions"]


@dataclass(frozen=True)
class Exclusions:
    """Exclusion data in kernel-ready form for a system of ``n_atoms`` atoms.

    Attributes
    ----------
    n_atoms:
        Number of atoms the pair keys were computed against.
    excluded_keys:
        Sorted ``int64`` array of canonical pair keys ``min*n + max`` for
        every fully excluded (1-2 and 1-3) pair.
    pairs14:
        ``(m, 2)`` int array of modified 1-4 pairs (canonical order, each
        pair listed once).  Pairs that are *also* 1-2/1-3 via a shorter path
        (rings) are dropped from this list.
    """

    n_atoms: int
    excluded_keys: np.ndarray
    pairs14: np.ndarray

    def pair_key(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Canonical scalar key for atom pairs (vectorized)."""
        lo = np.minimum(i, j).astype(np.int64)
        hi = np.maximum(i, j).astype(np.int64)
        return lo * np.int64(self.n_atoms) + hi

    def is_excluded(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the (i, j) pair is fully excluded."""
        keys = self.pair_key(np.asarray(i), np.asarray(j))
        pos = np.searchsorted(self.excluded_keys, keys)
        pos = np.minimum(pos, max(len(self.excluded_keys) - 1, 0))
        if len(self.excluded_keys) == 0:
            return np.zeros(keys.shape, dtype=bool)
        return self.excluded_keys[pos] == keys

    def excluded_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(i, j)`` index arrays of every fully excluded pair.

        Decoding the sorted pair keys costs two integer-divide passes over
        the whole exclusion table; the Ewald exclusion correction needs the
        decoded form every evaluation, so it is computed once per
        ``Exclusions`` instance and cached (read-only).  Topology edits
        rebuild exclusions via ``MolecularSystem.invalidate_exclusions``,
        which replaces this object — and with it the cache.
        """
        cached = getattr(self, "_pair_table", None)
        if cached is None:
            n = np.int64(self.n_atoms)
            i_c = (self.excluded_keys // n).astype(np.int64)
            j_c = (self.excluded_keys % n).astype(np.int64)
            for arr in (i_c, j_c):
                arr.setflags(write=False)
            cached = (i_c, j_c)
            object.__setattr__(self, "_pair_table", cached)
        return cached

    def atom_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Every excluded and 1-4 pair as a per-atom table ``(ptr, partners)``.

        ``partners[ptr[i]:ptr[i + 1]]`` are, in ascending order, the atoms
        the pair lists must not pair with ``i`` (both directions of each
        pair, so a lookup never orders its arguments) — the form in which
        exclusions cross the kernel contract (``backend.block_pairs``).
        Both arrays int64; built once per instance and cached (read-only),
        like :meth:`excluded_pairs`.
        """
        cached = getattr(self, "_atom_table", None)
        if cached is None:
            i_c, j_c = self.excluded_pairs()
            lo = np.concatenate([i_c, self.pairs14[:, 0]]).astype(np.int64)
            hi = np.concatenate([j_c, self.pairs14[:, 1]]).astype(np.int64)
            owner = np.concatenate([lo, hi])
            partners = np.concatenate([hi, lo])
            order = np.lexsort((partners, owner))
            ptr = np.zeros(self.n_atoms + 1, dtype=np.int64)
            np.cumsum(np.bincount(owner, minlength=self.n_atoms), out=ptr[1:])
            partners = np.ascontiguousarray(partners[order])
            for arr in (ptr, partners):
                arr.setflags(write=False)
            cached = (ptr, partners)
            object.__setattr__(self, "_atom_table", cached)
        return cached

    def is_pair14(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Boolean mask: True where the (i, j) pair is a modified 1-4 pair.

        The sorted key table is built once per instance and cached
        (read-only), like :meth:`excluded_pairs`.
        """
        keys14 = getattr(self, "_keys14", None)
        if keys14 is None:
            keys14 = np.sort(self.pair_key(self.pairs14[:, 0], self.pairs14[:, 1]))
            keys14.setflags(write=False)
            object.__setattr__(self, "_keys14", keys14)
        if len(keys14) == 0:
            return np.zeros(np.shape(i), dtype=bool)
        keys = self.pair_key(np.asarray(i), np.asarray(j))
        pos = np.minimum(np.searchsorted(keys14, keys), len(keys14) - 1)
        return keys14[pos] == keys

    @property
    def n_excluded(self) -> int:
        """Number of fully excluded (1-2/1-3) pairs."""
        return int(len(self.excluded_keys))


class Topology:
    """Covalent structure of a molecular system.

    Term indices refer to positions in the owning system's atom arrays.  The
    class supports in-place construction (``add_*``) and whole-topology
    composition via :meth:`merge`, which the synthetic builders use to tile
    molecules into assemblies.
    """

    def __init__(self) -> None:
        self._bonds: list[tuple[int, int]] = []
        self._bond_types: list[BondType] = []
        self._angles: list[tuple[int, int, int]] = []
        self._angle_types: list[AngleType] = []
        self._dihedrals: list[tuple[int, int, int, int]] = []
        self._dihedral_types: list[DihedralType] = []
        self._impropers: list[tuple[int, int, int, int]] = []
        self._improper_types: list[ImproperType] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_bond(self, i: int, j: int, btype: BondType) -> None:
        """Register a 2-body bond term."""
        if i == j:
            raise ValueError(f"self-bond on atom {i}")
        self._bonds.append((int(i), int(j)))
        self._bond_types.append(btype)

    def add_angle(self, i: int, j: int, k: int, atype: AngleType) -> None:
        """Register a 3-body angle term centred on ``j``."""
        if len({i, j, k}) != 3:
            raise ValueError(f"degenerate angle ({i}, {j}, {k})")
        self._angles.append((int(i), int(j), int(k)))
        self._angle_types.append(atype)

    def add_dihedral(self, i: int, j: int, k: int, l: int, dtype: DihedralType) -> None:
        """Register a 4-body torsion around the ``j-k`` axis."""
        if len({i, j, k, l}) != 4:
            raise ValueError(f"degenerate dihedral ({i}, {j}, {k}, {l})")
        self._dihedrals.append((int(i), int(j), int(k), int(l)))
        self._dihedral_types.append(dtype)

    def add_improper(self, i: int, j: int, k: int, l: int, itype: ImproperType) -> None:
        """Register a 4-body improper with ``i`` central."""
        if len({i, j, k, l}) != 4:
            raise ValueError(f"degenerate improper ({i}, {j}, {k}, {l})")
        self._impropers.append((int(i), int(j), int(k), int(l)))
        self._improper_types.append(itype)

    def merge(self, other: "Topology", atom_offset: int) -> None:
        """Append ``other``'s terms with atom indices shifted by ``atom_offset``."""
        off = int(atom_offset)
        self._bonds.extend((i + off, j + off) for i, j in other._bonds)
        self._bond_types.extend(other._bond_types)
        self._angles.extend((i + off, j + off, k + off) for i, j, k in other._angles)
        self._angle_types.extend(other._angle_types)
        self._dihedrals.extend(
            (i + off, j + off, k + off, l + off) for i, j, k, l in other._dihedrals
        )
        self._dihedral_types.extend(other._dihedral_types)
        self._impropers.extend(
            (i + off, j + off, k + off, l + off) for i, j, k, l in other._impropers
        )
        self._improper_types.extend(other._improper_types)

    # ------------------------------------------------------------------ #
    # array views
    # ------------------------------------------------------------------ #
    @property
    def n_bonds(self) -> int:
        """Number of bond terms."""
        return len(self._bonds)

    @property
    def n_angles(self) -> int:
        """Number of angle terms."""
        return len(self._angles)

    @property
    def n_dihedrals(self) -> int:
        """Number of dihedral terms."""
        return len(self._dihedrals)

    @property
    def n_impropers(self) -> int:
        """Number of improper terms."""
        return len(self._impropers)

    @property
    def n_terms(self) -> int:
        """Total bonded term count across all four term kinds."""
        return self.n_bonds + self.n_angles + self.n_dihedrals + self.n_impropers

    def bond_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indices (n,2), k (n,), r0 (n,))`` for all bonds."""
        idx = np.array(self._bonds, dtype=np.int64).reshape(-1, 2)
        k = np.array([t.k for t in self._bond_types], dtype=np.float64)
        r0 = np.array([t.r0 for t in self._bond_types], dtype=np.float64)
        return idx, k, r0

    def angle_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indices (n,3), k (n,), theta0 (n,))`` for all angles."""
        idx = np.array(self._angles, dtype=np.int64).reshape(-1, 3)
        k = np.array([t.k for t in self._angle_types], dtype=np.float64)
        theta0 = np.array([t.theta0 for t in self._angle_types], dtype=np.float64)
        return idx, k, theta0

    def dihedral_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(indices (n,4), k, n_period, delta)`` for all dihedrals."""
        idx = np.array(self._dihedrals, dtype=np.int64).reshape(-1, 4)
        k = np.array([t.k for t in self._dihedral_types], dtype=np.float64)
        n = np.array([t.n for t in self._dihedral_types], dtype=np.float64)
        delta = np.array([t.delta for t in self._dihedral_types], dtype=np.float64)
        return idx, k, n, delta

    def improper_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indices (n,4), k, psi0)`` for all impropers."""
        idx = np.array(self._impropers, dtype=np.int64).reshape(-1, 4)
        k = np.array([t.k for t in self._improper_types], dtype=np.float64)
        psi0 = np.array([t.psi0 for t in self._improper_types], dtype=np.float64)
        return idx, k, psi0

    # ------------------------------------------------------------------ #
    # exclusions
    # ------------------------------------------------------------------ #
    def bonded_neighbors(self, n_atoms: int) -> list[list[int]]:
        """Adjacency list of the bond graph over ``n_atoms`` atoms."""
        adj: list[list[int]] = [[] for _ in range(n_atoms)]
        for i, j in self._bonds:
            if i >= n_atoms or j >= n_atoms or i < 0 or j < 0:
                raise IndexError(
                    f"bond ({i},{j}) references atom outside 0..{n_atoms - 1}"
                )
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def build_exclusions(self, n_atoms: int) -> Exclusions:
        """Derive 1-2/1-3 exclusions and 1-4 modified pairs from bonds.

        Exclusion classes are assigned by the *shortest* bond path between
        two atoms, so in rings a pair reachable in both 3 and 2 bonds is
        excluded rather than modified (matching CHARMM semantics).  The
        pairs within ``d`` bonds are the pattern of ``(I + A)^d`` for the
        bond graph's adjacency ``A``: within two are excluded, exactly
        three (within three, not within two) are 1-4.
        """
        from scipy import sparse

        bonds = np.array(self._bonds, dtype=np.int64).reshape(-1, 2)
        outside = (bonds < 0) | (bonds >= n_atoms)
        if outside.any():
            i, j = bonds[np.flatnonzero(outside.any(axis=1))[0]]
            raise IndexError(
                f"bond ({i},{j}) references atom outside 0..{n_atoms - 1}"
            )
        loops = np.arange(n_atoms)
        rows = np.concatenate([bonds[:, 0], bonds[:, 1], loops])
        cols = np.concatenate([bonds[:, 1], bonds[:, 0], loops])
        one = sparse.csr_matrix(
            (np.ones(len(rows), dtype=bool), (rows, cols)),
            shape=(n_atoms, n_atoms),
        )
        two = one @ one
        excluded_keys = _upper_keys(two, n_atoms)
        keys14 = np.setdiff1d(
            _upper_keys(two @ one, n_atoms), excluded_keys, assume_unique=True
        )
        p14 = np.stack(np.divmod(keys14, max(n_atoms, 1)), axis=1)
        return Exclusions(n_atoms=n_atoms, excluded_keys=excluded_keys, pairs14=p14)

    # ------------------------------------------------------------------ #
    def validate(self, n_atoms: int) -> None:
        """Raise if any term references an out-of-range atom index."""
        for name, terms in (
            ("bond", self._bonds),
            ("angle", self._angles),
            ("dihedral", self._dihedrals),
            ("improper", self._impropers),
        ):
            for term in terms:
                for idx in term:
                    if idx < 0 or idx >= n_atoms:
                        raise IndexError(
                            f"{name} {term} references atom {idx} outside "
                            f"0..{n_atoms - 1}"
                        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(bonds={self.n_bonds}, angles={self.n_angles}, "
            f"dihedrals={self.n_dihedrals}, impropers={self.n_impropers})"
        )


def _upper_keys(reach, n_atoms: int) -> np.ndarray:
    """Sorted keys ``i * n + j`` of the ``i < j`` entries of ``reach``'s
    pattern."""
    rows, cols = reach.nonzero()
    upper = rows < cols
    return np.sort(rows[upper].astype(np.int64) * n_atoms + cols[upper])
