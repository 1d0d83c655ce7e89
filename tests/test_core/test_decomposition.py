"""Spatial decomposition: patch grids, neighbor pairs, bonded ownership."""

import numpy as np
import pytest

from repro.core.computes import build_nonbonded_computes
from repro.costmodel.grainsize import GrainsizeConfig
from repro.core.decomposition import PATCH_SIZE_FACTOR, SpatialDecomposition
from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.util.pbc import minimum_image


class TestPatchGrid:
    def test_apoa1_box_gives_245_patches(self, water64):
        """The paper's ApoA-I grid: 108.86x108.86x77.76 at 12 A -> 7x7x5."""
        s = water64.copy()
        s.box = np.array([108.86, 108.86, 77.76])
        d = SpatialDecomposition(s, cutoff=12.0)
        assert tuple(d.dims) == (7, 7, 5)
        assert d.n_patches == 245

    def test_patch_edges_at_least_cutoff(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        assert np.all(d.patch_edge >= d.cutoff - 1e-9)

    def test_every_atom_in_exactly_one_patch(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        counted = np.concatenate(d.patch_atoms)
        assert len(counted) == assembly.n_atoms
        assert len(np.unique(counted)) == assembly.n_atoms

    def test_atoms_inside_their_patch_bounds(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        for p in range(d.n_patches):
            atoms = d.patch_atoms[p]
            if len(atoms) == 0:
                continue
            coords = np.array(d.coords(p))
            lo = coords * d.patch_edge
            hi = (coords + 1) * d.patch_edge
            pos = assembly.positions[atoms]
            assert np.all(pos >= lo - 1e-9) and np.all(pos <= hi + 1e-9)

    def test_explicit_dims_override(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0, dims=(1, 1, 2))
        assert d.n_patches == 2

    def test_rejects_dims_smaller_than_cutoff(self, assembly):
        with pytest.raises(ValueError):
            SpatialDecomposition(assembly, cutoff=12.0, dims=(5, 5, 5))

    def test_flat_coords_roundtrip(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        for p in range(d.n_patches):
            assert d.flat(*d.coords(p)) == p


class TestNeighbors:
    def test_pair_count_matches_paper_formula(self, water64):
        """With periodic wrapping and dims >= 3 per axis: 13 pairs/patch."""
        s = water64.copy()
        s.box = np.array([108.86, 108.86, 77.76])
        d = SpatialDecomposition(s, cutoff=12.0)
        # paper: 14 objects per cube = 1 self + 26/2 pair objects, i.e.
        # 3430 total for ApoA-I; pair objects alone = 245*13 = 3185
        assert len(d.neighbor_pairs()) == 245 * 13
        assert len(d.neighbor_pairs()) + d.n_patches == 3430

    def test_pairs_unique_and_ordered(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        pairs = d.neighbor_pairs()
        assert len(set(pairs)) == len(pairs)
        assert all(a < b for a, b in pairs)

    def test_small_grid_dedupes_wrapped_neighbors(self, assembly):
        """2x2x2 grid: wrapping aliases many offsets."""
        d = SpatialDecomposition(assembly, cutoff=12.0)
        assert tuple(d.dims) == (2, 2, 2)
        pairs = d.neighbor_pairs()
        # all C(8,2)=28 pairs are neighbors on a 2-cube with PBC
        assert len(pairs) == 28

    def test_upstream_neighbors_at_most_seven(self, water64):
        s = water64.copy()
        s.box = np.array([108.86, 108.86, 77.76])
        d = SpatialDecomposition(s, cutoff=12.0)
        for p in range(0, d.n_patches, 17):
            ups = d.upstream_neighbors(p)
            assert 1 <= len(ups) <= 7
            assert p not in ups


class TestBondedOwnership:
    def test_every_term_assigned_exactly_once(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        topo = assembly.topology
        for kind, total in (
            ("bond", topo.n_bonds),
            ("angle", topo.n_angles),
            ("dihedral", topo.n_dihedrals),
            ("improper", topo.n_impropers),
        ):
            assigned = sum(len(v) for v in a.intra[kind].values()) + sum(
                len(v) for v in a.inter[kind].values()
            )
            assert assigned == total, kind
            seen = np.concatenate(
                [v for v in a.intra[kind].values()]
                + [v for v in a.inter[kind].values()]
                + [np.zeros(0, dtype=np.int64)]
            )
            assert len(np.unique(seen)) == total

    def test_intra_terms_have_all_atoms_in_owner(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        idx, _, _ = assembly.topology.bond_arrays()
        for patch, terms in a.intra["bond"].items():
            atoms = idx[terms]
            assert np.all(d.patch_of_atom[atoms] == patch)

    def test_most_terms_are_intra(self, assembly):
        """Paper §4.2.2: 'most are contained completely within a single cube'."""
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        intra = sum(len(v) for v in a.intra["bond"].values())
        inter = sum(len(v) for v in a.inter["bond"].values())
        assert intra > inter

    def test_owner_patch_wrap_aware(self, water64):
        """A term across the periodic boundary is owned by the high-coord
        patch (the wrap-aware minimum)."""
        s = water64.copy()
        s.box = np.array([108.86, 108.86, 77.76])
        d = SpatialDecomposition(s, cutoff=12.0)
        # fabricate patch coords: atom A in x-patch 6 (last), B in x-patch 0
        pos = s.positions
        pos[0] = [108.0, 5.0, 5.0]  # patch x = 6
        pos[1] = [0.5, 5.0, 5.0]  # patch x = 0
        d2 = SpatialDecomposition(s, cutoff=12.0)
        owner = d2.owner_patch(np.array([0, 1]))
        assert d2.coords(owner)[0] == 6

    def test_counts_helper(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        c = a.counts(0, "intra")
        assert set(c) == {"bond", "angle", "dihedral", "improper"}
        assert all(v >= 0 for v in c.values())


def dense_row_counts(system, d, patch_a, patch_b):
    """In-cutoff partner counts per atom of ``patch_a``, from dense
    ``(m, n, 3)`` minimum-image deltas — an independent reference for the
    kernel's count mode.

    For a pair block (``patch_b`` given) entry ``r`` counts atoms of
    ``patch_b`` within the cutoff of atom ``r`` of ``patch_a``.  For a self
    block (``patch_b is None``) it counts only partners with a larger
    within-patch index, so the total is each pair once.
    """
    pos, box, cutoff = system.positions, system.box, d.cutoff
    a = pos[d.patch_atoms[patch_a]]
    b = a if patch_b is None else pos[d.patch_atoms[patch_b]]
    if len(a) == 0 or len(b) == 0:
        return np.zeros(len(a), dtype=np.int64)
    delta = minimum_image(b[np.newaxis, :, :] - a[:, np.newaxis, :], box)
    within = np.einsum("ijk,ijk->ij", delta, delta) < cutoff * cutoff
    if patch_b is None:
        within &= np.triu(np.ones_like(within), k=1)
    return within.sum(axis=1).astype(np.int64)


def reference_descriptors(system, d, cost_model, grainsize):
    """``(kind, patches, part, n_parts, n_pairs, n_candidates, load)`` of
    every non-bonded descriptor, from :func:`dense_row_counts`: a block's
    row counts summed decide its slices, and slice ``part`` of ``n_parts``
    owns the rows ``part::n_parts``."""
    out = []
    blocks = [("nb_self", (p,)) for p in d.self_patches()]
    blocks += [("nb_pair", pair) for pair in d.neighbor_pairs()]
    for kind, patches in blocks:
        pb = patches[1] if kind == "nb_pair" else None
        rows = dense_row_counts(system, d, patches[0], pb)
        n = len(rows)
        nb = None if pb is None else len(d.patch_atoms[pb])
        total_cand = n * (n - 1) // 2 if nb is None else n * nb
        n_parts = grainsize.parts_for(
            cost_model.nonbonded_cost(int(rows.sum()), total_cand),
            grainsize.split_self if nb is None else grainsize.split_pairs,
        )
        for part in range(n_parts):
            stripe = rows[part::n_parts]
            pairs = int(stripe.sum())
            cand = len(stripe) * (n - 1) // 2 if nb is None else len(stripe) * nb
            load = cost_model.nonbonded_cost(pairs, cand)
            out.append((kind, patches, part, n_parts, pairs, cand, load))
    return out


@pytest.fixture(scope="module")
def br():
    from repro.builder import br_like

    return br_like()


#: small enough that both self and pair blocks of every system here split
SPLITTING = GrainsizeConfig(target_load_s=2e-5)


class TestDescriptorCounts:
    """Every non-bonded descriptor's counts are the kernel's count mode on
    its block (a split slice: on its row stripe); held to a dense per-row
    counter."""

    @pytest.mark.parametrize("grainsize", [GrainsizeConfig(), SPLITTING],
                             ids=["default", "splitting"])
    @pytest.mark.parametrize("name", ["water64", "assembly", "br"])
    def test_descriptors_match_dense_row_counts(self, request, name, grainsize):
        system = request.getfixturevalue(name)
        d = (
            SpatialDecomposition(system, cutoff=6.0, dims=(2, 2, 2))
            if name == "water64"
            else SpatialDecomposition(system, cutoff=12.0)
        )
        got = [
            (x.kind, x.patches, x.part, x.n_parts, x.n_pairs, x.n_candidates, x.load)
            for x in build_nonbonded_computes(d, DEFAULT_COST_MODEL, grainsize)
        ]
        assert got == reference_descriptors(system, d, DEFAULT_COST_MODEL, grainsize)
        if grainsize is SPLITTING:
            split = {kind for kind, _, _, n_parts, *_ in got if n_parts > 1}
            assert split == {"nb_self", "nb_pair"}

    def test_empty_patches_give_zero_pair_descriptors(self, water64):
        s = water64.copy()
        s.box = np.array([108.86, 108.86, 77.76])  # water cluster in a corner
        d = SpatialDecomposition(s, cutoff=12.0)
        empty = {p for p in range(d.n_patches) if len(d.patch_atoms[p]) == 0}
        assert empty, "expected empty patches in oversized box"
        descs = build_nonbonded_computes(d, DEFAULT_COST_MODEL, SPLITTING)
        touching = [x for x in descs if empty & set(x.patches)]
        assert touching
        assert all(x.n_pairs == 0 and x.n_candidates == 0 for x in touching)
        assert all(x.n_parts == 1 for x in touching)
