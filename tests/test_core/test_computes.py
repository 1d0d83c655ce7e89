"""Compute descriptors: counts, loads, grainsize splitting, bonded split."""

import numpy as np
import pytest

from repro.core.computes import build_bonded_computes, build_nonbonded_computes
from repro.core.decomposition import SpatialDecomposition
from repro.costmodel.grainsize import GrainsizeConfig
from repro.costmodel.model import DEFAULT_COST_MODEL


@pytest.fixture(scope="module")
def decomp(request):
    assembly = request.getfixturevalue("assembly")
    return SpatialDecomposition(assembly, cutoff=12.0)


class TestGrainsizeConfig:
    def test_no_split_below_target(self):
        g = GrainsizeConfig(target_load_s=0.01)
        assert g.parts_for(0.005, True) == 1

    def test_split_count(self):
        g = GrainsizeConfig(target_load_s=0.01)
        assert g.parts_for(0.035, True) == 4

    def test_disabled(self):
        g = GrainsizeConfig(target_load_s=0.01)
        assert g.parts_for(1.0, False) == 1

    def test_max_parts_cap(self):
        g = GrainsizeConfig(target_load_s=0.001, max_parts=8)
        assert g.parts_for(1.0, True) == 8


class TestNonbondedComputes:
    def test_object_counts_without_splitting(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        g = GrainsizeConfig(split_self=False, split_pairs=False)
        descs = build_nonbonded_computes(d, DEFAULT_COST_MODEL, g)
        # 8 self + 28 pair objects on the 2x2x2 periodic grid
        assert len(descs) == d.n_patches + len(d.neighbor_pairs())

    def test_splitting_preserves_total_pairs(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        no_split = build_nonbonded_computes(
            d, DEFAULT_COST_MODEL, GrainsizeConfig(split_self=False, split_pairs=False)
        )
        split = build_nonbonded_computes(
            d, DEFAULT_COST_MODEL, GrainsizeConfig(target_load_s=0.002)
        )
        assert sum(x.n_pairs for x in split) == sum(x.n_pairs for x in no_split)
        assert len(split) > len(no_split)

    def test_split_respects_target(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        target = 0.002
        descs = build_nonbonded_computes(
            d, DEFAULT_COST_MODEL, GrainsizeConfig(target_load_s=target, max_parts=256)
        )
        # striped splitting makes parts nearly equal: allow 2x slop for
        # rounding on tiny patches
        assert max(x.load for x in descs) < 2.5 * target

    def test_all_migratable(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        descs = build_nonbonded_computes(d, DEFAULT_COST_MODEL)
        assert all(x.migratable for x in descs)

    def test_indices_contiguous(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        descs = build_nonbonded_computes(d, DEFAULT_COST_MODEL)
        assert [x.index for x in descs] == list(range(len(descs)))

    def test_loads_positive_for_nonempty(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        descs = build_nonbonded_computes(d, DEFAULT_COST_MODEL)
        for x in descs:
            assert x.load >= 0.0
            if x.n_pairs > 0:
                assert x.load > 0.0

    def test_label(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        descs = build_nonbonded_computes(d, DEFAULT_COST_MODEL)
        assert "nb_" in descs[0].label()


class TestBondedComputes:
    def test_terms_partitioned_exactly(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        descs = build_bonded_computes(d, a, DEFAULT_COST_MODEL)
        topo = assembly.topology
        for kind, total in (
            ("bond", topo.n_bonds),
            ("angle", topo.n_angles),
            ("dihedral", topo.n_dihedrals),
            ("improper", topo.n_impropers),
        ):
            got = sorted(
                int(t)
                for x in descs
                for t in x.term_indices.get(kind, np.zeros(0, dtype=np.int64))
            )
            assert got == list(range(total)), kind

    def test_intra_migratable_inter_pinned(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        descs = build_bonded_computes(d, a, DEFAULT_COST_MODEL)
        kinds = {x.kind for x in descs}
        assert kinds == {"bonded_intra", "bonded_inter"}
        for x in descs:
            assert x.migratable == (x.kind == "bonded_intra")

    def test_merged_mode_single_object_per_patch(self, assembly):
        """split_intra_inter=False: the pre-§4.2.2 design."""
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        descs = build_bonded_computes(d, a, DEFAULT_COST_MODEL, split_intra_inter=False)
        assert all(x.kind == "bonded_inter" for x in descs)
        assert all(not x.migratable for x in descs)
        patches = [x.patches[0] for x in descs]
        assert len(set(patches)) == len(patches)  # one per patch

    def test_index_offset(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        descs = build_bonded_computes(d, a, DEFAULT_COST_MODEL, index_offset=100)
        assert descs[0].index == 100

    def test_grainsize_splits_dense_intra(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        a = d.assign_bonded_terms()
        tight = build_bonded_computes(
            d, a, DEFAULT_COST_MODEL, grainsize=GrainsizeConfig(target_load_s=1e-4)
        )
        loose = build_bonded_computes(d, a, DEFAULT_COST_MODEL)
        assert len(tight) > len(loose)
