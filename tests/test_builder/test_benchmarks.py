"""Benchmark assemblies: exact paper atom counts and structure.

The full ApoA-I and BC1 builders run in the benchmark harness; here we
verify the specs, the small fixtures, and bR (which is fast to build).
"""

import numpy as np
import pytest

from repro.builder.benchmarks import (
    BENCHMARK_SPECS,
    _ion_count_for_remainder,
    _sidechain_pattern,
    br_like,
    mini_assembly,
    skewed_water_box,
    small_water_box,
    tiny_peptide,
)
from repro.core.decomposition import SpatialDecomposition


class TestSpecs:
    def test_paper_atom_counts(self):
        assert BENCHMARK_SPECS["apoa1"].n_atoms == 92_224
        assert BENCHMARK_SPECS["bc1"].n_atoms == 206_617
        assert BENCHMARK_SPECS["br"].n_atoms == 3_762

    def test_paper_patch_grids(self):
        assert BENCHMARK_SPECS["apoa1"].patch_grid == (7, 7, 5)
        assert BENCHMARK_SPECS["bc1"].patch_grid == (9, 7, 6)
        assert BENCHMARK_SPECS["br"].patch_grid == (4, 3, 3)


class TestHelpers:
    @pytest.mark.parametrize("n", [1, 4, 5, 7, 220, 341])
    def test_sidechain_pattern_sums_exactly(self, n):
        pat = _sidechain_pattern(n, mean=5)
        assert pat.sum() == 5 * n
        assert pat.min() >= 2 and pat.max() <= 8

    def test_ion_count_divisibility(self):
        for remaining in range(60, 90):
            n_ions, n_waters = _ion_count_for_remainder(remaining, 4)
            assert n_ions + 3 * n_waters == remaining
            assert n_ions >= 4

    def test_ion_count_rejects_negative(self):
        with pytest.raises(ValueError):
            _ion_count_for_remainder(2, 4)


class TestSmallSystems:
    def test_water_box_count_and_density(self):
        s = small_water_box(64, seed=3)
        assert s.n_atoms == 192
        density = (64) / np.prod(s.box)
        assert density == pytest.approx(0.0334, rel=1e-6)

    @pytest.mark.parametrize("builder", [small_water_box, skewed_water_box])
    @pytest.mark.parametrize("n", [0, -1])
    def test_water_boxes_refuse_a_count_below_one(self, builder, n):
        # the edge is set by the count: zero used to be blamed on the box,
        # a negative count reached a complex cube root
        with pytest.raises(ValueError, match="n_molecules"):
            builder(n, relax=False)

    def test_tiny_peptide(self):
        s = tiny_peptide(5)
        assert s.topology.n_bonds > 0
        assert all(label == "PROT" for label in s.segment_labels)

    def test_mini_assembly_structure(self, assembly):
        assert assembly.n_atoms == 3_100
        labels = set(assembly.segment_labels)
        assert {"WAT", "PROT", "LIP", "ION"} <= labels
        # patch grid is 2x2x2 at the 12 A cutoff
        d = SpatialDecomposition(assembly, cutoff=12.0)
        assert tuple(d.dims) == (2, 2, 2)


class TestBrLike:
    def test_exact_atom_count_and_grid(self):
        s = br_like()
        assert s.n_atoms == 3_762
        d = SpatialDecomposition(s, cutoff=12.0)
        assert tuple(d.dims) == BENCHMARK_SPECS["br"].patch_grid

    def test_vacuum_protein_is_inhomogeneous(self):
        """bR's point: most patches are nearly empty (load imbalance)."""
        s = br_like()
        d = SpatialDecomposition(s, cutoff=12.0)
        sizes = np.array([len(a) for a in d.patch_atoms])
        assert (sizes == 0).sum() > 5
        assert sizes.max() > 5 * max(sizes.mean(), 1)
