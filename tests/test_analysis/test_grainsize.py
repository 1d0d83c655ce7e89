"""Grainsize histograms (Figures 1-2)."""

import numpy as np
import pytest

from repro.analysis.grainsize import (
    format_histogram,
    grainsize_histogram,
    histogram_from_descriptors,
)
from repro.core.computes import build_nonbonded_computes
from repro.costmodel.grainsize import GrainsizeConfig
from repro.core.decomposition import SpatialDecomposition
from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.runtime.trace import TraceLog


class TestFromTrace:
    def test_counts_per_step(self):
        t = TraceLog(1, full=True)
        for step in range(4):
            for _ in range(3):
                t.record_execution(0, 0, "x", "nonbonded", 0.0, 0.004)
        h = grainsize_histogram(t, n_steps=4)
        assert h.total_tasks == pytest.approx(3.0)

    def test_empty_category(self):
        t = TraceLog(1, full=True)
        h = grainsize_histogram(t, n_steps=1)
        assert h.total_tasks == 0.0


class TestFromDescriptors:
    def test_splitting_removes_tail(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        before = build_nonbonded_computes(
            d, DEFAULT_COST_MODEL,
            GrainsizeConfig(split_self=True, split_pairs=False),
        )
        after = build_nonbonded_computes(
            d, DEFAULT_COST_MODEL,
            GrainsizeConfig(split_self=True, split_pairs=True),
        )
        h_before = histogram_from_descriptors(before)
        h_after = histogram_from_descriptors(after)
        assert h_after.max_grainsize_ms < h_before.max_grainsize_ms
        assert h_after.total_tasks > h_before.total_tasks

    def test_after_splitting_under_target(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        descs = build_nonbonded_computes(
            d, DEFAULT_COST_MODEL, GrainsizeConfig(target_load_s=0.005, max_parts=256)
        )
        h = histogram_from_descriptors(descs)
        assert h.max_grainsize_ms <= 5.0 * 2.5  # target with striping slop

    def test_cpu_factor_scales(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        descs = build_nonbonded_computes(d, DEFAULT_COST_MODEL)
        h1 = histogram_from_descriptors(descs, cpu_factor=1.0)
        h2 = histogram_from_descriptors(descs, cpu_factor=0.5)
        assert h2.max_grainsize_ms == pytest.approx(h1.max_grainsize_ms / 2)


class TestFormatting:
    def test_format_contains_bars(self, assembly):
        d = SpatialDecomposition(assembly, cutoff=12.0)
        descs = build_nonbonded_computes(d, DEFAULT_COST_MODEL)
        text = format_histogram(histogram_from_descriptors(descs), title="Fig")
        assert "Fig" in text
        assert "ms |" in text

    def test_bimodality_detector(self):
        from repro.analysis.grainsize import GrainsizeHistogram

        bimodal = GrainsizeHistogram(
            np.arange(0, 12.0, 2.0), np.array([5, 1, 0, 0, 3.0]), 9.0, 9.0
        )
        unimodal = GrainsizeHistogram(
            np.arange(0, 8.0, 2.0), np.array([5, 3, 1.0]), 5.0, 9.0
        )
        assert bimodal.bimodality_gap()
        assert not unimodal.bimodality_gap()
