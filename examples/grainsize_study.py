#!/usr/bin/env python
"""Grainsize control (paper §4.2.1, Figures 1-2).

Builds the bR-like system, generates compute objects with and without pair
splitting, and prints the grainsize histograms — the bimodal distribution
with a long tail before, the collapsed distribution after.  Also shows the
"Amdahl corollary" the paper states: maximum speedup is bounded by
T_sequential / T_largest_object.

Run:  python examples/grainsize_study.py
"""

from repro.analysis.grainsize import format_histogram, histogram_from_descriptors
from repro.builder.benchmarks import br_like
from repro.core.computes import build_nonbonded_computes
from repro.costmodel.grainsize import GrainsizeConfig
from repro.core.decomposition import SpatialDecomposition
from repro.costmodel.model import DEFAULT_COST_MODEL


def main() -> None:
    system = br_like()
    decomposition = SpatialDecomposition(system, cutoff=12.0)
    print(f"{system.name}: {system.n_atoms} atoms, "
          f"{decomposition.n_patches} patches\n")

    before = build_nonbonded_computes(
        decomposition,
        DEFAULT_COST_MODEL,
        GrainsizeConfig(split_self=True, split_pairs=False),
    )
    after = build_nonbonded_computes(
        decomposition,
        DEFAULT_COST_MODEL,
        GrainsizeConfig(split_self=True, split_pairs=True, target_load_s=0.005),
    )

    h_before = histogram_from_descriptors(before)
    h_after = histogram_from_descriptors(after)

    print(format_histogram(h_before, title="-- before pair splitting (Figure 1) --"))
    print()
    print(format_histogram(h_after, title="-- after pair splitting (Figure 2) --"))

    seq = sum(d.load for d in before)
    print("\nAmdahl corollary (paper §4.2.1): speedup <= T_seq / T_largest:")
    print(f"  before: {seq:.2f} / {h_before.max_grainsize_ms / 1e3:.4f} "
          f"= {seq / (h_before.max_grainsize_ms / 1e3):.0f}")
    print(f"  after:  {seq:.2f} / {h_after.max_grainsize_ms / 1e3:.4f} "
          f"= {seq / (h_after.max_grainsize_ms / 1e3):.0f}")


if __name__ == "__main__":
    main()
