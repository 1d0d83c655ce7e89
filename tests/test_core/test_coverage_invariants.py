"""Cross-cutting invariants of the decomposition (property-based).

The central correctness property of the paper's scheme: *every* atom pair
within the cutoff is covered by exactly one compute object (a self compute
of the shared patch or the pair compute of two neighboring patches), and by
the grainsize rule exactly one part of it.  If this held only approximately
the forces would be silently wrong.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builder import small_water_box
from repro.core.decomposition import SpatialDecomposition
from repro.md.forcefield import default_forcefield
from repro.md.system import MolecularSystem
from repro.md.topology import Topology
from repro.util.pbc import minimum_image


def random_system(n_atoms: int, box_side: float, seed: int) -> MolecularSystem:
    rng = np.random.default_rng(seed)
    ff = default_forcefield()
    return MolecularSystem(
        positions=rng.random((n_atoms, 3)) * box_side,
        velocities=np.zeros((n_atoms, 3)),
        charges=np.zeros(n_atoms),
        type_indices=np.full(n_atoms, ff.atom_type_index("OT")),
        topology=Topology(),
        forcefield=ff,
        box=np.array([box_side] * 3),
    )


def in_cutoff_pairs(system, cutoff):
    pos = system.positions
    out = set()
    for i in range(system.n_atoms):
        d = minimum_image(pos[i + 1 :] - pos[i], system.box)
        r2 = np.einsum("ij,ij->i", d, d)
        for j in np.flatnonzero(r2 < cutoff * cutoff):
            out.add((i, i + 1 + int(j)))
    return out


def covered_pairs(decomposition):
    """Pairs covered by self + neighbor-pair compute objects (unordered)."""
    covered = set()
    d = decomposition
    for p in d.self_patches():
        atoms = d.patch_atoms[p]
        for x in range(len(atoms)):
            for y in range(x + 1, len(atoms)):
                covered.add((min(atoms[x], atoms[y]), max(atoms[x], atoms[y])))
    for pa, pb in d.neighbor_pairs():
        for a in d.patch_atoms[pa]:
            for b in d.patch_atoms[pb]:
                covered.add((min(a, b), max(a, b)))
    return covered


@given(st.integers(10, 60), st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_patch_pair_objects_cover_every_cutoff_pair(n_atoms, seed):
    cutoff = 5.0
    system = random_system(n_atoms, box_side=21.0, seed=seed)
    system.wrap()
    d = SpatialDecomposition(system, cutoff=cutoff)
    missing = in_cutoff_pairs(system, cutoff) - covered_pairs(d)
    assert not missing


def test_coverage_holds_on_structured_system(water100):
    cutoff = 6.0
    d = SpatialDecomposition(water100, cutoff=cutoff)
    missing = in_cutoff_pairs(water100, cutoff) - covered_pairs(d)
    assert not missing


@given(st.integers(2, 9), st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_grainsize_parts_partition_rows(n_parts, seed):
    """Striping rows part::n_parts is a partition: disjoint and total."""
    rng = np.random.default_rng(seed)
    atoms = rng.permutation(50)
    seen = []
    for part in range(n_parts):
        seen.extend(atoms[part::n_parts].tolist())
    assert sorted(seen) == sorted(atoms.tolist())
    assert len(seen) == len(set(seen))


def test_scheduler_is_deterministic(assembly):
    """Two identical runs produce bit-identical step completion times."""
    from repro.core.problem import DecomposedProblem
    from repro.costmodel.model import DEFAULT_COST_MODEL
    from repro.core.simulation import (
        ParallelSimulation,
        SimulationConfig,
    )

    problem = DecomposedProblem.build(assembly, DEFAULT_COST_MODEL)
    cfg = SimulationConfig(n_procs=5)
    t1 = ParallelSimulation(assembly, cfg, problem=problem).run()
    t2 = ParallelSimulation(assembly, cfg, problem=problem).run()
    assert t1.final.timings.completion_times == t2.final.timings.completion_times
    assert t1.time_per_step == t2.time_per_step
