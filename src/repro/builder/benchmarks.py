"""Benchmark system builders with exact paper atom counts.

The paper's three benchmarks (Table 1) are rebuilt synthetically but with
the *exact* atom counts and patch grids, so decomposition and load-balance
behaviour match the published configurations:

==========  ========  ===========  ====================================
benchmark   atoms     patch grid   composition
==========  ========  ===========  ====================================
ApoA-I       92,224   7 x 7 x 5    protein + lipid bilayer + water
BC1         206,617   9 x 7 x 6    4-chain protein + membrane + water
bR            3,762   4 x 3 x 3    vacuum protein (very inhomogeneous)
==========  ========  ===========  ====================================

Atom budgets close exactly because waters come in threes and ions in ones:
``_ion_count_for_remainder`` picks an ion count that makes the remainder
divisible by three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.builder.assembler import SystemAssembler
from repro.builder.ions import add_ions
from repro.builder.membrane import lipid_bilayer
from repro.builder.protein import protein_chain
from repro.builder.water import (
    WATER_DENSITY_PER_A3,
    fill_water,
    water_block,
    water_box_positions,
)
from repro.md.minimize import minimize
from repro.md.nonbonded import NonbondedOptions
from repro.md.system import MolecularSystem
from repro.util.rng import make_rng

__all__ = [
    "BenchmarkSpec",
    "BENCHMARK_SPECS",
    "small_water_box",
    "skewed_water_box",
    "tiny_peptide",
    "mini_assembly",
    "br_like",
    "apoa1_like",
    "bc1_like",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Published configuration of one paper benchmark."""

    name: str
    n_atoms: int
    patch_grid: tuple[int, int, int]
    cutoff: float
    box: tuple[float, float, float]
    description: str


BENCHMARK_SPECS: dict[str, BenchmarkSpec] = {
    "apoa1": BenchmarkSpec(
        name="apoa1",
        n_atoms=92_224,
        patch_grid=(7, 7, 5),
        cutoff=12.0,
        box=(108.86, 108.86, 77.76),
        description="Apolipoprotein A-I: protein + lipid bilayer + water",
    ),
    "bc1": BenchmarkSpec(
        name="bc1",
        n_atoms=206_617,
        patch_grid=(9, 7, 6),
        cutoff=12.0,
        box=(154.0, 123.0, 108.0),
        description="Cytochrome bc1 complex: multi-chain protein in membrane",
    ),
    "br": BenchmarkSpec(
        name="br",
        n_atoms=3_762,
        patch_grid=(4, 3, 3),
        cutoff=12.0,
        box=(70.0, 54.0, 54.0),
        description="Bacteriorhodopsin in vacuum: highly inhomogeneous",
    ),
}


def _sidechain_pattern(n_res: int, mean: int = 5) -> np.ndarray:
    """Deterministic side-chain lengths in 2..8 summing to exactly ``mean*n``."""
    cycle = (5, 3, 7, 2, 8, 4, 6)  # mean 5 over one period
    pattern = np.array([cycle[i % len(cycle)] for i in range(n_res)], dtype=np.int64)
    deficit = mean * n_res - int(pattern.sum())
    i = 0
    while deficit != 0:
        step = 1 if deficit > 0 else -1
        if 2 <= pattern[i] + step <= 8:
            pattern[i] += step
            deficit -= step
        i = (i + 1) % n_res
    return pattern


def _ion_count_for_remainder(remaining: int, min_ions: int) -> tuple[int, int]:
    """Split ``remaining`` atoms into ions + 3-atom waters, exactly.

    Returns ``(n_ions, n_waters)`` with ``n_ions >= min_ions`` chosen so the
    water remainder is divisible by three.
    """
    if remaining < min_ions:
        raise ValueError(
            f"cannot allocate {remaining} atoms with at least {min_ions} ions"
        )
    n_ions = min_ions + (remaining - min_ions) % 3
    return n_ions, (remaining - n_ions) // 3


# --------------------------------------------------------------------- #
# small test fixtures
# --------------------------------------------------------------------- #
def _check_box_count(n_molecules: int) -> None:
    """A water box holds at least one molecule: its edge is set by the count."""
    if n_molecules < 1:
        raise ValueError(f"n_molecules must be >= 1; got {n_molecules}")


def small_water_box(
    n_molecules: int, seed: int = 0, relax: bool = True
) -> MolecularSystem:
    """A cubic water box at liquid density, energy-minimized by default."""
    _check_box_count(n_molecules)
    edge = (n_molecules / WATER_DENSITY_PER_A3) ** (1.0 / 3.0)
    asm = SystemAssembler(np.full(3, edge))
    fill_water(asm, n_molecules, make_rng(seed))
    system = asm.finalize(name=f"water{n_molecules}")
    if relax:
        cutoff = min(6.0, 0.49 * edge)
        minimize(system, NonbondedOptions(cutoff=cutoff))
    return system


def skewed_water_box(
    n_molecules: int, seed: int = 0, skew: float = 2.0, relax: bool = True
) -> MolecularSystem:
    """A water box with a density step along x — the LB stress fixture.

    The ``x < L/2`` half holds ``skew`` times as many waters as the other
    half (the whole box averages liquid density), so cell tasks on the
    dense side cost a multiple of those on the sparse side.  This is the
    benchmark the real engine's measurement-based rebalancing is exercised
    on: uniform boxes barely reward migration, a density step does.

    ``skew`` is bounded by the minimum lattice spacing; the default 2x
    keeps the dense half comfortably above it.
    """
    _check_box_count(n_molecules)
    if skew <= 0:
        raise ValueError("skew must be positive")
    edge = (n_molecules / WATER_DENSITY_PER_A3) ** (1.0 / 3.0)
    rng = make_rng(seed)
    n_dense = int(round(n_molecules * skew / (skew + 1.0)))
    half = np.array([edge / 2.0, edge, edge])
    dense = water_box_positions(half, n_dense, rng)
    sparse = water_box_positions(half, n_molecules - n_dense, rng)
    sparse[:, 0] += edge / 2.0
    asm = SystemAssembler(np.full(3, edge))
    asm.add_component(*water_block(np.concatenate([dense, sparse]), rng), "WAT")
    system = asm.finalize(name=f"skewed_water{n_molecules}")
    if relax:
        cutoff = min(6.0, 0.49 * edge)
        minimize(system, NonbondedOptions(cutoff=cutoff))
    return system


def tiny_peptide(n_res: int = 5, seed: int = 0, relax: bool = True) -> MolecularSystem:
    """A small vacuum peptide centred in a 60 Å box."""
    box = np.full(3, 60.0)
    center = box / 2
    rng = make_rng(seed)
    asm = SystemAssembler(box)
    pos, q, names, topo = protein_chain(
        n_res, center, rng, confine_center=center, confine_radius=10.0
    )
    asm.add_component(pos, q, names, topo, "PROT")
    system = asm.finalize(name=f"peptide{n_res}", wrap=False)
    if relax:
        minimize(system, NonbondedOptions(cutoff=10.0), max_iterations=150)
    return system


def mini_assembly(seed: int = 0) -> MolecularSystem:
    """A 3,100-atom protein + lipid + ion + water assembly (2x2x2 patches).

    The miniature version of the paper benchmarks used throughout the unit
    tests: same component structure and density contrast, 36 Å box.
    """
    box = np.full(3, 36.0)
    rng = make_rng(seed)
    asm = SystemAssembler(box)

    center = np.array([18.0, 18.0, 28.0])
    pos, q, names, topo = protein_chain(
        40,
        center,
        rng,
        sidechain_lengths=_sidechain_pattern(40),
        confine_center=center,
        confine_radius=7.0,
    )
    asm.add_component(pos, q, names, topo, "PROT")  # 440 atoms

    lipid_bilayer(asm, 15.0, (3.0, 33.0, 3.0, 33.0), 14, rng, tail_length=8)  # 350
    add_ions(asm, 6, rng, clearance=2.2)
    fill_water(asm, 768, rng, clearance=2.2)  # 2304 atoms -> 3100 total
    return asm.finalize(name="mini_assembly")


# --------------------------------------------------------------------- #
# paper benchmarks
# --------------------------------------------------------------------- #
def br_like(seed: int = 2002) -> MolecularSystem:
    """The 3,762-atom bR-like vacuum protein (patch grid 4x3x3).

    A single confined chain: most patches are empty and a few central ones
    hold hundreds of atoms — the load-imbalance stress case of the paper.
    """
    spec = BENCHMARK_SPECS["br"]
    box = np.array(spec.box)
    center = box / 2
    rng = make_rng(seed)
    asm = SystemAssembler(box)
    pos, q, names, topo = protein_chain(
        342,
        center,
        rng,
        sidechain_lengths=_sidechain_pattern(342),
        confine_center=center,
        confine_radius=13.5,
    )
    asm.add_component(pos, q, names, topo, "PROT")
    system = asm.finalize(name="br_like")
    assert system.n_atoms == spec.n_atoms
    return system


def apoa1_like(seed: int = 1912) -> MolecularSystem:
    """The 92,224-atom ApoA-I-like membrane system (patch grid 7x7x5)."""
    spec = BENCHMARK_SPECS["apoa1"]
    box = np.array(spec.box)
    rng = make_rng(seed)
    asm = SystemAssembler(box)

    center = np.array([box[0] / 2, box[1] / 2, box[2] / 2])
    pos, q, names, topo = protein_chain(
        800,
        center,
        rng,
        sidechain_lengths=_sidechain_pattern(800),
        confine_center=center,
        confine_radius=26.0,
    )
    asm.add_component(pos, q, names, topo, "PROT")  # 8,800 atoms

    lipid_bilayer(
        asm, box[2] / 2, (4.0, box[0] - 4.0, 4.0, box[1] - 4.0), 150, rng,
        tail_length=12,
    )  # 4,950 atoms
    n_ions, n_waters = _ion_count_for_remainder(
        spec.n_atoms - asm.n_atoms, min_ions=20
    )
    add_ions(asm, n_ions, rng, clearance=2.2)
    fill_water(asm, n_waters, rng, clearance=2.2)
    system = asm.finalize(name="apoa1_like")
    assert system.n_atoms == spec.n_atoms
    return system


def bc1_like(seed: int = 1997) -> MolecularSystem:
    """The 206,617-atom BC1-like multi-chain membrane system (9x7x6)."""
    spec = BENCHMARK_SPECS["bc1"]
    box = np.array(spec.box)
    rng = make_rng(seed)
    asm = SystemAssembler(box)

    # four protein chains straddling the membrane, bc1-complex style
    half = np.array([box[0] / 2, box[1] / 2, box[2] / 2])
    for dx, dy in ((-22.0, -22.0), (22.0, -22.0), (-22.0, 22.0), (22.0, 22.0)):
        chain_center = half + np.array([dx, dy, 0.0])
        pos, q, names, topo = protein_chain(
            1000,
            chain_center,
            rng,
            sidechain_lengths=_sidechain_pattern(1000),
            confine_center=chain_center,
            confine_radius=22.0,
        )
        asm.add_component(pos, q, names, topo, "PROT")  # 11,000 atoms each

    lipid_bilayer(
        asm, box[2] / 2, (4.0, box[0] - 4.0, 4.0, box[1] - 4.0), 400, rng,
        tail_length=12,
    )  # 13,200 atoms
    n_ions, n_waters = _ion_count_for_remainder(
        spec.n_atoms - asm.n_atoms, min_ions=20
    )
    add_ions(asm, n_ions, rng, clearance=2.2)
    fill_water(asm, n_waters, rng, clearance=2.2)
    system = asm.finalize(name="bc1_like")
    assert system.n_atoms == spec.n_atoms
    return system
