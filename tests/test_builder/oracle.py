"""The per-molecule water path the block builder replaced, kept as its oracle.

Each water draws its own quaternion, builds its own 3x3 rotation and
``Topology`` and is added to the assembler as its own component.
:func:`repro.builder.water.water_block` places a whole block in one array
pass; ``tests/test_builder/test_water_block.py`` holds every builder that
uses it to these functions, array for array and term for term.
"""

from __future__ import annotations

import numpy as np

from repro.builder.assembler import SystemAssembler
from repro.builder.water import (
    _MIN_SITE_SPACING,
    _OH,
    _WATER_CHARGES,
    _WATER_LOCAL,
    _WATER_NAMES,
    WATER_DENSITY_PER_A3,
    _wrap_into,
    water_box_positions,
)
from repro.md.forcefield import WATER_ANGLE, WATER_OH_BOND
from repro.md.topology import Topology
from repro.util.rng import make_rng


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (via a random unit quaternion)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def water_molecule(
    center: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[str], Topology]:
    """One randomly oriented TIP3P-like water with its oxygen at ``center``."""
    rot = _random_rotation(make_rng(rng))
    pos = _WATER_LOCAL @ rot.T + np.asarray(center, dtype=np.float64)
    topo = Topology()
    topo.add_bond(0, 1, WATER_OH_BOND)
    topo.add_bond(0, 2, WATER_OH_BOND)
    topo.add_angle(1, 0, 2, WATER_ANGLE)
    return pos, _WATER_CHARGES.copy(), list(_WATER_NAMES), topo


def fill_water(
    asm,
    n_molecules: int,
    rng: np.random.Generator,
    clearance: float = 2.0,
) -> int:
    """Add exactly ``n_molecules`` waters to ``asm``, one component each."""
    from scipy.spatial import cKDTree

    rng = make_rng(rng)
    box = asm.box
    volume = float(np.prod(box))
    solute = asm.current_positions()
    tree = cKDTree(_wrap_into(solute, box), boxsize=box) if len(solute) else None
    site_clearance = clearance + _OH + 0.1  # keep hydrogens clear too

    n_sites = n_molecules
    while True:
        spacing = (volume / n_sites) ** (1.0 / 3.0)
        if spacing < _MIN_SITE_SPACING:
            raise RuntimeError(
                f"cannot fit {n_molecules} waters in box {box.tolist()} "
                f"(lattice spacing would fall below {_MIN_SITE_SPACING} Å)"
            )
        sites = water_box_positions(box, n_sites, rng)
        if tree is not None:
            d, _ = tree.query(_wrap_into(sites, box), k=1)
            sites = sites[d > site_clearance]
        if len(sites) >= n_molecules:
            sites = sites[:n_molecules]
            break
        n_sites = int(np.ceil(n_sites * 1.3)) + 1

    for site in sites:
        pos, q, names, topo = water_molecule(site, rng)
        asm.add_component(pos, q, names, topo, "WAT")
    return n_molecules


def small_water_box(n_molecules: int, seed: int = 0):
    """``repro.builder.small_water_box(n, seed, relax=False)`` on the
    per-molecule path."""
    edge = (n_molecules / WATER_DENSITY_PER_A3) ** (1.0 / 3.0)
    asm = SystemAssembler(np.full(3, edge))
    fill_water(asm, n_molecules, make_rng(seed))
    return asm.finalize(name=f"water{n_molecules}")


def skewed_water_box(n_molecules: int, seed: int = 0, skew: float = 2.0):
    """``repro.builder.skewed_water_box(..., relax=False)`` on the
    per-molecule path."""
    edge = (n_molecules / WATER_DENSITY_PER_A3) ** (1.0 / 3.0)
    rng = make_rng(seed)
    n_dense = int(round(n_molecules * skew / (skew + 1.0)))
    half = np.array([edge / 2.0, edge, edge])
    dense = water_box_positions(half, n_dense, rng)
    sparse = water_box_positions(half, n_molecules - n_dense, rng)
    sparse[:, 0] += edge / 2.0
    asm = SystemAssembler(np.full(3, edge))
    for site in np.concatenate([dense, sparse]):
        pos, q, names, topo = water_molecule(site, rng)
        asm.add_component(pos, q, names, topo, "WAT")
    return asm.finalize(name=f"skewed_water{n_molecules}")
