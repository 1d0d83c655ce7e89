"""TIP3P-like water construction and solvent filling.

Waters are placed on a jittered lattice whose cell volume matches the
experimental number density of liquid water (0.0334 molecules/Å³), then
randomly oriented.  :func:`fill_water` fills the free volume of a partially
assembled system, skipping lattice sites that clash with existing solute.
Waters are placed by the block (:func:`water_block`): one rng draw, one
stacked rotation and one topology block for all of them.
"""

from __future__ import annotations

import numpy as np

from repro.md.forcefield import WATER_ANGLE, WATER_OH_BOND
from repro.md.topology import Topology
from repro.util.rng import make_rng

__all__ = [
    "WATER_DENSITY_PER_A3",
    "water_block",
    "water_molecule",
    "water_box_positions",
    "fill_water",
]

#: Number density of liquid water, molecules per Å³.
WATER_DENSITY_PER_A3 = 0.0334

_OH = 0.9572  # Å, TIP3P O-H bond length
_HOH = np.deg2rad(104.52)  # TIP3P H-O-H angle

#: Minimum lattice spacing fill_water will densify down to before giving up.
_MIN_SITE_SPACING = 2.6

# local geometry: O at origin, both hydrogens in the xy plane
_WATER_LOCAL = np.array(
    [
        [0.0, 0.0, 0.0],
        [_OH, 0.0, 0.0],
        [_OH * np.cos(_HOH), _OH * np.sin(_HOH), 0.0],
    ]
)
_WATER_CHARGES = np.array([-0.834, 0.417, 0.417])
_WATER_NAMES = ["OT", "HT", "HT"]


def water_block(
    sites: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[str], Topology]:
    """Randomly oriented TIP3P-like waters, one with its oxygen at each site.

    ``sites`` is ``(n, 3)``; returns ``(positions (3n, 3), charges (3n,),
    names, topology)`` with the atoms in molecule order (O, H, H) and the
    topology holding each molecule's two O-H bonds and H-O-H angle in that
    order.  The whole block is one array pass: the ``n`` quaternions are one
    ``(n, 4)`` normal draw (the stream of ``n`` draws of four), each is
    normalised by its stacked-matmul norm, and the rotations are applied by
    one stacked matmul.  The output equals a per-molecule construction (one
    quaternion, ``np.linalg.norm`` and 3x3 product per water) bit for bit;
    ``tests/test_builder/oracle.py`` is that construction.
    """
    sites = np.asarray(sites, dtype=np.float64).reshape(-1, 3)
    n = len(sites)
    q = make_rng(rng).normal(size=(n, 4))
    q /= np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
    w, x, y, z = q.T
    rot = np.stack(
        [
            1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
        ],
        axis=1,
    ).reshape(n, 3, 3)
    pos = np.matmul(_WATER_LOCAL, rot.transpose(0, 2, 1)) + sites[:, None, :]

    o = np.arange(0, 3 * n, 3)  # each molecule's oxygen
    topo = Topology()
    bonds = np.stack([o, o + 1, o, o + 2], axis=1).reshape(-1, 2)
    topo.add_bonds(bonds, WATER_OH_BOND)
    topo.add_angles(np.stack([o + 1, o, o + 2], axis=1), WATER_ANGLE)
    return pos.reshape(-1, 3), np.tile(_WATER_CHARGES, n), _WATER_NAMES * n, topo


def water_molecule(
    center: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[str], Topology]:
    """One randomly oriented TIP3P-like water with its oxygen at ``center``.

    Returns ``(positions (3,3), charges (3,), names, topology)`` where the
    topology holds the two O-H bonds and the H-O-H angle: the one-site
    :func:`water_block`.
    """
    return water_block(center, rng)


def _lattice_dims(box: np.ndarray, n: int) -> np.ndarray:
    """Per-axis cell counts whose product is >= n, cells near-cubic."""
    scale = (n / float(np.prod(box))) ** (1.0 / 3.0)
    dims = np.maximum(np.floor(box * scale).astype(np.int64), 1)
    while int(np.prod(dims)) < n:
        # grow the axis whose cells are currently largest
        dims[int(np.argmax(box / dims))] += 1
    return dims


def water_box_positions(
    box: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` oxygen sites on a jittered lattice spanning ``box``.

    Sites are cell centres of a near-cubic grid, visited in random order, so
    any prefix of the returned array still covers the whole box.
    """
    box = np.asarray(box, dtype=np.float64)
    if n <= 0:
        return np.zeros((0, 3), dtype=np.float64)
    rng = make_rng(rng)
    dims = _lattice_dims(box, n)
    cell = box / dims
    grids = np.meshgrid(*(np.arange(d) for d in dims), indexing="ij")
    sites = (np.stack([g.ravel() for g in grids], axis=1) + 0.5) * cell
    sites = sites[rng.permutation(len(sites))[:n]]
    sites += rng.uniform(-0.15, 0.15, size=sites.shape)
    return sites


def _wrap_into(points: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Wrap points into [0, box) strictly (safe for KDTree boxsize)."""
    wrapped = np.mod(points, box)
    wrapped[wrapped >= box] = 0.0
    return wrapped


def fill_water(
    asm,
    n_molecules: int,
    rng: np.random.Generator,
    clearance: float = 2.0,
) -> int:
    """Add exactly ``n_molecules`` waters to ``asm``, avoiding the solute.

    Lattice sites closer than ``clearance`` + one O-H bond to any existing
    atom (minimum-image) are rejected; if too few sites survive, the lattice
    is densified until either enough fit or the spacing would drop below
    ``2.6`` Å, at which point ``RuntimeError`` is raised.  The waters are
    placed as one :func:`water_block` and added as one component.  Zero
    molecules add nothing and draw nothing; a negative count is a
    ``ValueError``.
    """
    from scipy.spatial import cKDTree

    if n_molecules < 0:
        raise ValueError(f"n_molecules must be >= 0; got {n_molecules}")
    if n_molecules == 0:
        return 0
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

    asm.add_component(*water_block(sites, rng), "WAT")
    return n_molecules
