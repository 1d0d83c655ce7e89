"""Water builder: geometry, charges, topology, filling."""

import numpy as np
import pytest

from repro.builder.assembler import SystemAssembler
from repro.builder.water import fill_water, water_box_positions, water_molecule
from repro.util.rng import make_rng


class TestWaterMolecule:
    def test_geometry(self):
        pos, q, names, topo = water_molecule(np.array([5.0, 5.0, 5.0]), make_rng(0))
        assert pos.shape == (3, 3)
        d1 = np.linalg.norm(pos[1] - pos[0])
        d2 = np.linalg.norm(pos[2] - pos[0])
        assert d1 == pytest.approx(0.9572, rel=1e-6)
        assert d2 == pytest.approx(0.9572, rel=1e-6)
        cos = np.dot(pos[1] - pos[0], pos[2] - pos[0]) / (d1 * d2)
        assert np.degrees(np.arccos(cos)) == pytest.approx(104.52, rel=1e-4)

    def test_neutral(self):
        _, q, _, _ = water_molecule(np.zeros(3), make_rng(0))
        assert q.sum() == pytest.approx(0.0)

    def test_topology(self):
        _, _, names, topo = water_molecule(np.zeros(3), make_rng(0))
        assert names == ["OT", "HT", "HT"]
        assert topo.n_bonds == 2
        assert topo.n_angles == 1

    def test_random_orientation_differs(self):
        p1, _, _, _ = water_molecule(np.zeros(3), make_rng(1))
        p2, _, _, _ = water_molecule(np.zeros(3), make_rng(2))
        assert not np.allclose(p1, p2)


class TestWaterBoxPositions:
    def test_exact_count(self):
        box = np.array([20.0, 20.0, 20.0])
        sites = water_box_positions(box, 100, make_rng(0))
        assert sites.shape == (100, 3)

    def test_zero(self):
        assert water_box_positions(np.ones(3) * 10, 0, make_rng(0)).shape == (0, 3)

    def test_anisotropic_box_covered(self):
        box = np.array([40.0, 10.0, 10.0])
        sites = water_box_positions(box, 120, make_rng(0))
        wrapped = np.mod(sites, box)
        # spread along the long axis
        assert wrapped[:, 0].max() - wrapped[:, 0].min() > 25.0


class TestFillWater:
    def test_exact_molecule_count(self):
        asm = SystemAssembler(np.array([15.0, 15.0, 15.0]))
        added = fill_water(asm, 50, make_rng(0))
        assert added == 50
        assert asm.n_atoms == 150

    def test_respects_solute_clearance(self):
        from repro.builder.ions import add_ions

        asm = SystemAssembler(np.array([15.0, 15.0, 15.0]))
        add_ions(asm, 5, make_rng(1))
        solute = asm.current_positions().copy()
        fill_water(asm, 30, make_rng(0), clearance=2.5)
        waters = asm.current_positions()[5:]
        from scipy.spatial import cKDTree

        tree = cKDTree(np.mod(solute, asm.box), boxsize=asm.box)
        d, _ = tree.query(np.mod(waters, asm.box), k=1)
        assert d.min() > 2.5

    def test_zero_adds_nothing_and_draws_nothing(self):
        asm = SystemAssembler(np.array([15.0, 15.0, 15.0]))
        rng = make_rng(0)
        before = rng.bit_generator.state
        assert fill_water(asm, 0, rng) == 0
        assert asm.n_atoms == 0
        assert rng.bit_generator.state == before

    def test_negative_count_is_refused_before_any_draw(self):
        asm = SystemAssembler(np.array([15.0, 15.0, 15.0]))
        rng = make_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="n_molecules"):
            fill_water(asm, -3, rng)
        assert asm.n_atoms == 0
        assert rng.bit_generator.state == before

    def test_impossible_fill_raises(self):
        asm = SystemAssembler(np.array([5.0, 5.0, 5.0]))
        with pytest.raises(RuntimeError):
            fill_water(asm, 5000, make_rng(0))
