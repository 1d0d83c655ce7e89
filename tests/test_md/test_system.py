"""MolecularSystem container: validation, energies, velocity assignment."""

import numpy as np
import pytest

from repro.md.constants import BOLTZMANN_KCAL
from repro.md.forcefield import default_forcefield
from repro.md.system import MolecularSystem
from repro.md.topology import Topology


def make_system(n=10, seed=0, box=(20.0, 20.0, 20.0)):
    rng = np.random.default_rng(seed)
    ff = default_forcefield()
    return MolecularSystem(
        positions=rng.random((n, 3)) * np.array(box),
        velocities=np.zeros((n, 3)),
        charges=np.zeros(n),
        type_indices=np.full(n, ff.atom_type_index("OT")),
        topology=Topology(),
        forcefield=ff,
        box=np.array(box),
    )


class TestValidation:
    def test_shape_mismatch_raises(self):
        s = make_system(4)
        with pytest.raises(ValueError):
            MolecularSystem(
                positions=s.positions,
                velocities=np.zeros((3, 3)),
                charges=s.charges,
                type_indices=s.type_indices,
                topology=Topology(),
                forcefield=s.forcefield,
                box=s.box,
            )

    def test_bad_box_raises(self):
        s = make_system(4)
        with pytest.raises(ValueError):
            MolecularSystem(
                positions=s.positions,
                velocities=s.velocities,
                charges=s.charges,
                type_indices=s.type_indices,
                topology=Topology(),
                forcefield=s.forcefield,
                box=np.array([1.0, -1.0, 1.0]),
            )

    def test_unknown_type_index_raises(self):
        s = make_system(4)
        with pytest.raises(ValueError):
            MolecularSystem(
                positions=s.positions,
                velocities=s.velocities,
                charges=s.charges,
                type_indices=np.full(4, 999),
                topology=Topology(),
                forcefield=s.forcefield,
                box=s.box,
            )

    def test_topology_validated(self):
        from repro.md.forcefield import STANDARD_BOND

        topo = Topology()
        topo.add_bond(0, 99, STANDARD_BOND)
        s = make_system(4)
        with pytest.raises(IndexError):
            MolecularSystem(
                positions=s.positions,
                velocities=s.velocities,
                charges=s.charges,
                type_indices=s.type_indices,
                topology=topo,
                forcefield=s.forcefield,
                box=s.box,
            )


class TestEnergetics:
    def test_masses_gathered_from_forcefield(self):
        s = make_system(5)
        np.testing.assert_allclose(s.masses, 15.9994)

    def test_kinetic_energy_zero_at_rest(self):
        assert make_system().kinetic_energy() == 0.0

    def test_velocity_assignment_hits_temperature(self):
        s = make_system(500, seed=3)
        s.assign_velocities(300.0, seed=5)
        assert s.temperature() == pytest.approx(300.0, rel=1e-9)

    def test_velocity_assignment_removes_com_drift(self):
        s = make_system(100, seed=3)
        s.assign_velocities(300.0, seed=5)
        p = (s.masses[:, None] * s.velocities).sum(axis=0)
        np.testing.assert_allclose(p, 0.0, atol=1e-10)

    def test_zero_temperature(self):
        s = make_system(10)
        s.assign_velocities(0.0, seed=1)
        assert s.temperature() == pytest.approx(0.0, abs=1e-12)

    def test_kinetic_matches_equipartition_definition(self):
        s = make_system(64, seed=9)
        s.assign_velocities(250.0, seed=2)
        ke = s.kinetic_energy()
        expected = 1.5 * s.n_atoms * BOLTZMANN_KCAL * s.temperature()
        assert ke == pytest.approx(expected, rel=1e-9)


class TestCopyAndWrap:
    def test_copy_independent_arrays(self):
        s = make_system(4)
        c = s.copy()
        c.positions[0, 0] += 1.0
        assert s.positions[0, 0] != c.positions[0, 0]

    def test_wrap_folds_positions(self):
        s = make_system(4)
        s.positions[0] = [25.0, -3.0, 41.0]
        s.wrap()
        assert np.all(s.positions >= 0.0)
        assert np.all(s.positions < s.box)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_wrap_is_in_place_with_np_mods_bits(self, backend):
        """The array stays the same object; every coordinate ends on
        ``np.mod`` and the fold of a result that rounded up to ``L``."""
        s = make_system(8)
        L = s.box[0]
        edges = [-0.0, 0.0, L, np.nextafter(L, 0.0), -1e-300, 2.5 * L, -3.2 * L, np.nan]
        s.positions[:, 0] = edges
        expected = np.mod(s.positions, s.box)
        expected[expected >= s.box] = 0.0
        held = s.positions
        s.wrap(backend)
        assert s.positions is held
        assert held.tobytes() == expected.tobytes()
        assert held[:2, 0].tolist() == [0.0, 0.0] and not np.signbit(held[:2, 0]).any()
        assert held[2, 0] == 0.0 and held[4, 0] == 0.0  # folded from L
        assert np.isnan(held[7, 0])

    def test_wrap_copies_positions_it_cannot_write(self):
        s = make_system(4)
        s.positions[0] = [25.0, -3.0, 41.0]
        expected = np.mod(s.positions, s.box)
        frozen = np.asfortranarray(s.positions)
        frozen.flags.writeable = False
        s.positions = frozen
        s.wrap()
        assert s.positions is not frozen
        assert s.positions.flags.c_contiguous and s.positions.flags.writeable
        np.testing.assert_array_equal(s.positions, expected)
        assert frozen[0, 0] == 25.0

    def test_exclusions_cached(self):
        s = make_system(4)
        assert s.exclusions is s.exclusions
        s.invalidate_exclusions()
        assert s.exclusions.n_atoms == 4
