"""Ewald summation: Madelung constant, force gradients, parameter
independence (the energy must not depend on the alpha split)."""

import numpy as np
import pytest

from repro.builder.ions import ensure_ion_types
from repro.md.constants import COULOMB_CONSTANT
from repro.md.ewald import EwaldOptions, compute_ewald
from repro.md.forcefield import default_forcefield
from repro.md.system import MolecularSystem
from repro.md.topology import Topology


def rock_salt(ncell=2, a=5.64):
    ff = default_forcefield()
    ensure_ion_types(ff)
    pos, q, ti = [], [], []
    for i in range(2 * ncell):
        for j in range(2 * ncell):
            for k in range(2 * ncell):
                charge = 1.0 if (i + j + k) % 2 == 0 else -1.0
                pos.append([i, j, k])
                q.append(charge)
                ti.append(ff.atom_type_index("SOD" if charge > 0 else "CLA"))
    half = a / 2
    return MolecularSystem(
        positions=np.array(pos, float) * half,
        velocities=np.zeros((len(pos), 3)),
        charges=np.array(q),
        type_indices=np.array(ti),
        topology=Topology(),
        forcefield=ff,
        box=np.array([2 * ncell * half] * 3),
    )


def random_charges(n=12, box_side=14.0, seed=0, neutral=True):
    rng = np.random.default_rng(seed)
    ff = default_forcefield()
    ensure_ion_types(ff)
    q = rng.normal(size=n)
    if neutral:
        q -= q.mean()
    return MolecularSystem(
        positions=rng.random((n, 3)) * box_side,
        velocities=np.zeros((n, 3)),
        charges=q,
        type_indices=np.full(n, ff.atom_type_index("SOD")),
        topology=Topology(),
        forcefield=ff,
        box=np.array([box_side] * 3),
    )


class TestMadelung:
    def test_nacl_madelung_constant(self):
        s = rock_salt(ncell=2)
        res = compute_ewald(s, EwaldOptions(cutoff=5.6, kmax=10))
        n = s.n_atoms
        half = 5.64 / 2
        madelung = -res.energy * half / (COULOMB_CONSTANT * (n / 2))
        assert madelung == pytest.approx(1.74756, abs=2e-4)

    def test_lattice_forces_vanish_by_symmetry(self):
        s = rock_salt(ncell=2)
        res = compute_ewald(s, EwaldOptions(cutoff=5.6, kmax=10))
        assert np.abs(res.forces).max() < 1e-9


class TestHalfSpaceReciprocalSum:
    """The k-table keeps one of every ``±k`` pair and the callers double
    the prefactor; the sum over every nonzero vector is the reference."""

    @staticmethod
    def full_space(system, alpha, kmax):
        from repro.backend import reference

        grid = np.arange(-kmax, kmax + 1)
        m = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
        m = m.reshape(-1, 3).astype(np.float64)
        k = 2.0 * np.pi * m[np.any(m != 0, axis=1)] / system.box
        k2 = np.einsum("ij,ij->i", k, k)
        ak = np.exp(-k2 / (4.0 * alpha * alpha)) / k2
        pref = COULOMB_CONSTANT * 2.0 * np.pi / float(np.prod(system.box))
        forces = np.zeros((system.n_atoms, 3))
        energy = reference.ewald_recip(
            system.positions, system.charges, k, ak, pref, forces
        )
        return energy, forces

    @pytest.mark.parametrize("case", ["nacl", "water"])
    def test_matches_the_full_space_sum(self, case):
        from repro.builder import small_water_box
        from repro.md.ewald import _kspace_tables

        if case == "nacl":
            s = rock_salt(ncell=2)
            s.positions = s.positions + np.random.default_rng(1).normal(
                0.0, 0.2, s.positions.shape
            )  # off the lattice, so the forces are not zero by symmetry
            opts = EwaldOptions(cutoff=5.6, kmax=6)
        else:
            s = small_water_box(40, seed=6, relax=False)
            opts = EwaldOptions(cutoff=5.0, kmax=5)
        alpha = opts.alpha_value()
        e_full, f_full = self.full_space(s, alpha, opts.kmax)
        k_tab, _k2, _ak, _m = _kspace_tables(s.box, opts.kmax, alpha)
        assert len(k_tab) == ((2 * opts.kmax + 1) ** 3 - 1) // 2
        # no vector of the table is the negative of another
        both = np.vstack([k_tab, -k_tab]).round(9)
        assert len({tuple(v) for v in both}) == 2 * len(k_tab)

        res = compute_ewald(s, opts)
        rest = compute_ewald(s, opts, recip=False)
        assert res.energy_recip == pytest.approx(e_full, rel=1e-10)
        scale = np.abs(f_full).max()
        assert scale > 0
        assert np.abs(res.forces - rest.forces - f_full).max() <= 1e-10 * scale


class TestAlphaIndependence:
    def test_energy_independent_of_split(self):
        """The real/reciprocal split parameter must not change the total."""
        s = random_charges()
        e = [
            compute_ewald(s, EwaldOptions(cutoff=7.0, alpha=a, kmax=12)).energy
            for a in (0.35, 0.45, 0.55)
        ]
        assert e[0] == pytest.approx(e[1], rel=1e-4)
        assert e[1] == pytest.approx(e[2], rel=1e-4)


class TestForces:
    def test_forces_match_numerical_gradient(self):
        s = random_charges(n=8, seed=3)
        opts = EwaldOptions(cutoff=6.5, kmax=8)
        res = compute_ewald(s, opts)
        h = 1e-5
        for atom in range(4):
            for d in range(3):
                orig = s.positions[atom, d]
                s.positions[atom, d] = orig + h
                ep = compute_ewald(s, opts).energy
                s.positions[atom, d] = orig - h
                em = compute_ewald(s, opts).energy
                s.positions[atom, d] = orig
                num = -(ep - em) / (2 * h)
                assert res.forces[atom, d] == pytest.approx(num, rel=2e-4, abs=1e-6)

    def test_net_force_zero(self):
        s = random_charges(seed=5)
        res = compute_ewald(s)
        np.testing.assert_allclose(res.forces.sum(axis=0), 0.0, atol=1e-8)


class TestExclusions:
    def test_excluded_pair_does_not_interact_directly(self):
        """Two bonded opposite charges: direct interaction removed; only
        their periodic images contribute (a small residual)."""
        from repro.md.forcefield import STANDARD_BOND

        ff = default_forcefield()
        ensure_ion_types(ff)
        topo = Topology()
        topo.add_bond(0, 1, STANDARD_BOND)
        box = 40.0
        s = MolecularSystem(
            positions=np.array([[20.0, 20.0, 20.0], [21.5, 20.0, 20.0]]),
            velocities=np.zeros((2, 3)),
            charges=np.array([1.0, -1.0]),
            type_indices=np.array([
                ff.atom_type_index("SOD"), ff.atom_type_index("CLA")
            ]),
            topology=topo,
            forcefield=ff,
            box=np.array([box] * 3),
        )
        res = compute_ewald(s, EwaldOptions(cutoff=12.0, kmax=8))
        bare = -COULOMB_CONSTANT / 1.5  # the excluded direct interaction
        # total must be far from the bare pair energy (it is excluded)
        assert abs(res.energy) < 0.2 * abs(bare)


class TestChargedSystems:
    def test_background_correction_applied(self):
        s = random_charges(neutral=False, seed=9)
        res = compute_ewald(s)
        assert res.energy_background != 0.0

    def test_neutral_system_no_background(self):
        s = random_charges(neutral=True, seed=9)
        res = compute_ewald(s)
        assert res.energy_background == pytest.approx(0.0, abs=1e-9)


class TestExclusionPairCache:
    """The decoded (i, j) exclusion table is cached per Exclusions object."""

    def water(self):
        from repro.builder import small_water_box

        return small_water_box(27, seed=2, relax=False)

    def test_cached_decode_matches_fresh(self):
        s = self.water()
        excl = s.exclusions
        i_a, j_a = excl.excluded_pairs()
        # fresh decode straight from the sorted keys
        n = np.int64(excl.n_atoms)
        np.testing.assert_array_equal(i_a, excl.excluded_keys // n)
        np.testing.assert_array_equal(j_a, excl.excluded_keys % n)
        # second call serves the exact same (read-only) arrays
        i_b, j_b = excl.excluded_pairs()
        assert i_b is i_a and j_b is j_a
        assert not i_a.flags.writeable and not j_a.flags.writeable

    def test_cached_path_matches_uncached_ewald(self):
        """Regression: the correction with the cached table equals the one
        computed against a freshly rebuilt exclusions object."""
        s = self.water()
        opts = EwaldOptions(cutoff=6.0, kmax=4)
        s.exclusions.excluded_pairs()  # warm the cache
        warm = compute_ewald(s, opts)
        s.invalidate_exclusions()  # rebuild: brand-new Exclusions, cold cache
        cold = compute_ewald(s, opts)
        assert warm.energy_exclusion == pytest.approx(
            cold.energy_exclusion, rel=0, abs=0
        )
        assert np.array_equal(warm.forces, cold.forces)

    def test_topology_change_invalidates(self):
        s = self.water()
        old = s.exclusions
        old_pairs = old.excluded_pairs()
        s.invalidate_exclusions()
        new = s.exclusions
        assert new is not old
        assert getattr(new, "_pair_table", None) is None
        np.testing.assert_array_equal(new.excluded_pairs()[0], old_pairs[0])
