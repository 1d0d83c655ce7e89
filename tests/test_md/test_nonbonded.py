"""Non-bonded kernel: switching function, forces, exclusions, pair counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.md.nonbonded import (
    NonbondedOptions,
    compute_nonbonded,
    switching_function,
)


class TestOptions:
    def test_default_switch(self):
        opts = NonbondedOptions(cutoff=12.0)
        assert opts.switch == pytest.approx(10.2)

    def test_explicit_switch(self):
        opts = NonbondedOptions(cutoff=12.0, switch_dist=10.0)
        assert opts.switch == 10.0

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            NonbondedOptions(cutoff=-1.0)

    def test_rejects_switch_beyond_cutoff(self):
        with pytest.raises(ValueError):
            NonbondedOptions(cutoff=10.0, switch_dist=11.0)


class TestSwitchingFunction:
    def test_one_below_switch(self):
        S, dS = switching_function(np.array([4.0]), switch=3.0, cutoff=5.0)
        assert S[0] == 1.0 and dS[0] == 0.0

    def test_zero_beyond_cutoff(self):
        S, dS = switching_function(np.array([26.0]), switch=3.0, cutoff=5.0)
        assert S[0] == 0.0

    def test_continuous_at_boundaries(self):
        s, c = 3.0, 5.0
        eps = 1e-9
        S_lo, _ = switching_function(np.array([s * s + eps]), s, c)
        S_hi, _ = switching_function(np.array([c * c - eps]), s, c)
        assert S_lo[0] == pytest.approx(1.0, abs=1e-6)
        assert S_hi[0] == pytest.approx(0.0, abs=1e-6)

    @given(st.floats(1.0, 24.9))
    @settings(max_examples=50, deadline=None)
    def test_bounded_zero_one(self, r2):
        S, _ = switching_function(np.array([r2]), 3.0, 5.0)
        assert 0.0 <= S[0] <= 1.0

    def test_monotone_decreasing_in_window(self):
        r2 = np.linspace(9.0, 25.0, 100)
        S, _ = switching_function(r2, 3.0, 5.0)
        assert np.all(np.diff(S) <= 1e-12)

    def test_derivative_matches_finite_difference(self):
        r2 = np.linspace(9.5, 24.5, 30)
        S, dS = switching_function(r2, 3.0, 5.0)
        h = 1e-6
        Sp, _ = switching_function(r2 + h, 3.0, 5.0)
        Sm, _ = switching_function(r2 - h, 3.0, 5.0)
        np.testing.assert_allclose(dS, (Sp - Sm) / (2 * h), rtol=1e-4, atol=1e-8)


class TestComputeNonbonded:
    def test_forces_match_numerical_gradient(self, water64):
        system = water64.copy()
        opts = NonbondedOptions(cutoff=6.0)
        res = compute_nonbonded(system, opts)
        h = 1e-5
        for atom in range(0, 9, 3):
            for d in range(3):
                orig = system.positions[atom, d]
                system.positions[atom, d] = orig + h
                ep = compute_nonbonded(system, opts).energy
                system.positions[atom, d] = orig - h
                em = compute_nonbonded(system, opts).energy
                system.positions[atom, d] = orig
                num = -(ep - em) / (2 * h)
                assert res.forces[atom, d] == pytest.approx(num, rel=1e-4, abs=1e-5)

    def test_net_force_zero(self, water64):
        res = compute_nonbonded(water64, NonbondedOptions(cutoff=6.0))
        np.testing.assert_allclose(res.forces.sum(axis=0), 0.0, atol=1e-9)

    def test_excluded_pairs_do_not_interact(self, water64):
        """Intramolecular O-H and H-H pairs are excluded: a lone water has
        zero non-bonded energy."""
        from repro.builder import small_water_box

        lone = small_water_box(1, seed=2, relax=False)
        res = compute_nonbonded(lone, NonbondedOptions(cutoff=4.0))
        assert res.n_pairs == 0
        assert res.energy == 0.0
        np.testing.assert_allclose(res.forces, 0.0)

    def test_energy_beyond_cutoff_is_zero(self):
        """Two waters far apart contribute nothing."""
        from repro.builder.assembler import SystemAssembler
        from repro.builder.water import water_molecule
        from repro.util.rng import make_rng

        asm = SystemAssembler(np.array([60.0, 60.0, 60.0]))
        rng = make_rng(0)
        for center in ([5.0, 5.0, 5.0], [30.0, 30.0, 30.0]):
            pos, q, names, topo = water_molecule(np.array(center), rng)
            asm.add_component(pos, q, names, topo, "WAT")
        s = asm.finalize()
        res = compute_nonbonded(s, NonbondedOptions(cutoff=8.0))
        assert res.energy == 0.0

    def test_empty_system(self):
        from repro.md.forcefield import default_forcefield
        from repro.md.system import MolecularSystem
        from repro.md.topology import Topology

        ff = default_forcefield()
        s = MolecularSystem(
            positions=np.zeros((1, 3)),
            velocities=np.zeros((1, 3)),
            charges=np.zeros(1),
            type_indices=np.zeros(1, dtype=int),
            topology=Topology(),
            forcefield=ff,
            box=np.array([10.0, 10.0, 10.0]),
        )
        res = compute_nonbonded(s)
        assert res.energy == 0.0 and res.n_pairs == 0

    def test_scale14_zero_drops_14_interactions(self, peptide):
        s1 = peptide.copy()
        s1.forcefield.scale14_lj = 1.0
        s1.forcefield.scale14_elec = 1.0
        e_full = compute_nonbonded(s1, NonbondedOptions(cutoff=10.0))
        s1.forcefield.scale14_lj = 0.0
        s1.forcefield.scale14_elec = 0.0
        e_none = compute_nonbonded(s1, NonbondedOptions(cutoff=10.0))
        s1.forcefield.scale14_lj = 1.0
        s1.forcefield.scale14_elec = 1.0
        assert e_full.n_pairs > e_none.n_pairs
        assert e_full.energy != pytest.approx(e_none.energy)


def count_pairs(pos_a, pos_b, box, cutoff):
    """The count mode of ``block_pairs`` on position groups: unordered pairs
    within ``pos_a`` (``pos_b=None``), or the ``a``×``b`` cross pairs."""
    block_pairs = get_backend().block_pairs
    rows_a = np.arange(len(pos_a), dtype=np.int64)
    if pos_b is None:
        return block_pairs(pos_a, box, rows_a, None, 0, 1, cutoff)
    pos = np.concatenate([pos_a, pos_b])
    rows_b = np.arange(len(pos_a), len(pos), dtype=np.int64)
    return block_pairs(pos, box, rows_a, rows_b, 0, 1, cutoff)


class TestKernelPairCount:
    def test_self_count_matches_enumeration(self):
        rng = np.random.default_rng(5)
        box = np.array([10.0, 10.0, 10.0])
        pos = rng.random((20, 3)) * box
        n = count_pairs(pos, None, box, 3.0)
        from repro.util.pbc import minimum_image

        brute = 0
        for i in range(20):
            d = minimum_image(pos[i + 1 :] - pos[i], box)
            brute += int(np.count_nonzero(np.einsum("ij,ij->i", d, d) < 9.0))
        assert n == brute

    def test_cross_count_symmetric(self):
        rng = np.random.default_rng(6)
        box = np.array([10.0, 10.0, 10.0])
        a = rng.random((15, 3)) * box
        b = rng.random((12, 3)) * box
        assert count_pairs(a, b, box, 4.0) == count_pairs(b, a, box, 4.0)

    def test_empty_groups(self):
        box = np.ones(3) * 10
        assert count_pairs(np.zeros((0, 3)), None, box, 3.0) == 0
        assert count_pairs(np.zeros((1, 3)), np.zeros((0, 3)), box, 3.0) == 0
