"""Verlet list lifetime: staleness, rebuilds, correctness-preserving reuse."""

import itertools

import numpy as np
import pytest

from repro.builder import small_water_box
from repro.md.bonded import compute_bonded
from repro.md.engine import SequentialEngine
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions, compute_nonbonded
from repro.md.pairlist import VerletPairList


def listed(cutoff, skin):
    """A list whose content is its own build number."""
    builds = itertools.count(1)
    return VerletPairList(cutoff, skin, lambda positions, box: (next(builds),))


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            listed(cutoff=0.0, skin=1.5)
        with pytest.raises(ValueError):
            listed(cutoff=5.0, skin=-1.0)

    def test_first_query_builds(self, water64):
        pl = listed(cutoff=6.0, skin=1.0)
        assert pl.pairs(water64.positions, water64.box) == (1,)
        assert pl.n_builds == 1 and pl.n_reuses == 0

    def test_reuse_under_small_motion(self, water64):
        pl = listed(cutoff=6.0, skin=1.0)
        pos = water64.positions.copy()
        pl.pairs(pos, water64.box)
        pos2 = pos + 0.1  # well under skin/2
        assert pl.pairs(pos2, water64.box) == (1,)  # the list built first
        assert pl.n_reuses == 1

    def test_rebuild_after_large_motion(self, water64):
        pl = listed(cutoff=6.0, skin=1.0)
        pos = water64.positions.copy()
        pl.pairs(pos, water64.box)
        pos2 = pos.copy()
        pos2[0] += 0.6  # beyond skin/2
        assert pl.pairs(pos2, water64.box) == (2,)
        assert pl.n_builds == 2
        # the snapshot moved with the rebuild
        assert np.array_equal(pl.ref_positions, pos2)

    def test_invalidate(self, water64):
        pl = listed(cutoff=6.0, skin=1.0)
        pl.pairs(water64.positions, water64.box)
        pl.invalidate()
        assert pl.needs_rebuild(water64.positions, water64.box)

    def test_atom_count_change_triggers_rebuild(self, water64):
        pl = listed(cutoff=6.0, skin=1.0)
        pl.pairs(water64.positions, water64.box)
        assert pl.needs_rebuild(water64.positions[:-3], water64.box)

    def test_box_change_triggers_rebuild(self, water64):
        # regression: a resized box invalidates the list even though no
        # atom moved (the old implementation never compared the box)
        pl = listed(cutoff=6.0, skin=1.0)
        pos = water64.positions.copy()
        pl.pairs(pos, water64.box)
        grown = water64.box * 1.25
        assert pl.needs_rebuild(pos, grown)
        pl.pairs(pos, grown)
        assert pl.n_builds == 2
        # and the rebuilt list is anchored to the new box
        assert not pl.needs_rebuild(pos, grown)
        assert pl.needs_rebuild(pos, water64.box)

    def test_failed_build_leaves_the_list_stale(self, water64):
        def refuse(positions, box):
            raise RuntimeError("no")

        pl = VerletPairList(6.0, 1.0, refuse)
        with pytest.raises(RuntimeError):
            pl.pairs(water64.positions, water64.box)
        assert pl.n_builds == 0
        assert pl.needs_rebuild(water64.positions, water64.box)


class TestCorrectness:
    def test_energy_identical_with_and_without(self, water64):
        """An engine on its lists against direct per-call enumeration."""
        s = water64.copy()
        opts = NonbondedOptions(cutoff=6.0)
        direct = compute_nonbonded(s, opts)
        _, f_bonded = compute_bonded(s)
        eng = SequentialEngine(s, opts, skin=1.5)
        forces = eng.compute_forces()
        rep = eng.report()
        assert rep.lj + rep.elec == pytest.approx(direct.energy, rel=1e-12)
        np.testing.assert_allclose(
            forces, direct.forces + f_bonded, rtol=0, atol=1e-10
        )

    def test_trajectory_identical_over_reuse_window(self):
        """Dynamics on reused lists must track per-step rebuilds exactly
        while the skin guarantee holds."""
        a = small_water_box(64, seed=3).copy()
        a.assign_velocities(300.0, seed=1)
        b = a.copy()
        opts = NonbondedOptions(cutoff=5.0, switch_dist=4.0)
        e1 = SequentialEngine(a, opts, VelocityVerlet(dt=0.5), skin=0.0)
        e2 = SequentialEngine(b, opts, VelocityVerlet(dt=0.5), skin=1.5)
        for _ in range(10):
            r1 = e1.step()
            r2 = e2.step()
            assert r2.total == pytest.approx(r1.total, rel=1e-9)
        assert e1.pairlist.n_reuses == 0
        assert e2.pairlist.reuse_fraction > 0.3  # the point of the exercise
        np.testing.assert_allclose(a.positions, b.positions, atol=1e-9)

    def test_reuse_fraction_statistics(self, water64):
        pl = listed(cutoff=6.0, skin=2.0)
        pos = water64.positions.copy()
        for _ in range(5):
            pl.pairs(pos, water64.box)
        assert pl.reuse_fraction == pytest.approx(0.8)
