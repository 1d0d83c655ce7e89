"""Sequential engine end-to-end: energy conservation, reports."""

import numpy as np
import pytest

from repro.md.engine import SequentialEngine
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions


class TestEngine:
    def test_report_components_sum(self, water64):
        eng = SequentialEngine(water64.copy(), NonbondedOptions(cutoff=6.0))
        rep = eng.report()
        assert rep.total == pytest.approx(rep.kinetic + rep.potential)
        assert rep.potential == pytest.approx(rep.lj + rep.elec + rep.bonded.total)

    def test_nve_energy_conservation(self, water64):
        system = water64.copy()
        system.assign_velocities(300.0, seed=1)
        eng = SequentialEngine(
            system, NonbondedOptions(cutoff=5.0, switch_dist=4.0), VelocityVerlet(dt=0.5)
        )
        first = eng.step()
        reports = eng.run(40)
        e0 = first.total
        for rep in reports:
            assert abs(rep.total - e0) / abs(e0) < 5e-3

    def test_step_counter_advances(self, water64):
        eng = SequentialEngine(water64.copy(), NonbondedOptions(cutoff=6.0))
        assert eng.current_step == 0
        eng.run(3)
        assert eng.current_step == 3
        assert eng.report().step == 3

    def test_forces_change_positions(self, water64):
        system = water64.copy()
        system.assign_velocities(300.0, seed=1)
        before = system.positions.copy()
        SequentialEngine(system, NonbondedOptions(cutoff=6.0)).step()
        assert not np.allclose(before, system.positions)

    def test_cold_start_stays_cold_briefly(self, water64):
        """At v=0 and near-minimum, kinetic energy stays small initially."""
        system = water64.copy()
        system.velocities[:] = 0.0
        eng = SequentialEngine(system, NonbondedOptions(cutoff=6.0), VelocityVerlet(dt=0.2))
        rep = eng.step()
        assert rep.kinetic < 50.0

    def test_vacuum_peptide_runs(self, peptide):
        system = peptide.copy()
        system.assign_velocities(10.0, seed=0)
        eng = SequentialEngine(system, NonbondedOptions(cutoff=10.0), VelocityVerlet(dt=0.25))
        reports = eng.run(10)
        assert len(reports) == 10
        assert np.isfinite(reports[-1].total)

    def test_pairlist_default_and_opt_out(self, water64):
        from repro.md.pairlist import VerletPairList

        auto = SequentialEngine(water64.copy(), NonbondedOptions(cutoff=6.0))
        assert isinstance(auto.pairlist, VerletPairList)
        assert auto.pairlist.cutoff == 6.0 and auto.pairlist.skin == 1.5
        system = water64.copy()
        system.assign_velocities(300.0, seed=1)
        off = SequentialEngine(system, NonbondedOptions(cutoff=6.0), skin=0.0)
        off.run(3)
        # skin 0 opts out of reuse: every evaluation rebuilds the lists
        assert off.pairlist.n_builds == 4 and off.pairlist.n_reuses == 0
        with pytest.raises(ValueError):
            SequentialEngine(water64.copy(), skin=-1.0)


class CopyingVerlet(VelocityVerlet):
    """Velocity Verlet that drifts into a *fresh* array.

    ``force_fn`` receives an array that does not alias the engine's
    ``system.positions`` — the regression case for the engine's former
    habit of ignoring the positions argument entirely.
    """

    def step(self, positions, velocities, forces_old, masses, force_fn):
        self.half_kick(velocities, forces_old, masses)
        new_positions = positions + self.dt * velocities  # fresh array
        forces_new = force_fn(new_positions)
        self.half_kick(velocities, forces_new, masses)
        return forces_new


class TestForceFnHonorsPositions:
    def test_non_inplace_integrator_matches_inplace(self, water64):
        a = water64.copy()
        a.assign_velocities(300.0, seed=2)
        b = a.copy()
        opts = NonbondedOptions(cutoff=5.0, switch_dist=4.0)
        e_ref = SequentialEngine(a, opts, VelocityVerlet(dt=0.5), skin=0.0)
        e_copy = SequentialEngine(b, opts, CopyingVerlet(dt=0.5), skin=0.0)
        for _ in range(5):
            r_ref = e_ref.step()
            r_copy = e_copy.step()
            assert r_copy.total == pytest.approx(r_ref.total, rel=1e-9)
        np.testing.assert_allclose(a.positions, b.positions, atol=1e-9)
