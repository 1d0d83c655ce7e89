"""Cross-backend parity sweep over real builder systems plus edge cases.

Every available backend must agree with the numpy reference to 1e-9
(relative to the result's own scale) on full non-bonded and Ewald
evaluations, and must be bit-identical to *itself* across repeat runs.
On a host without a C compiler this degenerates to a numpy self-consistency
suite; wherever ``cc`` exists the ``c`` backend rides the whole sweep.
"""

import numpy as np
import pytest

from repro.backend import available_backends, get_backend
from repro.builder import mini_assembly, skewed_water_box, small_water_box
from repro.md.ewald import EwaldOptions, clear_kspace_cache, compute_ewald
from repro.md.nonbonded import NonbondedOptions, compute_nonbonded

BACKENDS = available_backends()
NUMPY = get_backend("numpy")

#: (label, system factory, nonbonded cutoff) — a plain water box, a mixed
#: protein/lipid/ion assembly (exercises exclusions and 1-4 scaling), and
#: a skewed-density box (uneven cell occupancy)
SYSTEMS = [
    ("water", lambda: small_water_box(50, seed=3, relax=False), 6.0),
    ("assembly", lambda: mini_assembly(seed=1), 8.0),
    ("skewed", lambda: skewed_water_box(60, seed=5, skew=3.0), 6.0),
]


def _rel_close(a, b, tol=1e-9):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    return np.all(np.isfinite(a)) and np.all(np.abs(a - b) <= tol * scale)


def _eval_nonbonded(system, cutoff, backend):
    res = compute_nonbonded(
        system, NonbondedOptions(cutoff=cutoff), backend=get_backend(backend)
    )
    return res.energy_lj, res.energy_elec, res.n_pairs, res.forces


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label,factory,cutoff", SYSTEMS, ids=[s[0] for s in SYSTEMS])
class TestNonbondedParity:
    def test_matches_reference(self, backend, label, factory, cutoff):
        system = factory()
        e_lj, e_el, n_pairs, forces = _eval_nonbonded(system, cutoff, backend)
        r_lj, r_el, r_pairs, r_forces = _eval_nonbonded(system, cutoff, NUMPY)
        assert n_pairs == r_pairs
        assert _rel_close(e_lj, r_lj), (e_lj, r_lj)
        assert _rel_close(e_el, r_el), (e_el, r_el)
        assert _rel_close(forces, r_forces)

    def test_repeat_runs_bit_identical(self, backend, label, factory, cutoff):
        system = factory()
        a = _eval_nonbonded(system, cutoff, backend)
        b = _eval_nonbonded(system, cutoff, backend)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
        assert np.array_equal(a[3], b[3])


@pytest.mark.parametrize("backend", BACKENDS)
class TestEwaldParity:
    def _eval(self, system, backend, kmax=4):
        clear_kspace_cache()
        opts = EwaldOptions(alpha=0.35, kmax=kmax, cutoff=7.0)
        return compute_ewald(system, opts, backend=get_backend(backend))

    def test_water_box_matches_reference(self, backend):
        system = small_water_box(30, seed=9, relax=False)
        res = self._eval(system, backend)
        res_ref = self._eval(system, NUMPY)
        assert _rel_close(res.energy_real, res_ref.energy_real)
        assert _rel_close(res.energy_recip, res_ref.energy_recip)
        assert _rel_close(res.forces, res_ref.forces)

    def test_repeat_runs_bit_identical(self, backend):
        system = small_water_box(30, seed=9, relax=False)
        a = self._eval(system, backend)
        b = self._eval(system, backend)
        assert a.energy_real == b.energy_real
        assert a.energy_recip == b.energy_recip
        assert np.array_equal(a.forces, b.forces)

    def test_kmax_zero_empty_kvectors(self, backend):
        # kmax=0 leaves no reciprocal vectors at all: energy must be 0.0,
        # not a crash on the empty table
        system = small_water_box(10, seed=2, relax=False)
        res = self._eval(system, backend, kmax=0)
        assert res.energy_recip == 0.0
        assert np.all(np.isfinite(res.forces))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ewald_cutoff", [5.0, 6.0, 7.5], ids=["below", "equal", "above"])
class TestFusedEwaldPairKernel:
    """``nb_pairs`` in Ewald mode, over a prefiltered water list with the
    erfc cutoff below, at and above the LJ cutoff (6 A)."""

    ALPHA = 0.4

    def _evaluate(self, backend, ewald_cutoff, lj=True, elec=True):
        from repro.md.cells import candidate_pairs
        from repro.md.nonbonded import _combined_params, filter_candidates

        system = small_water_box(50, seed=3, relax=False)
        pos, box = system.positions, system.box
        reach = max(6.0, ewald_cutoff) + 1.0  # a skin's worth of extra pairs
        i, j = filter_candidates(system, *candidate_pairs(pos, box, reach), reach)
        eps, rmin, qq = _combined_params(system, i, j)
        forces = np.zeros_like(pos)
        out = get_backend(backend).nb_pairs(
            pos, box, i, j, eps * lj, rmin, qq * elec, 6.0, 5.1, forces, i, j,
            self.ALPHA, ewald_cutoff,
        )
        return out, forces, (system, i, j, eps, rmin, qq)

    def test_matches_reference(self, backend, ewald_cutoff):
        out, forces, _ = self._evaluate(backend, ewald_cutoff)
        ref, ref_forces, _ = self._evaluate(NUMPY, ewald_cutoff)
        assert out[2] == ref[2] > 0
        assert _rel_close(out[0], ref[0]) and _rel_close(out[1], ref[1])
        assert _rel_close(forces, ref_forces)

    def test_newtons_third_law(self, backend, ewald_cutoff):
        _, forces, _ = self._evaluate(backend, ewald_cutoff)
        assert np.all(np.abs(forces.sum(axis=0)) <= 1e-9 * np.abs(forces).max())

    def test_is_lj_plus_the_oracle_real_space_kernel(self, backend, ewald_cutoff):
        """Fused = the cutoff-mode LJ term + ``ewald_real`` on the same pairs."""
        from repro.md.constants import COULOMB_CONSTANT

        out, forces, (system, i, j, eps, rmin, qq) = self._evaluate(
            backend, ewald_cutoff
        )
        be = get_backend(backend)
        lj_only, lj_forces, _ = self._evaluate(backend, ewald_cutoff, elec=False)
        real_forces = np.zeros_like(forces)
        e_real = be.ewald_real(
            system.positions, system.box, i, j, COULOMB_CONSTANT * qq,
            self.ALPHA, ewald_cutoff, real_forces,
        )
        assert out[2] == lj_only[2]  # the count is the LJ cutoff's
        assert _rel_close(out[0], lj_only[0]) and lj_only[1] == 0.0
        assert _rel_close(out[1], e_real)
        assert _rel_close(forces, lj_forces + real_forces)
        # and the LJ term is the cutoff-mode kernel's, whatever the erfc reach
        cut_forces = np.zeros_like(forces)
        cut = be.nb_pairs(
            system.positions, system.box, i, j, eps, rmin, 0.0 * qq, 6.0, 5.1,
            cut_forces, i, j,
        )
        assert cut[2] == out[2] and _rel_close(cut[0], out[0])
        assert _rel_close(cut_forces, lj_forces)


@pytest.mark.parametrize("backend", BACKENDS)
class TestEdgeCases:
    def test_zero_pair_box(self, backend):
        # two far-apart atoms: candidate enumeration finds nothing in range
        from repro.builder.ions import ensure_ion_types
        from repro.md.forcefield import default_forcefield
        from repro.md.system import MolecularSystem
        from repro.md.topology import Topology

        ff = default_forcefield()
        ensure_ion_types(ff)
        ti = ff.atom_type_index("SOD")
        system = MolecularSystem(
            positions=np.array([[1.0, 1.0, 1.0], [25.0, 25.0, 25.0]]),
            velocities=np.zeros((2, 3)),
            charges=np.array([1.0, -1.0]),
            type_indices=np.array([ti, ti]),
            topology=Topology(),
            forcefield=ff,
            box=np.array([50.0, 50.0, 50.0]),
            name="two-far",
        )
        e_lj, e_el, n_pairs, forces = _eval_nonbonded(system, 6.0, backend)
        assert n_pairs == 0
        assert e_lj == 0.0 and e_el == 0.0
        assert np.all(forces == 0.0)

    def test_single_cell_grid(self, backend):
        # box barely larger than the cutoff: the cell grid degenerates to
        # one cell and every pair is a candidate
        system = small_water_box(4, seed=1, relax=False)
        cutoff = float(min(system.box)) * 0.45
        e_lj, e_el, n_pairs, forces = _eval_nonbonded(system, cutoff, backend)
        ref = _eval_nonbonded(system, cutoff, NUMPY)
        assert n_pairs == ref[2]
        assert _rel_close(forces, ref[3])

    def test_scaled_14_pairs(self, backend):
        # the assembly carries real 1-4 pairs; isolate the 1-4 pass
        from repro.md.nonbonded import nonbonded_14

        system = mini_assembly(seed=1)
        assert len(system.exclusions.pairs14) > 0
        opts = NonbondedOptions(cutoff=8.0)
        f_c = np.zeros((system.n_atoms, 3))
        f_r = np.zeros((system.n_atoms, 3))
        out_c = nonbonded_14(system, opts, f_c, backend=get_backend(backend))
        out_r = nonbonded_14(system, opts, f_r, backend=NUMPY)
        assert out_c[2] == out_r[2]
        assert _rel_close(out_c[0], out_r[0])
        assert _rel_close(out_c[1], out_r[1])
        assert _rel_close(f_c, f_r)


@pytest.mark.skipif(len(BACKENDS) < 2, reason="no C compiler on this host")
class TestCompiledEngineParity:
    @pytest.mark.parametrize("ewald", [False, True], ids=["cutoff", "ewald"])
    def test_trajectory_close(self, ewald):
        """20 steps on each backend: forces and energies within 1e-9 at
        every step, while the bits are free to differ."""
        from repro.md.engine import SequentialEngine
        from repro.md.integrator import VelocityVerlet

        runs = {}
        for name in BACKENDS:
            system = small_water_box(30, seed=4, relax=False)
            system.assign_velocities(300.0, seed=4)
            engine = SequentialEngine(
                system,
                NonbondedOptions(cutoff=6.0),
                VelocityVerlet(dt=1.0),
                backend=name,
                ewald=EwaldOptions(cutoff=6.0, kmax=4) if ewald else None,
            )
            assert engine.backend.name == name
            steps = []
            for _ in range(20):
                report = engine.step()
                steps.append((report.total, report.potential, engine._forces.copy()))
            runs[name] = steps
        for (total, potential, forces), (r_total, r_potential, r_forces) in zip(
            runs["c"], runs["numpy"]
        ):
            assert total == pytest.approx(r_total, rel=1e-9, abs=1e-7)
            assert potential == pytest.approx(r_potential, rel=1e-9, abs=1e-7)
            assert _rel_close(forces, r_forces)
