"""Bonded and Ewald reciprocal force tasks.

Bonded term groups and the Ewald reciprocal sum (one smooth-PME task) are
force tasks of every engine.  Coverage here: agreement with the reference
functions under full electrostatics at several worker counts (1e-9, the
PME part at its own bound; see ``oracle.py``), the sequential engine's bits
on a pool, bit-identical
repeats and worker-count invariance, bit-identical
recovery after a mid-run worker kill (respawn and reassignment rungs),
bit-identical resume from a run checkpoint, and multiple time stepping
(the PME task every ``recip_every`` steps: the impulse against the oracle,
the same invariants mid-cycle, NVE drift) — plus unit tests for the task
decomposition helpers and the ``make_engine`` keyword normalization.
"""

import warnings

import numpy as np
import pytest

from repro.builder import small_water_box
from repro.md.bonded import BONDED_KINDS, bonded_term_arrays
from repro.md.engine import SequentialEngine, make_engine
from repro.md.ewald import EwaldOptions, _pme_influence, pme_reciprocal
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine
from repro.md.tasks import xtask_rows as _xtask_rows
from repro.pool import RecoveryPolicy

from .oracle import assert_matches_reference, assert_pme_matches_classic

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

OPTS = NonbondedOptions(cutoff=6.0)
EWALD = EwaldOptions(cutoff=6.0, kmax=4)


def fresh_water(n=64, seed=3):
    s = small_water_box(n, seed=seed, relax=False)
    s.assign_velocities(300.0, seed=5)
    return s


def run_trajectory(engine, n_steps=3):
    with engine:
        reports = engine.run(n_steps)
    return engine.system.positions.copy(), reports[-1]


class TestCrossEngineAgreement:
    """Bonded + reciprocal tasks against the reference functions, and a
    pool against the engine without workers."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_forces_and_energies_with_ewald(self, workers):
        with ParallelEngine(
            fresh_water(), OPTS, workers=workers, ewald=EWALD
        ) as eng:
            assert eng.parallel
            assert_matches_reference(eng)

    def test_all_bonded_kinds_on_the_assembly(self, assembly):
        """Dihedrals and impropers (present in the protein) are groups too."""
        with ParallelEngine(
            assembly.copy(), NonbondedOptions(cutoff=8.0), workers=3
        ) as eng:
            assert eng.parallel
            assert_matches_reference(eng)
            assert eng.report().bonded.dihedral != 0.0  # the case has them

    def test_trajectory_tracks_sequential(self):
        """The engine without workers runs the same bonded groups and
        reciprocal task through the same reduction: bits, not 1e-9."""
        p_seq, r_seq = run_trajectory(
            SequentialEngine(fresh_water(), OPTS, skin=0.0, ewald=EWALD)
        )
        p_par, r_par = run_trajectory(
            ParallelEngine(
                fresh_water(), OPTS, workers=2, skin=0.0, ewald=EWALD
            )
        )
        assert np.array_equal(p_par, p_seq)
        assert r_par.total == r_seq.total


class TestDeterminism:
    def _run(self, **kw):
        eng = ParallelEngine(
            fresh_water(), OPTS, ewald=EWALD, **kw
        )
        return run_trajectory(eng, n_steps=4)[0]

    def test_repeats_are_bit_identical(self):
        a = self._run(workers=2)
        b = self._run(workers=2)
        np.testing.assert_array_equal(a, b)

    def test_worker_count_does_not_change_bits(self):
        """Task structure derives from topology/grid/kmax only, so the
        task-ordered reduction gives identical bits at any pool size."""
        a = self._run(workers=2)
        b = self._run(workers=3)
        c = self._run(workers=4)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_rebalance_remaps_do_not_change_bits(self):
        a = self._run(workers=3)
        b = self._run(workers=3, rebalance_every=2)
        np.testing.assert_array_equal(a, b)


class TestRecovery:
    def _run(self, **kw):
        eng = ParallelEngine(
            fresh_water(), OPTS, workers=3, ewald=EWALD, **kw
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pos, _ = run_trajectory(eng, n_steps=5)
        return pos, eng.resilience

    def test_respawn_after_kill_is_bit_identical(self):
        clean, _ = self._run()
        faulted, res = self._run(fault_plan="kill=1@2")
        assert res.respawns >= 1
        np.testing.assert_array_equal(faulted, clean)

    def test_reassignment_after_kill_is_bit_identical(self):
        """With respawn disabled, orphaned cell/bonded/kspace tasks are
        redistributed to survivors and the trajectory keeps its bits."""
        clean, _ = self._run()
        faulted, res = self._run(
            fault_plan="kill=1@2", recovery=RecoveryPolicy(max_respawns=0)
        )
        assert res.tasks_reassigned >= 1
        assert sum(res.reassigned_by_kind.values()) == res.tasks_reassigned
        assert set(res.reassigned_by_kind) <= {"cell", "bonded", "kspace"}
        assert "reassigned_by_kind" in res.to_dict()
        np.testing.assert_array_equal(faulted, clean)


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, tmp_path):
        from repro.runtime.checkpoint import (
            load_run_checkpoint,
            restore_run_checkpoint,
        )

        path = tmp_path / "dist.ckpt"
        s_a = fresh_water()
        with ParallelEngine(
            s_a, OPTS, workers=2, ewald=EWALD,
            checkpoint_every=3, checkpoint_path=path,
        ) as eng:
            for _ in range(5):
                rep_a = eng.step()
            assert eng.n_checkpoints == 1

        cp = load_run_checkpoint(path)
        assert cp.step == 3
        s_b = fresh_water()
        with ParallelEngine(
            s_b, OPTS, workers=2, ewald=EWALD
        ) as eng:
            restore_run_checkpoint(eng, cp)
            for _ in range(2):
                rep_b = eng.step()
        np.testing.assert_array_equal(s_b.positions, s_a.positions)
        np.testing.assert_array_equal(s_b.velocities, s_a.velocities)
        assert rep_b.total == rep_a.total


class TestTaskDecomposition:
    """Unit coverage for the reciprocal-task and bonded-group helpers."""

    @pytest.mark.parametrize("kmax", range(9))
    def test_reciprocal_task_covers_the_classic_kset_exactly(self, kmax):
        """One task under Ewald (none at kmax 0), whose influence function
        is nonzero on exactly the classic sum's k-vectors: ``|m_d| <= kmax``
        but the origin, each ``±m`` pair once in the real FFT's half."""
        from repro.md.tasks import build_force_tasks

        s = fresh_water()
        ewald = EwaldOptions(cutoff=6.0, kmax=kmax)
        spec = build_force_tasks(s, OPTS, skin=1.5, n_workers=2, ewald=ewald)
        kspace = [xt for xt in spec.provider.xtasks if xt[0] == "kspace"]
        assert len(kspace) == len(spec.kspace_ids) == (kmax > 0)
        if kmax == 0:
            return
        influence, shape = _pme_influence(s.box, kmax, ewald.alpha_value())
        assert influence.shape == (shape[0], shape[1], shape[2] // 2 + 1)
        m = [np.fft.fftfreq(k, 1.0 / k).round().astype(int) for k in shape]
        mz = np.arange(shape[2] // 2 + 1)
        kept = np.argwhere(influence != 0.0)
        triplets = np.stack([m[0][kept[:, 0]], m[1][kept[:, 1]], mz[kept[:, 2]]], 1)
        assert np.abs(triplets).max() <= kmax
        # the half space: mz > 0 stands for ±m, mz = 0 lists both signs
        on_plane = triplets[:, 2] == 0
        assert 2 * np.count_nonzero(~on_plane) + np.count_nonzero(on_plane) == (
            (2 * kmax + 1) ** 3 - 1
        )
        assert np.all(influence[kept[:, 0], kept[:, 1], kept[:, 2]] > 0)

    def test_reciprocal_task_is_pme_at_the_oracle_bound(self):
        """What the task writes is ``pme_reciprocal`` bit for bit (whoever
        runs it), and that is the classic sum at the PME bound."""
        from repro.backend import get_backend

        s = fresh_water()
        with ParallelEngine(s, OPTS, workers=2, ewald=EWALD) as eng:
            assert eng.parallel
            eng.compute_forces()
            energy = eng._nb.last_ewald.energy_recip
        be = get_backend()
        forces = np.zeros((s.n_atoms, 3))
        e_pme, _ = pme_reciprocal(s.positions, s.charges, s.box, EWALD, forces, be)
        assert energy == e_pme
        assert_pme_matches_classic(s, EWALD, e_pme, forces, be)

    def test_static_prior_balances_an_ewald_water_box(self):
        """With the default ``rebalance_every=0`` the priors' contiguous
        partition is all the balancing a run gets: on the harness's Ewald
        row (343 waters, kmax 4, 2 workers) both workers must own cell
        tasks — the reciprocal task shares its worker with some — and the
        loads must be within 20 % of each other, on the backend at hand.
        Deterministic — priors only, no timing."""
        from repro.md.tasks import build_force_tasks
        from repro.pool import contiguous_partition

        spec = build_force_tasks(
            fresh_water(343, seed=41), NonbondedOptions(cutoff=8.0), skin=1.5,
            n_workers=2, ewald=EwaldOptions(cutoff=8.0, kmax=4),
        )
        costs = spec.all_costs
        cells = float(spec.sub_cost_arr.sum())
        bonded = sum(costs[t] for ids in spec.bonded_ids.values() for t in ids)
        (recip,) = costs[spec.kspace_ids]
        assert 0.2 * cells < recip < cells
        assert 0 < bonded < 0.15 * cells
        bounds = contiguous_partition(costs, 2)
        assert 0 < bounds[1] < len(spec.sub_cost_arr)  # cells on both sides
        loads = np.add.reduceat(costs, bounds[:-1])
        assert loads.max() / loads.min() <= 1.2

    def test_bonded_groups_partition_every_term(self):
        """(kind, cell, intra) groups are disjoint and exhaustive under any
        atom->cell map, so no term is dropped or double-counted."""
        s = fresh_water()
        rng = np.random.default_rng(0)
        n_cells = 8
        flat = rng.integers(0, n_cells, s.n_atoms).astype(np.int64)
        term_data = {
            kind: bonded_term_arrays(s, kind)
            for kind in range(len(BONDED_KINDS))
            if len(bonded_term_arrays(s, kind)[0])
        }
        for kind, (idx, *_rest) in term_data.items():
            xtasks = [
                ("bonded", kind, cell, intra)
                for cell in range(n_cells)
                for intra in (1, 0)
            ]
            sels, _rows = _xtask_rows(xtasks, term_data, flat, s.n_atoms)
            combined = np.concatenate([sel for sel in sels])
            assert len(combined) == len(idx)
            np.testing.assert_array_equal(np.sort(combined), np.arange(len(idx)))

    @pytest.mark.parametrize("target, runs", [(2048, 1), (300, 3), (1, 8)])
    def test_bonded_groups_span_runs_of_cells(self, monkeypatch, target, runs):
        """A group carries about ``BONDED_GROUP_TERMS`` terms of the largest
        kind: one run of all cells on a small system, one run a cell at
        most — whatever the worker count, and the forces do not care."""
        import repro.md.tasks as tasks

        monkeypatch.setattr(tasks, "BONDED_GROUP_TERMS", target)
        s = fresh_water(500, seed=11)  # 1000 bonds over 2 x 2 x 2 cells
        specs = [
            tasks.build_force_tasks(
                s, NonbondedOptions(cutoff=8.0), skin=1.5, n_workers=n
            )
            for n in (1, 3)
        ]
        assert specs[0].provider.xtasks == specs[1].provider.xtasks
        assert specs[0].provider.dims == (2, 2, 2)
        cells = sorted({xt[2] for xt in specs[0].provider.xtasks})
        assert cells == list(range(runs))
        with ParallelEngine(s, NonbondedOptions(cutoff=8.0), workers=2) as eng:
            assert eng.parallel
            assert_matches_reference(eng)

    def test_kspace_rows_span_all_atoms(self):
        s = fresh_water()
        sels, rows = _xtask_rows(
            [("kspace",)], {}, np.zeros(s.n_atoms, np.int64), s.n_atoms
        )
        assert sels == [None]
        np.testing.assert_array_equal(rows[0], np.arange(s.n_atoms))


class TestEngineFactory:
    """make_engine keyword normalization (no silently dropped kwargs)."""

    def test_sequential_honours_skin(self):
        s = fresh_water()
        eng = make_engine(s, OPTS, workers=1, skin=2.5)
        assert eng.pairlist.skin == 2.5
        eng = make_engine(s, OPTS, workers=1, skin=0.0)
        assert eng.pairlist.skin == 0.0

    def test_sequential_accepts_checkpoint_kwargs(self, tmp_path):
        s = fresh_water()
        path = tmp_path / "seq.ckpt"
        eng = make_engine(
            s, OPTS, workers=1, checkpoint_every=2, checkpoint_path=path
        )
        assert eng.checkpoint_every == 2 and eng.checkpoint_path == path

    def test_sequential_rejects_parallel_only_kwargs(self):
        s = fresh_water()
        with pytest.raises(TypeError, match="timeout"):
            make_engine(s, OPTS, workers=1, timeout=5.0)
        with pytest.raises(TypeError, match="grainsize_ms"):
            make_engine(s, OPTS, workers=1, grainsize_ms=1.0)

    def test_ewald_accepted_on_both_paths(self):
        seq = make_engine(fresh_water(), OPTS, workers=1, ewald=EWALD)
        assert isinstance(seq, SequentialEngine) and seq.ewald is EWALD
        # distribute= is what the perf harness still passes: no effect
        with make_engine(
            fresh_water(), OPTS, workers=2, ewald=EWALD, distribute=False
        ) as par:
            assert isinstance(par, ParallelEngine)
            assert par.ewald is EWALD and not hasattr(par, "distribute")
            assert len(par._nb._kspace_ids) > 0

    def test_constructor_parity_across_engines(self):
        """Every engine entry point accepts the shared configuration
        surface (options, backend, ewald) without engine-specific spelling."""
        shared = dict(options=OPTS, backend="numpy", ewald=EWALD)
        s = fresh_water()
        seq = SequentialEngine(s.copy(), **shared)
        assert seq.ewald is EWALD
        with ParallelEngine(s.copy(), workers=2, **shared) as par:
            assert par.ewald is EWALD


class TestMultipleTimeStepping:
    """``EwaldOptions.recip_every = n``: the reciprocal task on the steps
    whose index is a multiple of ``n``, its forces ``n``-fold there (the
    r-RESPA impulse); cell tasks and bonded groups every step."""

    EWALD_MTS = EwaldOptions(cutoff=6.0, kmax=4, recip_every=2)

    @pytest.mark.parametrize("bad", [0, -2, 1.5, 2.0, "2", True, None])
    def test_recip_every_is_an_integer_of_at_least_one(self, bad):
        with pytest.raises(ValueError, match="recip_every"):
            EwaldOptions(recip_every=bad)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outer_steps_carry_the_impulse_inner_steps_no_pme(self, workers):
        """Outer forces minus ``n ×`` the PME part and inner forces as they
        are both match the oracle at 1e-9; an inner step reports the last
        outer step's reciprocal energy; the task looks its table up on
        outer evaluations only (steps 0, 3 and 6 of 0-7)."""
        n = 3
        ewald = EwaldOptions(cutoff=6.0, kmax=4, recip_every=n)
        e_outer = None
        with make_engine(fresh_water(), OPTS, workers=workers, ewald=ewald) as eng:
            assert eng.parallel == (workers > 1)
            for _ in range(7):
                eng.step()
                weight = 0 if eng.current_step % n else n
                assert_matches_reference(eng, eng._forces, weight)
                e_recip = eng._nb.last_ewald.energy_recip
                if weight:
                    e_outer = e_recip
                elif e_outer is not None:
                    assert e_recip == e_outer
            stats = eng.kspace_cache_stats()
        assert stats["builds"] + stats["hits"] == 3

    def _trajectory(self, n_steps=5, **kw):
        eng = make_engine(fresh_water(), OPTS, ewald=self.EWALD_MTS, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pos, report = run_trajectory(eng, n_steps)
        return pos, report, eng

    @pytest.mark.parametrize(
        "kw",
        [
            dict(workers=2),
            dict(workers=3, rebalance_every=2),
            dict(workers=3, fault_plan="kill=1@2"),
        ],
        ids=["workers2", "remap", "respawn"],
    )
    def test_trajectory_bits_do_not_depend_on_the_executor(self, kw):
        """The weight travels in the step payload every executor gets —
        a respawned worker's re-sent one included."""
        ref, ref_report, _ = self._trajectory(workers=1)
        pos, report, eng = self._trajectory(**kw)
        np.testing.assert_array_equal(pos, ref)
        assert report.total == ref_report.total
        if "fault_plan" in kw:
            assert eng.resilience.respawns >= 1
        if "rebalance_every" in kw:
            assert eng._nb.n_rebalances >= 1

    @pytest.mark.parametrize("n, every, n_steps", [(2, 3, 5), (4, 5, 7)])
    def test_resume_mid_cycle_is_bit_identical(self, tmp_path, n, every, n_steps):
        """A checkpoint between two reciprocal evaluations: its forces hold
        no PME part, as the run's did, and its reciprocal energy is what
        the resumed run's inner steps report (steps 6 and 7 at n = 4)."""
        from repro.runtime.checkpoint import load_run_checkpoint, restore_run_checkpoint

        ewald = EwaldOptions(cutoff=6.0, kmax=4, recip_every=n)
        path = tmp_path / "mts.ckpt"
        s_a = fresh_water()
        with ParallelEngine(
            s_a, OPTS, workers=2, ewald=ewald,
            checkpoint_every=every, checkpoint_path=path,
        ) as eng:
            rep_a = eng.run(n_steps)
        cp = load_run_checkpoint(path)
        assert cp.step == every and cp.step % n
        s_b = fresh_water()
        with ParallelEngine(s_b, OPTS, workers=2, ewald=ewald) as eng:
            restore_run_checkpoint(eng, cp)
            rep_b = eng.run(n_steps - every)
        np.testing.assert_array_equal(s_b.positions, s_a.positions)
        np.testing.assert_array_equal(s_b.velocities, s_a.velocities)
        assert [r.total for r in rep_b] == [r.total for r in rep_a[every:]]

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_nve_drift_bound(self, n):
        """Bound stated before measuring: 216 waters at 300 K, cutoff 6 Å,
        Ewald kmax 4, dt 0.5 fs, 200 steps — max |E − E0| / |E0| < 5e-3
        over the totals of the outer steps."""
        system = small_water_box(216, seed=3)
        system.assign_velocities(300.0, seed=3)
        ewald = EwaldOptions(cutoff=6.0, kmax=4, recip_every=n)
        with SequentialEngine(
            system, NonbondedOptions(cutoff=6.0), VelocityVerlet(dt=0.5),
            ewald=ewald,
        ) as eng:
            totals = [r.total for r in eng.run(200) if r.step % n == 0]
        drift = np.abs(np.array(totals) - totals[0]) / abs(totals[0])
        assert len(totals) == 200 // n
        assert drift.max() < 5e-3, f"max relative drift {drift.max():.2e}"


class TestDriverShareInstrumentation:
    def test_driver_report_accumulates(self):
        with ParallelEngine(
            fresh_water(), OPTS, workers=2, ewald=EWALD
        ) as eng:
            eng.run(2)
            rep = eng.driver_report()
        assert rep["n_evals"] >= 2
        assert 0.0 <= rep["driver_share"] <= 1.0
        assert rep["wall_s"] > 0.0

    def test_kspace_cache_stats_aggregate_workers(self):
        with ParallelEngine(
            fresh_water(), OPTS, workers=2, ewald=EWALD
        ) as eng:
            eng.run(2)
            stats = eng.kspace_cache_stats()
            # three evaluations, one table lookup each
            assert len(eng._nb._kspace_ids) == 1
            assert stats["builds"] + stats["hits"] == 3
            assert set(stats["workers"]) == set(range(eng.workers))
            for key in ("builds", "hits"):
                assert stats[key] == sum(w[key] for w in stats["workers"].values())
            eng.clear_kspace_cache()
            cleared = eng.kspace_cache_stats()
            assert cleared["builds"] == 0
            assert cleared["hits"] == 0
