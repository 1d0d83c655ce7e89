"""Bonded and Ewald k-space force tasks.

Bonded term groups and the shards of the Ewald reciprocal sum are force
tasks of every engine.  Coverage here: agreement with the reference
functions under full electrostatics at several worker counts (1e-9; see
``oracle.py``), the sequential engine's bits on a pool, bit-identical
repeats and worker-count invariance, bit-identical
recovery after a mid-run worker kill (respawn and reassignment rungs), and
bit-identical resume from a run checkpoint — plus unit tests for the task
decomposition helpers and the ``make_engine`` keyword normalization.
"""

import warnings

import numpy as np
import pytest

from repro.builder import small_water_box
from repro.md.bonded import BONDED_KINDS, bonded_term_arrays
from repro.md.engine import SequentialEngine, make_engine
from repro.md.ewald import EwaldOptions, _kspace_tables, compute_ewald
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine
from repro.md.tasks import kspace_shards as _kspace_shards
from repro.md.tasks import xtask_rows as _xtask_rows
from repro.pool import RecoveryPolicy

from .oracle import assert_matches_reference

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
    """Bonded + k-space tasks against the reference functions at 1e-9,
    and a pool against the engine without workers."""

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
        k-space shards through the same reduction: bits, not 1e-9."""
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
    """Unit coverage for the shard and bonded-group helpers."""

    def test_kspace_shards_cover_exactly(self):
        for nk in (0, 1, 127, 128, 129, 4096, 100000):
            shards = _kspace_shards(nk)
            if nk == 0:
                assert shards == []
                continue
            assert shards[0][1] == 0 and shards[-1][2] == nk
            for (_, lo, hi), (_, lo2, _hi2) in zip(shards, shards[1:]):
                assert hi == lo2
            assert all(hi > lo for _, lo, hi in shards)
            assert len(shards) <= 8

    def test_shard_sum_matches_full_reciprocal(self):
        from repro.backend import get_backend
        from repro.md.constants import COULOMB_CONSTANT

        s = fresh_water()
        be = get_backend("numpy")
        alpha = EWALD.alpha_value()
        k_tab, _k2, ak, _m = _kspace_tables(s.box, EWALD.kmax, alpha)
        pref = COULOMB_CONSTANT * 2.0 * np.pi / float(np.prod(s.box))

        f_full = np.zeros((s.n_atoms, 3))
        e_full = be.ewald_recip(s.positions, s.charges, k_tab, ak, pref, f_full)

        e_sum, f_sum = 0.0, np.zeros((s.n_atoms, 3))
        for _, lo, hi in _kspace_shards(len(k_tab)):
            block = np.zeros((s.n_atoms, 3))
            e_sum += be.ewald_recip_shard(
                s.positions, s.charges, k_tab[lo:hi], ak[lo:hi], pref, block
            )
            f_sum += block
        assert e_sum == pytest.approx(e_full, rel=1e-12)
        assert np.allclose(f_sum, f_full, rtol=1e-12, atol=1e-12)

    def test_static_prior_balances_an_ewald_water_box(self):
        """With the default ``rebalance_every=0`` the priors' contiguous
        partition is all the balancing a run gets: on the harness's Ewald
        row (343 waters, kmax 4, 2 workers) it must be able to balance —
        whichever of the cell tasks and the three shards is the larger half
        on the backend at hand.  Deterministic — priors only, no timing."""
        from repro.md.tasks import build_force_tasks
        from repro.pool import contiguous_partition

        spec = build_force_tasks(
            fresh_water(343, seed=41), NonbondedOptions(cutoff=8.0), skin=1.5,
            n_workers=2, bonded=True,
            ewald=EwaldOptions(cutoff=8.0, kmax=4),
        )
        costs = spec.all_costs
        cells = float(spec.sub_cost_arr.sum())
        bonded = sum(costs[t] for ids in spec.bonded_ids.values() for t in ids)
        shards = costs[spec.kspace_ids]
        assert len(shards) >= 2
        assert 0 < bonded < 0.15 * cells
        bounds = contiguous_partition(costs, 2)
        loads = np.add.reduceat(costs, bounds[:-1])
        assert loads.max() / loads.mean() <= 1.25

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
                s, NonbondedOptions(cutoff=8.0), skin=1.5, n_workers=n, bonded=True
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
            [("kspace", 0, 10)], {}, np.zeros(s.n_atoms, np.int64), s.n_atoms
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
        from repro.md.mts import MTSEngine

        shared = dict(options=OPTS, backend="numpy", ewald=EWALD)
        s = fresh_water()
        seq = SequentialEngine(s.copy(), **{
            "options" if k == "options" else k: v for k, v in shared.items()
        })
        assert seq.ewald is EWALD
        mts = MTSEngine(s.copy(), **shared)
        assert mts.ewald is EWALD
        with ParallelEngine(s.copy(), workers=2, **shared) as par:
            assert par.ewald is EWALD


class TestMTSEwald:
    def test_slow_component_includes_full_ewald(self):
        from repro.md.mts import MTSEngine

        s = fresh_water()
        ref = compute_ewald(s.copy(), EWALD).energy
        eng = MTSEngine(s, options=OPTS, ewald=EWALD, n_inner=2)
        e_lj, e_el, _f = eng._slow()
        assert e_el == pytest.approx(ref, rel=1e-9)

    def test_external_evaluator_wins_over_ewald(self):
        from repro.md.mts import MTSEngine

        class Dummy:
            def compute(self):  # pragma: no cover - never called here
                raise AssertionError

        eng = MTSEngine(fresh_water(), nonbonded=Dummy(), ewald=EWALD)
        assert eng.ewald is None


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
            # three evaluations, one table lookup per shard each
            n_shards = len(eng._nb._kspace_ids)
            assert stats["builds"] + stats["hits"] == 3 * n_shards
            assert set(stats["workers"]) == set(range(eng.workers))
            for key in ("builds", "hits"):
                assert stats[key] == sum(w[key] for w in stats["workers"].values())
            eng.clear_kspace_cache()
            cleared = eng.kspace_cache_stats()
            assert cleared["builds"] == 0
            assert cleared["hits"] == 0
