"""Bonded and Ewald reciprocal force tasks.

Bonded term groups and the Ewald reciprocal sum (one smooth-PME task) are
force tasks of every engine.  Coverage here: the task decomposition
helpers, the ``make_engine`` keyword normalization, multiple time stepping
(the PME task every ``recip_every`` steps: its validation and NVE drift)
and the driver's accounting.  The tasks' bits on every executor, and
their agreement with the oracle, are held in ``test_conformance.py``.
"""

import numpy as np
import pytest

from repro.builder import small_water_box
from repro.md.bonded import BONDED_KINDS, bonded_term_arrays
from repro.md.engine import SequentialEngine, make_engine
from repro.md.ewald import EwaldOptions, _pme_influence
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine
from repro.md.tasks import xtask_rows as _xtask_rows
from repro.pool import RecoveryPolicy
from tests.test_md.oracle import assert_matches_reference

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

OPTS = NonbondedOptions(cutoff=6.0)
EWALD = EwaldOptions(cutoff=6.0, kmax=4)


def fresh_water(n=64, seed=3):
    s = small_water_box(n, seed=seed, relax=False)
    s.assign_velocities(300.0, seed=5)
    return s


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
        most — whatever the worker count."""
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

    def test_negative_workers_are_refused(self):
        """Only 0 means one worker per CPU."""
        with pytest.raises(ValueError, match="n_workers must be >= 0"):
            make_engine(fresh_water(), OPTS, workers=-2)

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

    @pytest.mark.parametrize("bad", [0, -2, 1.5, 2.0, "2", True, None])
    def test_recip_every_is_an_integer_of_at_least_one(self, bad):
        with pytest.raises(ValueError, match="recip_every"):
            EwaldOptions(recip_every=bad)

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


class TestInfluenceTable:
    """The evaluator that runs the PME task owns its influence table: built
    on its first evaluation, reused while the box holds, rebuilt when the
    step's box is another."""

    def test_built_once_while_the_box_holds(self):
        with ParallelEngine(
            fresh_water(), OPTS, workers=2, ewald=EWALD
        ) as eng:
            eng.run(2)  # three evaluations
            assert eng.parallel and len(eng._nb._kspace_ids) == 1
            assert eng.kspace_cache_stats() == {"builds": 1, "hits": 2}

    @pytest.mark.parametrize("change", ["in-place", "assigned"])
    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_a_new_box_gets_a_new_table(self, executor, change):
        """The reciprocal task's energy is PME's at the new box, to the bit,
        and the forces the oracle's there."""
        system = fresh_water()
        kwargs = {"recovery": RecoveryPolicy()} if executor == "processes" else {}
        with ParallelEngine(system, OPTS, workers=2, ewald=EWALD, **kwargs) as eng:
            assert eng.parallel
            assert_matches_reference(eng)
            if change == "in-place":
                system.box *= 1.05
            else:
                system.box = system.box * 1.05
            assert_matches_reference(eng)
            assert eng.kspace_cache_stats() == {"builds": 2, "hits": 0}
