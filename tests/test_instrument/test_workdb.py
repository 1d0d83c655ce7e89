"""WorkDB: EWMA convergence, prior handoff, serialization, adapter."""

import json

import numpy as np
import pytest

from repro.balancer.problem import LBProblem
from repro.instrument import WorkDB, build_lb_problem, derive_proxies


class TestRecording:
    def test_first_sample_sets_ewma_exactly(self):
        db = WorkDB()
        db.record(0, 2.5)
        assert db.tasks[0].ewma == 2.5
        assert db.tasks[0].last == 2.5
        assert db.tasks[0].n_samples == 1

    def test_ewma_converges_on_noisy_samples(self):
        """With stationary noisy samples the EWMA settles near the true mean,
        far closer than single samples scatter."""
        rng = np.random.default_rng(42)
        true_mean, noise = 2.0e-3, 0.5e-3
        db = WorkDB(ewma_alpha=0.3)
        samples = rng.normal(true_mean, noise, size=400)
        for s in samples:
            db.record(7, float(s))
        # steady-state EWMA std is noise * sqrt(a / (2 - a)) ~= 0.42 * noise;
        # 3 sigma of that is well inside 40% of the mean
        assert db.tasks[7].ewma == pytest.approx(true_mean, rel=0.4)
        assert db.tasks[7].window_mean() == pytest.approx(
            np.mean(samples[-8:]), rel=1e-12
        )
        assert db.tasks[7].total == pytest.approx(samples.sum())

    def test_ewma_tracks_a_load_shift(self):
        db = WorkDB(ewma_alpha=0.3)
        for _ in range(20):
            db.record(0, 1.0)
        for _ in range(20):
            db.record(0, 3.0)
        # (1 - 0.3)^20 of the old level is ~0.08%: the shift has been absorbed
        assert db.tasks[0].ewma == pytest.approx(3.0, rel=1e-2)

    def test_window_keeps_last_k_only(self):
        db = WorkDB(window=4)
        for s in range(10):
            db.record(0, float(s))
        assert list(db.tasks[0].window) == [6.0, 7.0, 8.0, 9.0]

    def test_record_many_with_owners(self):
        db = WorkDB()
        db.record_many([0, 1, 2], [0.1, 0.2, 0.3], owners=[1, 1, 0])
        assert db.tasks[0].owner == 1
        assert db.tasks[2].owner == 0
        loads = db.owner_loads(2)
        assert loads[0] == pytest.approx(0.3)
        assert loads[1] == pytest.approx(0.1 + 0.2)

    def test_background_ewma_and_totals(self):
        db = WorkDB(ewma_alpha=0.5)
        db.record_background(1, 2.0)
        db.record_background(1, 4.0)
        assert db.background_array(2)[1] == pytest.approx(3.0)  # 2 + 0.5*(4-2)
        assert db.background_totals() == {1: pytest.approx(6.0)}
        assert db.background_array(2, per_step=False)[1] == pytest.approx(6.0)


class TestPriorHandoff:
    def test_prior_used_before_first_measurement(self):
        db = WorkDB(calibrate_prior=False)
        db.ensure_task(0, prior=5.0)
        assert db.load(0) == 5.0

    def test_blend_weight_grows_linearly_to_one(self):
        """The cost-model prior hands off to measurement over K samples."""
        db = WorkDB(window=8, prior_blend_samples=8, calibrate_prior=False)
        db.ensure_task(0, prior=5.0)
        db.record(0, 1.0)
        # one of eight samples: 1/8 measurement + 7/8 prior
        assert db.load(0) == pytest.approx(1.0 / 8 + 5.0 * 7 / 8)
        for _ in range(7):
            db.record(0, 1.0)
        # after K samples the prior's weight is exactly zero
        assert db.load(0) == pytest.approx(1.0)

    def test_blend_samples_one_replaces_prior_immediately(self):
        """The simulated runtime's semantics: one measured phase fully
        replaces the cost model."""
        db = WorkDB(prior_blend_samples=1, calibrate_prior=False)
        db.ensure_task(0, prior=5.0)
        db.record(0, 1.25)
        assert db.load(0) == 1.25

    def test_prior_calibration_rescales_unmeasured_tasks(self):
        """Cost-model units mix with seconds: unmeasured priors are rescaled
        by the measured/prior ratio of the measured tasks."""
        db = WorkDB()
        db.ensure_task(0, prior=1.0)
        db.ensure_task(1, prior=3.0)
        for _ in range(db.prior_blend_samples):
            db.record(0, 0.5)  # measured at half its prior
        assert db.load(0) == pytest.approx(0.5)
        assert db.load(1) == pytest.approx(3.0 * 0.5)

    def test_measurements_dominate_priors_in_loads_array(self):
        db = WorkDB(window=4, prior_blend_samples=4, calibrate_prior=False)
        db.ensure_task(0, prior=10.0)
        db.ensure_task(1, prior=10.0)
        for _ in range(4):
            db.record(0, 1.0)
        loads = db.loads()
        assert loads[0] == pytest.approx(1.0)
        assert loads[1] == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkDB(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            WorkDB(window=0)
        with pytest.raises(ValueError):
            WorkDB(prior_blend_samples=0)


class TestSerialization:
    def _populated(self):
        db = WorkDB(ewma_alpha=0.25, window=5, prior_blend_samples=3)
        rng = np.random.default_rng(1)
        for tid in range(6):
            db.ensure_task(
                tid, patches=(tid, (tid + 1) % 6), prior=0.5 + tid, owner=tid % 2
            )
        for _ in range(9):
            db.record_many(
                range(6), rng.uniform(1e-4, 5e-4, size=6), owners=[0, 0, 1, 1, 0, 1]
            )
            db.record_background(0, float(rng.uniform(1e-5, 2e-5)))
            db.mark_step()
        db.ensure_task(99, prior=2.0, migratable=False)
        return db

    def test_round_trip_preserves_everything(self):
        db = self._populated()
        clone = WorkDB.from_dict(json.loads(json.dumps(db.to_dict())))
        assert clone.ewma_alpha == db.ewma_alpha
        assert clone.window == db.window
        assert clone.prior_blend_samples == db.prior_blend_samples
        assert clone.measured_steps == db.measured_steps
        assert set(clone.tasks) == set(db.tasks)
        for tid, rec in db.tasks.items():
            got = clone.tasks[tid]
            assert got.patches == rec.patches
            assert got.owner == rec.owner
            assert got.prior == rec.prior
            assert got.migratable == rec.migratable
            assert got.ewma == rec.ewma
            assert got.n_samples == rec.n_samples
            assert got.total == rec.total
            assert list(got.window) == list(rec.window)
        np.testing.assert_array_equal(clone.loads(), db.loads())
        np.testing.assert_array_equal(clone.owner_loads(2), db.owner_loads(2))
        np.testing.assert_array_equal(
            clone.background_array(2), db.background_array(2)
        )

    def test_dump_and_load_file(self, tmp_path):
        db = self._populated()
        path = tmp_path / "workdb.json"
        db.dump(path)
        clone = WorkDB.load_file(path)
        np.testing.assert_array_equal(clone.loads(), db.loads())
        assert clone.measured_steps == db.measured_steps

    def test_reloaded_window_respects_maxlen(self, tmp_path):
        db = self._populated()
        path = tmp_path / "workdb.json"
        db.dump(path)
        clone = WorkDB.load_file(path)
        clone.record(0, 1.0)
        assert len(clone.tasks[0].window) == clone.window

    def test_reset_clears_state(self):
        db = self._populated()
        db.reset()
        assert not db.tasks
        assert db.measured_steps == 0
        assert db.background_totals() == {}


class TestAdapter:
    def _db(self):
        db = WorkDB(calibrate_prior=False)
        db.ensure_task(0, patches=(0,), prior=1.0, owner=0)
        db.ensure_task(1, patches=(0, 1), prior=2.0, owner=1)
        db.ensure_task(2, patches=(1,), prior=3.0, owner=1)
        db.ensure_task(3, patches=(2,), prior=4.0, owner=0, migratable=False)
        return db

    def test_derive_proxies_from_ownership(self):
        db = self._db()
        patch_home = {0: 0, 1: 1, 2: 0}
        # task 1 runs patch 0 on proc 1, away from its home: implied proxy
        assert derive_proxies(db, patch_home) == {(0, 1)}

    def test_build_problem_fields(self):
        db = self._db()
        patch_home = {0: 0, 1: 1, 2: 0}
        problem = build_lb_problem(db, 2, patch_home)
        assert isinstance(problem, LBProblem)
        assert problem.n_procs == 2
        # non-migratable task 3 is not a strategy-visible compute
        assert [c.index for c in problem.computes] == [0, 1, 2]
        assert [c.load for c in problem.computes] == [1.0, 2.0, 3.0]
        assert [c.proc for c in problem.computes] == [0, 1, 1]
        assert problem.patch_home == patch_home
        assert problem.existing_proxies == {(0, 1)}

    def test_build_problem_uses_measured_loads(self):
        db = self._db()
        for _ in range(db.prior_blend_samples):
            db.record(0, 0.25)
        problem = build_lb_problem(db, 2, {0: 0, 1: 1, 2: 0})
        assert problem.computes[0].load == pytest.approx(0.25)

    def test_explicit_proxies_and_background_pass_through(self):
        db = self._db()
        bg = np.array([0.5, 0.25])
        problem = build_lb_problem(
            db, 2, {0: 0, 1: 1}, existing_proxies={(5, 1)}, background=bg
        )
        assert problem.existing_proxies == {(5, 1)}
        np.testing.assert_array_equal(problem.background, bg)

    def test_task_ids_restrict_and_order(self):
        db = self._db()
        problem = build_lb_problem(db, 2, {0: 0, 1: 1}, task_ids=[2, 0])
        assert [c.index for c in problem.computes] == [2, 0]


class TestRobustPersistence:
    """Atomic dumps, corruption handling, and recovery accounting (PR 6)."""

    def _populated(self):
        db = WorkDB()
        db.ensure_task(0, patches=(0,), prior=1.0, owner=0)
        db.record(0, 2e-4)
        return db

    def test_dump_leaves_no_tmp_files(self, tmp_path):
        db = self._populated()
        path = tmp_path / "workdb.json"
        db.dump(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["workdb.json"]

    def test_dump_is_valid_json_after_overwrite(self, tmp_path):
        db = self._populated()
        path = tmp_path / "workdb.json"
        db.dump(path)
        db.record(0, 9e-4)
        db.dump(path)
        clone = WorkDB.load_file(path)
        assert clone.tasks[0].n_samples == db.tasks[0].n_samples

    def test_load_truncated_file_raises_valueerror(self, tmp_path):
        db = self._populated()
        path = tmp_path / "workdb.json"
        db.dump(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="corrupt WorkDB dump"):
            WorkDB.load_file(path)

    def test_load_non_dict_json_raises_valueerror(self, tmp_path):
        path = tmp_path / "workdb.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="corrupt WorkDB dump"):
            WorkDB.load_file(path)

    def test_load_missing_file_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            WorkDB.load_file(tmp_path / "nope.json")

    def test_note_recovery_accumulates(self):
        db = WorkDB()
        db.note_recovery("kills")
        db.note_recovery("kills")
        db.note_recovery("reassigned", 17)
        assert db.recovery == {"kills": 2, "reassigned": 17}

    def test_recovery_round_trips_through_dump(self, tmp_path):
        db = self._populated()
        db.note_recovery("respawns")
        path = tmp_path / "workdb.json"
        db.dump(path)
        clone = WorkDB.load_file(path)
        assert clone.recovery == {"respawns": 1}

    def test_old_dumps_without_recovery_still_load(self):
        db = self._populated()
        payload = db.to_dict()
        del payload["recovery"]
        clone = WorkDB.from_dict(json.loads(json.dumps(payload)))
        assert clone.recovery == {}

    def test_reset_clears_recovery(self):
        db = self._populated()
        db.note_recovery("hangs")
        db.reset()
        assert db.recovery == {}


class TestBackendField:
    """Kernel-backend provenance: samples from different backends never blend."""

    def _measured(self) -> WorkDB:
        db = WorkDB()
        db.ensure_task(0, patches=(0,), prior=2.0, owner=0)
        db.ensure_task(1, patches=(1,), prior=3.0, owner=1)
        db.set_backend("numpy")
        db.note_worker_backend(0, "numpy")
        db.record(0, 0.5)
        db.record(1, 0.7)
        db.mark_step()
        return db

    def test_set_backend_records_name(self):
        db = WorkDB()
        assert db.backend is None
        db.set_backend("numpy")
        assert db.backend == "numpy"

    def test_same_backend_keeps_measurements(self):
        db = self._measured()
        db.set_backend("numpy")
        assert db.tasks[0].n_samples == 1
        assert db.measured_steps == 1

    def test_backend_switch_resets_measurements_keeps_priors(self):
        db = self._measured()
        db.set_backend("other")
        assert db.backend == "other"
        # measurement state gone (another backend's sample is not a numpy sample)
        assert db.tasks[0].n_samples == 0
        assert db.tasks[0].ewma == 0.0
        assert db.tasks[0].total == 0.0
        assert len(db.tasks[0].window) == 0
        assert db.measured_steps == 0
        # structural state survives: priors, affinity, ownership
        assert db.tasks[0].prior == 2.0
        assert db.tasks[0].patches == (0,)
        assert db.tasks[1].owner == 1
        # stale worker annotations from the other backend are dropped
        assert db.worker_backends == {}

    def test_switch_without_measurements_is_free(self):
        db = WorkDB()
        db.ensure_task(0, prior=1.0)
        db.set_backend("numpy")
        db.set_backend("other")  # nothing measured: nothing to drop
        assert db.backend == "other"
        assert db.tasks[0].prior == 1.0

    def test_roundtrip_through_dict(self):
        db = self._measured()
        clone = WorkDB.from_dict(json.loads(json.dumps(db.to_dict())))
        assert clone.backend == "numpy"
        assert clone.worker_backends == {0: "numpy"}

    def test_legacy_dumps_without_backend_still_load(self):
        db = self._measured()
        payload = db.to_dict()
        del payload["backend"]
        del payload["worker_backends"]
        clone = WorkDB.from_dict(json.loads(json.dumps(payload)))
        assert clone.backend is None
        assert clone.worker_backends == {}

    def test_reset_clears_backend(self):
        db = self._measured()
        db.reset()
        assert db.backend is None
        assert db.worker_backends == {}


class TestTaskKinds:
    """The kind field: per-kind load report, fixed-owner background, and
    serialization round-trip."""

    def test_kind_defaults_to_cell(self):
        db = WorkDB()
        db.ensure_task(0, prior=1.0)
        assert db.tasks[0].kind == "cell"

    def test_kind_loads_sum_per_kind(self):
        db = WorkDB()
        db.ensure_task(0, prior=1.0, kind="cell")
        db.ensure_task(1, prior=2.0, kind="bonded")
        db.ensure_task(2, prior=3.0, kind="bonded")
        db.ensure_task(3, prior=4.0, kind="kspace")
        loads = db.kind_loads()
        assert loads["cell"] == pytest.approx(1.0)
        assert loads["bonded"] == pytest.approx(5.0)
        assert loads["kspace"] == pytest.approx(4.0)

    def test_fixed_owner_loads_counts_only_pinned_tasks(self):
        db = WorkDB()
        db.ensure_task(0, prior=1.0, owner=0, migratable=True, kind="cell")
        db.ensure_task(1, prior=2.0, owner=1, migratable=False, kind="bonded")
        db.ensure_task(2, prior=3.0, owner=1, migratable=False, kind="bonded")
        db.ensure_task(3, prior=4.0, owner=5, migratable=False)  # out of range
        bg = db.fixed_owner_loads(2)
        assert bg.shape == (2,)
        assert bg[0] == 0.0  # task 0 is migratable
        assert bg[1] == pytest.approx(5.0)

    def test_kind_round_trips_through_dump(self):
        db = WorkDB()
        db.ensure_task(0, prior=1.0, kind="kspace")
        db.ensure_task(1, prior=2.0, kind="bonded", migratable=False, owner=1)
        clone = WorkDB.from_dict(db.to_dict())
        assert clone.tasks[0].kind == "kspace"
        assert clone.tasks[1].kind == "bonded"
        assert clone.tasks[1].migratable is False
