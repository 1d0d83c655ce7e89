"""WorkDB: EWMA convergence, prior handoff, serialization, adapter."""

import json

import numpy as np
import pytest

from repro.balancer.problem import LBProblem
from repro.instrument import WorkDB, build_lb_problem, derive_proxies
from repro.instrument.workdb import WINDOW


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
        db = WorkDB()
        samples = rng.normal(true_mean, noise, size=400)
        for s in samples:
            db.record(7, float(s))
        # at a = 0.3 the steady-state EWMA std is noise * sqrt(a / (2 - a))
        # ~= 0.42 * noise; 3 sigma of that is well inside 40% of the mean
        assert db.tasks[7].ewma == pytest.approx(true_mean, rel=0.4)
        assert db.tasks[7].window_mean() == pytest.approx(
            np.mean(samples[-8:]), rel=1e-12
        )
        assert db.tasks[7].total == pytest.approx(samples.sum())

    def test_ewma_tracks_a_load_shift(self):
        db = WorkDB()
        for _ in range(20):
            db.record(0, 1.0)
        for _ in range(20):
            db.record(0, 3.0)
        # (1 - 0.3)^20 of the old level is ~0.08%: the shift has been absorbed
        assert db.tasks[0].ewma == pytest.approx(3.0, rel=1e-2)

    def test_window_keeps_last_k_only(self):
        db = WorkDB()
        for s in range(WINDOW + 2):
            db.record(0, float(s))
        assert list(db.tasks[0].window) == [float(s) for s in range(2, WINDOW + 2)]

    def test_record_many_with_owners(self):
        db = WorkDB()
        db.record_many([0, 1, 2], [0.1, 0.2, 0.3], owners=[1, 1, 0])
        assert db.tasks[0].owner == 1
        assert db.tasks[2].owner == 0
        loads = db.owner_loads(2)
        assert loads[0] == pytest.approx(0.3)
        assert loads[1] == pytest.approx(0.1 + 0.2)


class TestPriorHandoff:
    def test_prior_used_before_first_measurement(self):
        db = WorkDB()
        db.ensure_task(0, prior=5.0)
        assert db.load(0) == 5.0

    def test_blend_weight_grows_linearly_to_one(self):
        """The cost-model prior hands off to measurement over K samples
        (the prior taken at face value: ``prior_scale=1``)."""
        db = WorkDB()
        db.ensure_task(0, prior=5.0)
        db.record(0, 1.0)
        # one of K samples: 1/K measurement + (K-1)/K prior
        assert db.load(0, 1.0) == pytest.approx(
            1.0 / WINDOW + 5.0 * (WINDOW - 1) / WINDOW
        )
        for _ in range(WINDOW - 1):
            db.record(0, 1.0)
        # after K samples the prior's weight is exactly zero
        assert db.load(0, 1.0) == 1.0

    def test_prior_calibration_rescales_unmeasured_tasks(self):
        """Cost-model units mix with seconds: unmeasured priors are rescaled
        by the measured/prior ratio of the measured tasks."""
        db = WorkDB()
        db.ensure_task(0, prior=1.0)
        db.ensure_task(1, prior=3.0)
        for _ in range(WINDOW):
            db.record(0, 0.5)  # measured at half its prior
        assert db.load(0) == pytest.approx(0.5)
        assert db.load(1) == pytest.approx(3.0 * 0.5)

    def test_measurements_dominate_priors_in_loads_array(self):
        db = WorkDB()
        db.ensure_task(0, prior=10.0)
        db.ensure_task(1, prior=10.0)
        db.ensure_task(2, prior=20.0)
        for _ in range(WINDOW):
            db.record(0, 1.0)
            db.record(1, 3.0)
        # measured tasks read their measurement; the unmeasured one its
        # prior at the measured/prior scale, (1 + 3) / (10 + 10)
        np.testing.assert_allclose(db.loads(), [1.0, 3.0, 20.0 * 0.2])

    def test_knobs_are_constants(self):
        """Smoothing, window and blend length are module constants: the
        database takes no settings."""
        db = WorkDB()
        assert db.window == WINDOW
        for knob in ("ewma_alpha", "window", "prior_blend_samples",
                     "calibrate_prior"):
            with pytest.raises(TypeError):
                WorkDB(**{knob: 1})


class TestSerialization:
    def _populated(self):
        db = WorkDB()
        rng = np.random.default_rng(1)
        for tid in range(6):
            db.ensure_task(
                tid, patches=(tid, (tid + 1) % 6), prior=0.5 + tid, owner=tid % 2,
                migratable=tid != 5,
            )
        for _ in range(WINDOW + 1):
            db.record_many(
                range(6), rng.uniform(1e-4, 5e-4, size=6), owners=[0, 0, 1, 1, 0, 1]
            )
            db.mark_step()
        db.ensure_task(99, prior=2.0, migratable=False)
        return db

    def test_round_trip_preserves_everything(self):
        db = self._populated()
        clone = WorkDB.from_dict(json.loads(json.dumps(db.to_dict())))
        assert clone.window == db.window
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
            clone.fixed_owner_loads(2), db.fixed_owner_loads(2)
        )

    def test_dump_and_load_file(self, tmp_path):
        db = self._populated()
        path = tmp_path / "workdb.json"
        db.dump(path)
        clone = WorkDB.load_file(path)
        np.testing.assert_array_equal(clone.loads(), db.loads())
        assert clone.measured_steps == db.measured_steps

    def test_longer_window_dump_keeps_newest_samples(self):
        """The window length is a constant, not a dump field: a dump whose
        windows are longer reloads with the newest :data:`WINDOW` samples."""
        samples = [float(s) for s in range(WINDOW + 4)]
        data = {
            "window": WINDOW + 4, "measured_steps": len(samples),
            "tasks": [
                {"task_id": 0, "patches": [0], "owner": 0, "prior": 1.0,
                 "migratable": True, "ewma": 5.0, "n_samples": len(samples),
                 "total": sum(samples), "window": samples},
            ],
        }
        db = WorkDB.from_dict(data)
        assert list(db.tasks[0].window) == samples[-WINDOW:]
        assert db.tasks[0].window_mean() == pytest.approx(
            np.mean(samples[-WINDOW:])
        )

    def test_reloaded_window_respects_maxlen(self, tmp_path):
        db = self._populated()
        path = tmp_path / "workdb.json"
        db.dump(path)
        clone = WorkDB.load_file(path)
        clone.record(0, 1.0)
        assert len(clone.tasks[0].window) == clone.window

    #: a ``--workdb-dump`` as the database wrote it while it still had
    #: constructor knobs and a background-load block
    LEGACY_DUMP = {
        "ewma_alpha": 0.3, "window": 8, "prior_blend_samples": 8,
        "calibrate_prior": True, "measured_steps": 2,
        "recovery": {"kills": 1}, "backend": "c",
        "worker_backends": {"0": "c", "1": "c"},
        "background_total": {"1": 0.75}, "background_ewma": {},
        "background_samples": {},
        "tasks": [
            {"task_id": 0, "patches": [0], "owner": 0, "prior": 2.0,
             "migratable": True, "ewma": 0.425, "n_samples": 2,
             "total": 0.75, "window": [0.5, 0.25], "parent": -1,
             "part": 0, "n_parts": 1, "kind": "cell"},
            {"task_id": 1, "patches": [0, 1], "owner": 1, "prior": 3.0,
             "migratable": True, "ewma": 0.75, "n_samples": 2,
             "total": 1.5, "window": [0.75, 0.75], "parent": 0,
             "part": 1, "n_parts": 2, "kind": "cell"},
            {"task_id": 2, "patches": [1], "owner": 1, "prior": 1.5,
             "migratable": False, "ewma": 0.325, "n_samples": 2,
             "total": 0.75, "window": [0.25, 0.5], "parent": -1,
             "part": 0, "n_parts": 1, "kind": "bonded"},
        ],
    }

    def test_legacy_dump_loads_and_round_trips(self, tmp_path):
        """An older dump loads with the same predicted loads it was
        written with; dumping it again drops the retired fields and
        round-trips."""
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(self.LEGACY_DUMP))
        db = WorkDB.load_file(path)
        assert (db.measured_steps, db.backend, db.recovery) == (2, "c", {"kills": 1})
        assert db.worker_backends == {0: "c", 1: "c"}
        assert db.tasks[1].parent == 0 and db.tasks[2].kind == "bonded"
        # the loads the writing database predicted for this dump
        np.testing.assert_array_equal(
            db.loads(),
            [0.45240384615384616, 0.7067307692307693, 0.3408653846153846],
        )
        np.testing.assert_array_equal(
            db.fixed_owner_loads(2), [0.0, 0.3408653846153846]
        )
        db.dump(path)
        data = json.loads(path.read_text())
        retired = {"ewma_alpha", "window", "prior_blend_samples",
                   "calibrate_prior", "background_total", "background_ewma",
                   "background_samples"}
        assert retired.isdisjoint(data)
        clone = WorkDB.load_file(path)
        assert clone.to_dict() == db.to_dict()
        np.testing.assert_array_equal(clone.loads(), db.loads())


class TestAdapter:
    def _db(self):
        db = WorkDB()
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
        problem = build_lb_problem(db, 2, patch_home, background=np.zeros(2))
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
        for _ in range(WINDOW):
            db.record(0, 0.25)
        problem = build_lb_problem(
            db, 2, {0: 0, 1: 1, 2: 0}, background=np.zeros(2)
        )
        assert problem.computes[0].load == pytest.approx(0.25)

    def test_background_passes_through(self):
        db = self._db()
        bg = np.array([0.5, 0.25])
        problem = build_lb_problem(db, 2, {0: 0, 1: 1}, background=bg)
        np.testing.assert_array_equal(problem.background, bg)

    def test_task_ids_restrict_and_order(self):
        db = self._db()
        problem = build_lb_problem(
            db, 2, {0: 0, 1: 1}, background=np.zeros(2), task_ids=[2, 0]
        )
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


class TestBackendField:
    """Kernel-backend provenance survives a dump."""

    def _measured(self) -> WorkDB:
        db = WorkDB()
        db.ensure_task(0, patches=(0,), prior=2.0, owner=0)
        db.ensure_task(1, patches=(1,), prior=3.0, owner=1)
        db.backend = "numpy"
        db.note_worker_backend(0, "numpy")
        db.record(0, 0.5)
        db.record(1, 0.7)
        db.mark_step()
        return db

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
