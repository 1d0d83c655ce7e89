"""Engine-as-job adapter: spec validation, slicing, suspend/resume.

The determinism contract under test: a job's record stream is
bit-identical to a solo uninterrupted run of the same spec, whatever the
slice boundaries and however many suspend/resume cycles happen.
"""

import numpy as np
import pytest

from repro.md.jobs import SimJob, SimSpec


def run_solo(spec: SimSpec, tmpdir, slice_steps: int = 100) -> list[dict]:
    job = SimJob(spec, tmpdir)
    job.open()
    try:
        while not job.done:
            job.step_slice(slice_steps)
    finally:
        job.close()
    return job.records


class TestSimSpec:
    def test_roundtrip(self):
        spec = SimSpec(waters=30, steps=7, seed=2, workers=2, ewald=True)
        assert SimSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            SimSpec.from_dict({"waters": 10, "bogus": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            SimSpec.from_dict([1, 2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"waters": 0},
            {"steps": 0},
            {"workers": -1},
            {"seed": -1},
            {"checkpoint_every": -1},
            {"fault_plan": "kill=0@1", "workers": 1},
            # what used to surface as a failed job inside a scheduler lane
            # (or a TypeError) instead of a ValueError at submit
            {"waters": "abc"},
            {"waters": True},
            {"ewald": "yes"},
            {"cutoff": "8"},
            {"dt": 0.0},
            {"timeout": 0.0, "workers": 2},
            {"lb_strategy": "nope", "workers": 2},
            {"lb_strategy": "greedy+nope", "workers": 2},
            {"fault_plan": "kill=zz", "workers": 2},
            {"fault_plan": "kill", "workers": 2},
            {"fault_plan": "slow=0@0-infx0", "workers": 2},
            {"fault_plan": "kill=2@1", "workers": 2},  # workers are 0 and 1
            # pool-only fields must not be silently dropped at workers == 1
            {"rebalance_every": 4},
            {"lb_strategy": "greedy"},
            {"timeout": 30.0},
            # used to fail inside a scheduler lane, when get_backend raised
            {"backend": "bogus"},
            {"backend": "numba"},  # retired with its module
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimSpec(**kwargs)
        with pytest.raises(ValueError):
            SimSpec.from_dict(kwargs)

    def test_every_backend_name_is_a_legal_spec(self):
        from repro.backend import BACKEND_NAMES

        for name in (None, *BACKEND_NAMES):
            assert SimSpec(backend=name).backend == name

    def test_every_field_is_type_checked(self):
        from repro.md.jobs import _FIELD_TYPES

        checked = [name for _kind, _label, names in _FIELD_TYPES for name in names]
        assert sorted(checked) == sorted(SimSpec.__dataclass_fields__)
        # a caller's numpy scalars are numbers too
        spec = SimSpec(waters=np.int64(12), cutoff=np.float32(8.0), dt=1)
        assert spec.waters == 12 and spec.cutoff == 8.0

    def test_pool_fields_accepted_with_workers(self):
        spec = SimSpec(
            workers=2, rebalance_every=4, lb_strategy="greedy+refine",
            timeout=30, fault_plan="kill=1@2,slow=0@1-infx2", cutoff=8,
        )
        assert SimSpec.from_dict(spec.to_dict()) == spec
        # one worker per CPU: the count is unknown until the engine starts
        SimSpec(workers=0, fault_plan="kill=3@2")

    def test_distribute_is_accepted_and_ignored(self, tmp_path):
        """The perf harness still sets it; either value is the one path."""
        on, off = (
            run_solo(SimSpec(waters=15, steps=3, distribute=flag), tmp_path / name)
            for flag, name in ((True, "on"), (False, "off"))
        )
        assert on == off

    def test_worker_slots(self):
        assert SimSpec(workers=1).worker_slots == 0  # sequential: no pool
        assert SimSpec(workers=2).worker_slots == 2
        assert SimSpec(workers=4).worker_slots == 4


class TestSlicing:
    def test_slicing_is_invisible(self, tmp_path):
        """3+2+... slices emit the same stream as one big slice."""
        spec = SimSpec(waters=20, steps=9, seed=5, traj_every=4)
        solo = run_solo(spec, tmp_path / "solo")
        sliced = SimJob(spec, tmp_path / "sliced")
        sliced.open()
        try:
            while not sliced.done:
                sliced.step_slice(2)
        finally:
            sliced.close()
        assert sliced.records == solo

    def test_slice_caps_at_remaining_steps(self, tmp_path):
        job = SimJob(SimSpec(waters=15, steps=3, seed=1), tmp_path)
        job.open()
        try:
            out = job.step_slice(50)
        finally:
            job.close()
        assert job.steps_done == 3 and job.done
        # 3 step records + the final frame
        assert [r["type"] for r in out] == ["step"] * 3 + ["frame"]
        assert out[-1]["final"] is True

    def test_step_slice_requires_open(self, tmp_path):
        job = SimJob(SimSpec(waters=15, steps=3), tmp_path)
        with pytest.raises(RuntimeError, match="not open"):
            job.step_slice(1)


class TestSuspendResume:
    def test_resume_stream_bit_identical(self, tmp_path):
        """Suspend past a checkpoint; the replayed steps are suppressed
        and the final stream equals the uninterrupted run's exactly."""
        spec = SimSpec(
            waters=20, steps=10, seed=7, checkpoint_every=4, traj_every=5
        )
        solo = run_solo(spec, tmp_path / "solo")

        job = SimJob(spec, tmp_path / "job")
        job.open()
        job.step_slice(6)  # past the step-4 checkpoint
        job.suspend()
        assert job.engine is None
        assert job.steps_done == 4  # rolled back to the durable checkpoint
        job.open()  # restores from checkpoint
        assert job.steps_done == 4
        while not job.done:
            job.step_slice(3)
        job.close()
        assert job.records == solo

    def test_suspend_without_checkpoint_replays_from_zero(self, tmp_path):
        spec = SimSpec(waters=15, steps=6, seed=3)  # checkpoint_every=0
        solo = run_solo(spec, tmp_path / "solo")
        job = SimJob(spec, tmp_path / "job")
        job.open()
        job.step_slice(4)
        job.suspend()
        assert job.steps_done == 0  # nothing durable: full replay
        job.open()
        job.step_slice(100)
        job.close()
        assert job.records == solo

    def test_suspend_when_closed_is_noop(self, tmp_path):
        job = SimJob(SimSpec(waters=15, steps=3), tmp_path)
        job.suspend()  # never opened
        assert job.steps_done == 0


class TestBackendProvenance:
    def test_provenance_survives_close(self, tmp_path):
        job = SimJob(SimSpec(waters=15, steps=2, backend="numpy"), tmp_path)
        job.open()
        job.step_slice(2)
        job.close()
        assert job.backend_provenance()["backend"] == "numpy"

    def test_unopened_job_has_no_provenance(self, tmp_path):
        job = SimJob(SimSpec(waters=15, steps=2), tmp_path)
        assert job.backend_provenance() == {
            "backend": None,
            "workdb_backend": None,
        }
