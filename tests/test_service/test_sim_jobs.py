"""Engine-as-job adapter: spec validation, slicing, suspend/resume.

The determinism contract under test: a job's record stream is
bit-identical to a solo uninterrupted run of the same spec, whatever the
slice boundaries and however many suspend/resume cycles happen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.jobs import SimJob, SimSpec

#: any value a JSON request body can hold, plus the strings a spec field
#: takes, so the fuzz reaches the checks behind the type test
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["c", "numpy", "greedy", "refine", "kill=1@2", "hang=0@1x2"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


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
            # numbers no runtime can honour, and clauses a pool cannot
            {"fault_plan": "hang=0@2xnan", "workers": 2},
            {"fault_plan": "slow=1@nan-4x2", "workers": 2},
            {"fault_plan": "slow=0@1-3xinf", "workers": 2},
            {"fault_plan": "drop=0.1", "workers": 2},
            {"fault_plan": "kill=1@2.5", "workers": 2},
            # pool-only fields must not be silently dropped at workers == 1
            {"rebalance_every": 4},
            {"lb_strategy": "greedy"},
            {"timeout": 30.0},
            # used to fail inside a scheduler lane, when get_backend raised
            {"backend": "bogus"},
            {"backend": "numba"},  # retired with its module
            # sizes a lane would allocate: the PME grid, the box
            {"kmax": 17},
            {"waters": 100_001},
            {"waters": 10**12},
            # the boundary defects that ran to NaN energies (or raised only
            # in a lane): every real field finite, these three >= 0
            {"temperature": -5.0},
            {"temperature": float("nan")},
            {"temperature": 10**400},
            {"dt": float("inf")},
            {"cutoff": float("inf")},
            {"skin": -1.0},
            {"skin": float("nan")},
            {"skew": float("nan")},
            {"skew": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimSpec(**kwargs)
        with pytest.raises(ValueError):
            SimSpec.from_dict(kwargs)

    @settings(max_examples=400, deadline=None)
    @given(st.dictionaries(st.sampled_from(sorted(SimSpec.__dataclass_fields__)), JSON))
    def test_from_dict_returns_a_spec_or_raises_value_error(self, data):
        """Whatever JSON a request carries under the known fields — NaN and
        infinities (``json.loads`` admits them), huge ints, strings,
        lists, null, booleans — a spec comes back, valid, or a
        ``ValueError`` (HTTP 400); nothing else."""
        from repro.md.jobs import _REAL

        try:
            spec = SimSpec.from_dict(data)
        except ValueError:
            return
        for name in _REAL:
            value = getattr(spec, name)
            assert value is None or math.isfinite(value)
        assert min(spec.temperature, spec.skew, spec.skin or 0.0) >= 0

    def test_pool_only_fields_are_the_engines_pool_keywords(self):
        from repro.md.engine import POOL_KEYWORDS
        from repro.md.jobs import _POOL_ONLY

        assert set(_POOL_ONLY) == POOL_KEYWORDS & set(SimSpec.__dataclass_fields__)
        assert set(_POOL_ONLY) == {"fault_plan", "lb_strategy", "rebalance_every", "timeout"}

    def test_the_size_caps_are_named_constants_and_inclusive(self):
        from repro.md.ewald import MAX_KMAX
        from repro.md.jobs import MAX_WATERS

        spec = SimSpec(waters=MAX_WATERS, kmax=MAX_KMAX, ewald=True)
        assert SimSpec.from_dict(spec.to_dict()) == spec
        for field, value in (("waters", MAX_WATERS + 1), ("kmax", MAX_KMAX + 1)):
            with pytest.raises(ValueError, match=field):
                SimSpec(**{field: value})

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
