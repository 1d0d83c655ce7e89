"""Service soak: concurrent mixed jobs, faults, suspend/resume, shm hygiene.

The acceptance scenario for the job layer: one service instance runs
several concurrent jobs of mixed sizes — one parallel job with an
injected worker kill, one job suspended mid-run and resumed — and every
job's record stream must be bit-identical to a solo run of the same
spec, with zero shared-memory segments left after shutdown (including
the crash path, where a process exits without ever calling shutdown).
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.md.jobs import SimJob, SimSpec
from repro.pool import attach_segment
from repro.service import JobState, SimulationService

# mixed sizes: two small sequential, one with checkpoints (the one we
# suspend), one parallel with a worker killed mid-run.  waters=120 at
# cutoff 6.0 is the smallest box that sustains a real 2-worker pool.
SPECS = {
    "small-a": SimSpec(waters=20, steps=30, seed=11, traj_every=10),
    "small-b": SimSpec(waters=25, steps=24, seed=12),
    "suspended": SimSpec(waters=20, steps=160, seed=13, checkpoint_every=8),
    "killed": SimSpec(
        waters=120,
        cutoff=6.0,
        steps=6,
        seed=14,
        workers=2,
        fault_plan="kill=0@2",
    ),
}


def solo_records(spec: SimSpec, workdir) -> list[dict]:
    job = SimJob(spec, workdir)
    job.open()
    try:
        while not job.done:
            job.step_slice(100)
    finally:
        job.close()
    return job.records


def live_segment_names(svc: SimulationService) -> set[str]:
    """Snapshot the shm segment names of every live engine pool."""
    names: set[str] = set()
    for job in svc.jobs():
        engine = job.sim.engine
        nb = getattr(engine, "_nb", None)
        pool = getattr(nb, "_pool", None)
        registry = getattr(pool, "_registry", None)
        if registry is not None:
            names.update(registry.names().values())
    return names


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_soak_concurrent_jobs_bit_identical_and_leak_free(tmp_path):
    baselines = {
        name: solo_records(spec, tmp_path / "solo" / name)
        for name, spec in SPECS.items()
    }

    svc = SimulationService(
        worker_slots=2, lanes=3, slice_steps=4, workdir=tmp_path / "svc"
    )
    seen_segments: set[str] = set()
    with svc:
        jobs = {
            name: svc.submit(spec, tenant="soak", job_id=name)
            for name, spec in SPECS.items()
        }

        # suspend the checkpointed job mid-run, then resume it
        deadline = time.monotonic() + 120
        while jobs["suspended"].sim.steps_done < 20:
            assert time.monotonic() < deadline, "job never reached step 20"
            seen_segments |= live_segment_names(svc)
            time.sleep(0.01)
        svc.suspend("suspended")
        svc.wait("suspended", [JobState.SUSPENDED], timeout=60)
        assert jobs["suspended"].lease is None
        svc.resume("suspended")

        while any(not j.terminal for j in jobs.values()):
            seen_segments |= live_segment_names(svc)
            time.sleep(0.01)
            assert time.monotonic() < deadline, "soak did not converge"

        for name, job in jobs.items():
            assert job.state is JobState.COMPLETED, (name, job.error)
            assert job.sim.records == baselines[name], name

        # the killed job really lost a worker and recovered
        assert seen_segments, "parallel job never showed a live pool"
        k_events = [e["event"] for e in jobs["killed"].events]
        assert "finished" in k_events
        assert svc.budget.leased == 0

    # shutdown must unlink every segment any job ever mapped
    for name in seen_segments:
        with pytest.raises(FileNotFoundError):
            attach_segment(name)


_CRASH_SCRIPT = r"""
import json, sys, time
from repro.service import SimulationService

svc = SimulationService(worker_slots=2, lanes=2, slice_steps=2)
svc.start()
# a fault plan (a no-op slowdown) asks for supervised worker processes
job = svc.submit(
    {"waters": 120, "cutoff": 6.0, "steps": 2000, "seed": 3, "workers": 2,
     "fault_plan": "slow=0@1-2x1"}
)
deadline = time.monotonic() + 60
names = []
while not names:
    assert time.monotonic() < deadline, "pool never appeared"
    engine = job.sim.engine
    nb = getattr(engine, "_nb", None)
    pool = getattr(nb, "_pool", None)
    if pool is not None and pool._registry is not None:
        names = list(pool._registry.names().values())
    time.sleep(0.01)
print(json.dumps(names), flush=True)
# exit WITHOUT shutdown: the pool's atexit sweep must unlink everything
"""


def test_crash_path_atexit_sweep_unlinks_segments():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
        cwd=os.getcwd(),
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    assert names, "subprocess never mapped a segment"
    for name in names:
        with pytest.raises(FileNotFoundError):
            attach_segment(name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_supervised_job_beside_threaded_jobs(tmp_path):
    """The one job with a fault plan forks worker processes (and loses
    one) while the other jobs' force tasks run on executor threads; every
    job still streams its solo records."""
    specs = {
        "supervised": SPECS["killed"],
        "threads-a": SimSpec(waters=120, cutoff=6.0, steps=8, seed=15, workers=2),
        "threads-b": SimSpec(
            waters=120, cutoff=6.0, steps=8, seed=16, workers=2, ewald=True
        ),
    }
    baselines = {
        name: solo_records(spec, tmp_path / "solo" / name)
        for name, spec in specs.items()
    }
    svc = SimulationService(
        worker_slots=6, lanes=3, slice_steps=2, workdir=tmp_path / "svc"
    )
    executors: dict[str, set] = {name: set() for name in specs}
    with svc:
        jobs = {
            name: svc.submit(spec, tenant="mix", job_id=name)
            for name, spec in specs.items()
        }
        deadline = time.monotonic() + 120
        while any(not j.terminal for j in jobs.values()):
            for name, job in jobs.items():
                engine = job.sim.engine
                if engine is not None and engine.parallel:
                    executors[name].add(engine.driver_report()["executor"])
            assert time.monotonic() < deadline, "jobs did not finish"
            time.sleep(0.005)
        for name, job in jobs.items():
            assert job.state is JobState.COMPLETED, (name, job.error)
            assert job.sim.records == baselines[name], name
    assert executors["supervised"] <= {"processes"}
    assert executors["threads-a"] <= {"threads"}
    assert executors["threads-b"] <= {"threads"}
