"""Multiple live executors in one process: no shared names, no leaks.

The segment registry gives every process pool collision-free shared-memory
names (pid + random token prefix), so two engines — or an engine plus any
other ``repro.pool`` client — can coexist and tear down independently.  A
default parallel engine runs on threads and forks nothing.  That engines
stepped in turns keep their bits is held in ``test_conformance.py``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.md.engine import SequentialEngine, make_engine
from repro.md.ewald import EwaldOptions
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine
from repro.pool import RecoveryPolicy, SegmentRegistry, attach_segment

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

OPTS = NonbondedOptions(cutoff=8.0)


def test_two_engines_have_disjoint_segment_names(water600, water400):
    with ParallelEngine(
        water600.copy(), options=OPTS, workers=2, recovery=RecoveryPolicy()
    ) as eng_a:
        with ParallelEngine(
            water400.copy(), options=OPTS, workers=2, recovery=RecoveryPolicy()
        ) as eng_b:
            assert eng_a.parallel and eng_b.parallel
            names_a = set(eng_a._nb._pool._registry.names().values())
            names_b = set(eng_b._nb._pool._registry.names().values())
            assert not (names_a & names_b)


def test_closing_one_engine_leaves_the_other_live(water600, water400):
    eng_a = ParallelEngine(water600.copy(), options=OPTS, workers=2)
    eng_b = ParallelEngine(water400.copy(), options=OPTS, workers=2)
    try:
        f_before = eng_b.compute_forces()
        eng_a.close()
        assert not eng_a.parallel
        assert eng_b.parallel
        f_after = eng_b.compute_forces()
        np.testing.assert_array_equal(f_before, f_after)
    finally:
        eng_a.close()
        eng_b.close()


@pytest.mark.parametrize("workers", [1, 2])
def test_engines_with_different_boxes_each_build_one_table(water600, water400, workers):
    """The PME task's table belongs to the evaluator that runs it: two live
    engines in one process, stepped in turns, each build their own once."""
    ew = EwaldOptions(cutoff=8.0, kmax=4)
    with make_engine(water600.copy(), OPTS, workers=workers, ewald=ew) as eng_a:
        with make_engine(water400.copy(), OPTS, workers=workers, ewald=ew) as eng_b:
            assert eng_a.parallel == eng_b.parallel == (workers > 1)
            assert not np.array_equal(eng_a.system.box, eng_b.system.box)
            for _ in range(2):
                eng_a.compute_forces()
                eng_b.compute_forces()
            for engine in (eng_a, eng_b):
                assert engine.kspace_cache_stats() == {"builds": 1, "hits": 1}


def test_segments_unlinked_after_close(water400):
    # the leak check: every shared-memory name a pool created must be gone
    # from the OS once the engine closes
    eng = ParallelEngine(
        water400.copy(), options=OPTS, workers=2, recovery=RecoveryPolicy()
    )
    assert eng.parallel
    names = list(eng._nb._pool._registry.names().values())
    assert names
    eng.compute_forces()
    eng.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            attach_segment(name)


def test_default_parallel_engine_forks_nothing(water400, monkeypatch):
    """Threads: no worker process while it steps, no shared memory."""

    def refuse(*args, **kwargs):
        raise AssertionError("a thread executor created a shared-memory segment")

    monkeypatch.setattr(SegmentRegistry, "create", refuse)
    with ParallelEngine(water400.copy(), options=OPTS, workers=2) as eng:
        assert eng.parallel
        assert eng.driver_report()["executor"] == "threads"
        for _ in range(2):
            eng.compute_forces()
            assert multiprocessing.active_children() == []


def test_sequential_engines_stepped_on_two_threads_keep_their_solo_bits(water216):
    """Two engines of one atom count — as two service lanes step two jobs of
    one size — stepped at once on two threads, the interpreter switching
    between them as often as it can: each ends on the digest of its run
    alone.  Any scratch the driver's passes shared between calls would show
    here."""

    def system(seed):
        s = water216.copy()
        s.assign_velocities(300.0, seed=seed)
        return s

    def run(seed, steps=12, start=None):
        with SequentialEngine(system(seed), OPTS) as engine:
            if start is not None:
                start.wait()
            engine.run(steps)
            return hashlib.sha256(engine.system.positions.tobytes()).hexdigest()

    solo = [run(seed) for seed in (1, 2)]
    assert solo[0] != solo[1]
    start = threading.Barrier(2)
    found: dict[int, str] = {}
    threads = [
        threading.Thread(target=lambda k=k: found.update({k: run(k + 1, start=start)}))
        for k in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert [found.get(0), found.get(1)] == solo
