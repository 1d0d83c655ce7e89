"""Multiple live executors in one process: no shared names, no leaks.

The segment registry gives every process pool collision-free shared-memory
names (pid + random token prefix), so two engines — or an engine plus any
other ``repro.pool`` client — can coexist and tear down independently.  A
default parallel engine runs on threads and forks nothing.  That engines
stepped in turns keep their bits is held in ``test_conformance.py``.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.builder import small_water_box
from repro.md.engine import SequentialEngine
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


def counts(engine) -> dict:
    stats = engine.kspace_cache_stats()
    return {"builds": stats["builds"], "hits": stats["hits"]}


def test_sequential_engines_kspace_accounting_isolated():
    # regression: the k-space LRU counters were process-global, so one
    # engine's clear_kspace_cache() yanked another engine's stats backwards
    # (the exact multi-job service hazard).  Each engine's evaluators count
    # their own lookups: monotone, non-negative, and exactly attributed.
    from repro.md.ewald import EwaldOptions, kspace_cache_stats

    ew = EwaldOptions(cutoff=6.0, kmax=4)
    opts = NonbondedOptions(cutoff=6.0)
    eng_a = SequentialEngine(
        small_water_box(40, seed=3, relax=False), opts, skin=0.0, ewald=ew
    )
    eng_b = SequentialEngine(
        small_water_box(30, seed=5, relax=False), opts, skin=0.0, ewald=ew
    )
    assert len(eng_a._nb._kspace_ids) == 1  # one table lookup an evaluation
    eng_a.clear_kspace_cache()  # whatever earlier tests left in the LRU
    eng_a.compute_forces()
    eng_a.compute_forces()  # same box: the later lookup hits the cache
    before = counts(eng_a)
    assert before == {"builds": 1, "hits": 1}
    eng_b.compute_forces()
    module_view = kspace_cache_stats()
    eng_b.clear_kspace_cache()  # job B resets *its* accounting
    assert counts(eng_a) == before  # B's clear is invisible to A
    assert kspace_cache_stats() == module_view  # ... and to the module's view
    # the shared tables really were dropped: A's next evaluation rebuilds,
    # and the build lands in A's accounting only
    eng_a.compute_forces()
    assert counts(eng_a)["builds"] == before["builds"] + 1
    assert counts(eng_b) == {"builds": 0, "hits": 0}


def test_parallel_engines_kspace_accounting_isolated(water600, water400):
    # same hazard with the lookups in worker processes: each engine reads
    # its own workers' published counts
    from repro.md.ewald import EwaldOptions

    ew = EwaldOptions(cutoff=8.0, kmax=4)
    with ParallelEngine(
        water600.copy(), options=OPTS, workers=2, ewald=ew
    ) as eng_a:
        with ParallelEngine(
            water400.copy(), options=OPTS, workers=2, ewald=ew
        ) as eng_b:
            assert len(eng_a._nb._kspace_ids) == 1
            eng_a.compute_forces()
            eng_a.compute_forces()
            before = eng_a.kspace_cache_stats()
            assert before["builds"] + before["hits"] == 2
            assert before["hits"] >= 1
            eng_b.compute_forces()
            eng_b.clear_kspace_cache()
            assert eng_a.kspace_cache_stats() == before
            eng_a.compute_forces()
            final = eng_a.kspace_cache_stats()
            assert final["builds"] + final["hits"] == 3
            assert counts(eng_b) == {"builds": 0, "hits": 0}
            assert set(final["workers"]) == {0, 1}


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
