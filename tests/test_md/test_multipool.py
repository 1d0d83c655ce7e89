"""Multiple live pools in one process: no cross-talk, no leaks.

The segment registry gives every pool collision-free shared-memory names
(pid + random token prefix), so two engines — or an engine plus any other
``repro.pool`` client — can coexist and tear down independently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.builder import small_water_box
from repro.md.engine import SequentialEngine
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY, ParallelEngine
from repro.pool import attach_segment

from .oracle import assert_matches_reference

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

OPTS = NonbondedOptions(cutoff=8.0)


@pytest.fixture(scope="module")
def water600():
    return small_water_box(600, seed=7, relax=False)


@pytest.fixture(scope="module")
def water400():
    return small_water_box(400, seed=11, relax=False)


def test_two_engines_coexist_without_crosstalk(water600, water400):
    with ParallelEngine(water600.copy(), options=OPTS, workers=2) as eng_a:
        with ParallelEngine(water400.copy(), options=OPTS, workers=2) as eng_b:
            assert eng_a.parallel and eng_b.parallel
            # disjoint shared-memory names
            names_a = set(eng_a._nb._pool._registry.names().values())
            names_b = set(eng_b._nb._pool._registry.names().values())
            assert not (names_a & names_b)
            # interleave evaluations; each pool must see only its system
            for _ in range(2):
                assert_matches_reference(eng_a)
                assert_matches_reference(eng_b)


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


def test_sequential_engines_kspace_accounting_isolated():
    # regression: the k-space LRU counters were process-global, so one
    # engine's clear_kspace_cache() yanked another engine's stats backwards
    # (the exact multi-job service hazard).  Per-engine views must stay
    # monotone, non-negative, and exactly attributed.
    from repro.md.ewald import EwaldOptions

    ew = EwaldOptions(cutoff=6.0, kmax=4)
    opts = NonbondedOptions(cutoff=6.0)
    eng_a = SequentialEngine(
        small_water_box(40, seed=3, relax=False), opts, skin=0.0, ewald=ew
    )
    eng_b = SequentialEngine(
        small_water_box(30, seed=5, relax=False), opts, skin=0.0, ewald=ew
    )
    eng_a.compute_forces()
    eng_a.compute_forces()  # same box: second evaluation hits the cache
    before = eng_a.kspace_cache_stats()["driver"]
    assert before == {"builds": 1, "hits": 1}
    eng_b.compute_forces()
    eng_b.clear_kspace_cache()  # job B resets *its* accounting
    after = eng_a.kspace_cache_stats()["driver"]
    assert after == before  # B's clear is invisible to A
    # the shared tables really were dropped: A's next evaluation rebuilds,
    # and the build lands in A's accounting only
    eng_a.compute_forces()
    assert eng_a.kspace_cache_stats()["driver"]["builds"] == before["builds"] + 1
    assert eng_b.kspace_cache_stats()["driver"] == {"builds": 0, "hits": 0}


def test_parallel_engines_kspace_accounting_isolated(water600, water400):
    # same hazard, through the parallel engine's driver-side accounting
    # (distribute=False keeps the reciprocal sum on the driver)
    from repro.md.ewald import EwaldOptions

    ew = EwaldOptions(cutoff=8.0, kmax=4)
    with ParallelEngine(
        water600.copy(), options=OPTS, workers=2, ewald=ew
    ) as eng_a:
        with ParallelEngine(
            water400.copy(), options=OPTS, workers=2, ewald=ew
        ) as eng_b:
            eng_a.compute_forces()
            eng_a.compute_forces()
            before = eng_a.kspace_cache_stats()
            assert before["driver"]["builds"] >= 1
            assert before["driver"]["hits"] >= 1
            eng_b.compute_forces()
            eng_b.clear_kspace_cache()
            after = eng_a.kspace_cache_stats()
            assert after["driver"] == before["driver"]
            assert after["worker_builds"] >= 0
            assert after["worker_hits"] >= 0
            eng_a.compute_forces()
            final = eng_a.kspace_cache_stats()
            assert final["driver"]["builds"] == before["driver"]["builds"] + 1
            assert eng_b.kspace_cache_stats()["driver"] == {
                "builds": 0,
                "hits": 0,
            }


def test_segments_unlinked_after_close(water400):
    # the leak check: every shared-memory name a pool created must be gone
    # from the OS once the engine closes
    eng = ParallelEngine(water400.copy(), options=OPTS, workers=2)
    assert eng.parallel
    names = list(eng._nb._pool._registry.names().values())
    assert names
    eng.compute_forces()
    eng.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            attach_segment(name)
