"""One non-bonded path: the trajectory does not depend on where the force
tasks run, and the path agrees with the reference functions.

An engine without workers evaluates the workers' tasks in-process through
the same per-step loop, so ``workers`` 1 / 2 / 3 give bit-identical
trajectories; against the independent oracle (``oracle.py``) the path
holds 1e-9 on every system the engines are used on.
"""

import numpy as np
import pytest

from repro.builder import skewed_water_box, small_water_box
from repro.md.engine import make_engine
from repro.md.ewald import EwaldOptions
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY

from .oracle import assert_matches_reference

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

#: >= 10 everywhere; the water box needs a few more to reach a rebuild
STEPS = {"water": 16, "assembly": 10}


@pytest.fixture(scope="module")
def systems(assembly):
    """name -> (system, cutoff): every box the cross-engine suites covered."""
    return {
        # 2x2x2 task cells at 6+1.5 A, and the lists get reused
        "water": (small_water_box(216, seed=3, relax=False), 6.0),
        "assembly": (assembly, 8.0),
        "skewed": (skewed_water_box(300, seed=3, skew=3.0, relax=False), 6.0),
    }


def engine_for(systems, name, ewald, workers, **kwargs):
    system, cutoff = systems[name]
    system = system.copy()
    system.assign_velocities(300.0, seed=5)
    if ewald:
        kwargs["ewald"] = EwaldOptions(cutoff=cutoff, kmax=3)
    return make_engine(
        system, NonbondedOptions(cutoff=cutoff), VelocityVerlet(dt=1.0),
        workers=workers, **kwargs,
    )


@pytest.mark.parametrize("ewald", [False, True], ids=["cutoff", "ewald"])
@pytest.mark.parametrize("name", ["water", "assembly"])
def test_trajectory_bit_identical_across_worker_counts(systems, name, ewald):
    runs = {}
    for workers in (1, 2, 3):
        with engine_for(systems, name, ewald, workers) as engine:
            assert engine.parallel == (workers > 1)
            reports = engine.run(STEPS[name])
            runs[workers] = (
                engine.system.positions.copy(),
                engine.system.velocities.copy(),
                [r.total for r in reports],
                engine.pairlist.n_builds,
            )
    for workers in (2, 3):
        for one, many in zip(runs[1], runs[workers]):
            assert np.array_equal(one, many)
    if name == "water":
        assert 1 < runs[1][3] <= STEPS[name]  # rebuilds and reuses both happened


@pytest.mark.parametrize("ewald", [False, True], ids=["cutoff", "ewald"])
@pytest.mark.parametrize("name", ["water", "assembly", "skewed"])
@pytest.mark.parametrize(
    "workers, distribute", [(1, False), (2, False), (3, True)]
)
def test_engine_matches_reference_functions(
    systems, name, ewald, workers, distribute
):
    kwargs = {"distribute": True} if distribute else {}
    with engine_for(systems, name, ewald, workers, **kwargs) as engine:
        assert engine.parallel == (workers > 1)
        assert_matches_reference(engine)
        if name != "assembly":  # its unrelaxed contacts blow up under dt = 1
            # ... and still does on lists built some steps ago
            engine.run(4)
            assert engine.pairlist.n_reuses > 0
            assert_matches_reference(engine, engine._forces)
