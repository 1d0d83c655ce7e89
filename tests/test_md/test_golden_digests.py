"""Golden trajectories of the ``c`` backend: three short runs whose final
positions are pinned by sha256.

A change to the list format, the task loop or the executor must leave these
alone; a change to a kernel's arithmetic or summation order moves them, and
then the pins are re-recorded with the reason (EXPERIMENTS.md lists every
move).  The bits depend on the host's libm (``acos`` in the angle terms,
``sin``/``cos`` in the reciprocal sum; the pair kernel calls none since the
Ewald real-space term is read from a table, whose nodes are ``scipy``'s
``erfc`` and numpy's ``exp``), so the pins hold for the platform they were
recorded on and the test skips elsewhere — and on the numpy fallback, whose
bits are its own.
"""

import hashlib
import platform

import numpy as np
import pytest

from repro.backend import get_backend
from repro.builder import small_water_box
from repro.md.engine import make_engine
from repro.md.ewald import EwaldOptions
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY

RECORDED_ON = ("x86_64", ("glibc", "2.36"))

#: run -> sha256 of the final positions' bytes.  History: recorded on PR 21's
#: tree (cutoff 8765444c1ac07559, ewald cd9e990652a9f92e, grainsize
#: a795d96e083d1d1d); the row-list / batched-kernel change passed those
#: unedited; re-recorded when ``bonded_terms`` moved to C in the same PR
#: (list-order sums instead of BLAS dots and per-slot scatters: per-step
#: energies within 4e-16 at step 1 and 5e-14 over 100 steps of the old bits).
#: ``ewald`` alone (was cd5ae322a35ccad0) re-recorded when the erfc term
#: became a table lookup in both backends' pair kernels: per-step total
#: energy within 9e-12 relative of the libm bits over 200 steps, final
#: positions within 2e-9 A; ``cutoff`` and ``grainsize`` never read the table
#: and passed that change unedited.
PINS = {
    "cutoff": "24310ccfcea6bdefaf9c01ead82c0e356864b11341cb17b6680d3ba99ccb479e",
    "ewald": "48f84cda75c362fe6710668b76ad02be9d93f5b71c774a6b14b22f1d6e4e1a5b",
    "grainsize": "5fd72b37c98f84a4e70ddf55db69bbc7f376f6942e1da1abebb6eadacac2283b",
}

pytestmark = [
    pytest.mark.skipif(
        get_backend().name != "c", reason="the pins are the c backend's bits"
    ),
    pytest.mark.skipif(
        (platform.machine(), platform.libc_ver()) != RECORDED_ON,
        reason=f"pins recorded on {RECORDED_ON}",
    ),
]


def final_positions(run: str) -> np.ndarray:
    if run == "grainsize":
        # 27 cells at 8 + 1.5 A, the heavy parents split into row stripes
        system = small_water_box(600, seed=7, relax=False)
        options, kwargs = NonbondedOptions(cutoff=8.0), {"grainsize_ms": 2.0}
        workers, steps = 2, 12
    else:
        # 2x2x2 task cells at 6 + 1.5 A; 24 steps span a list rebuild
        system = small_water_box(216, seed=3, relax=False)
        options, kwargs = NonbondedOptions(cutoff=6.0), {}
        if run == "ewald":
            kwargs["ewald"] = EwaldOptions(cutoff=6.0, kmax=3)
        workers, steps = 1, 24
    system.assign_velocities(300.0, seed=5)
    with make_engine(
        system, options, VelocityVerlet(dt=1.0), workers=workers, **kwargs
    ) as engine:
        engine.run(steps)
        if run == "grainsize":
            assert engine.parallel and engine._nb.n_subtasks > engine._nb.n_parent_tasks
        assert engine.pairlist.n_builds > 1
        return engine.system.positions.copy()


@pytest.mark.parametrize("run", sorted(PINS))
def test_final_positions_are_the_pinned_bits(run):
    if run == "grainsize" and not HAS_SHARED_MEMORY:
        pytest.skip("platform lacks multiprocessing.shared_memory")
    digest = hashlib.sha256(final_positions(run).tobytes()).hexdigest()
    assert digest == PINS[run]
