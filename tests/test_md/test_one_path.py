"""One force path: the trajectory does not depend on where the force tasks
run, and the path agrees with the reference functions.

Every force term is a task — cell pair blocks, bonded groups and, under
Ewald, the PME task — and an engine without workers (``SequentialEngine``)
evaluates the workers' tasks in-process through the same per-step loop, so
``workers`` 1 / 2 / 3 give bit-identical trajectories, whether the workers
are threads (the default) or supervised processes, as do the degrade rung,
an LB remap and a checkpoint resume — on each kernel backend, whose bits
differ from one another; against the independent oracle (``oracle.py``)
the path holds 1e-9 on every system the engines are used on, the PME part
its own bound.
"""

from collections import Counter

import numpy as np
import pytest

from repro.backend import available_backends
from repro.builder import skewed_water_box, small_water_box
from repro.md.engine import SequentialEngine, make_engine
from repro.md.ewald import EwaldOptions, compute_ewald
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY
from repro.pool import HAS_POSIX_SIGNALS, InProcessExecutor, RecoveryPolicy
from repro.runtime.checkpoint import load_run_checkpoint, restore_run_checkpoint

from .oracle import PME_ENERGY_RTOL, RTOL, assert_matches_reference

#: worker processes need shared memory; threads do not
needs_shm = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="platform lacks multiprocessing.shared_memory"
)

#: >= 10 everywhere; the water box needs a few more to reach a rebuild
STEPS = {"water": 16, "assembly": 10, "skewed": 12}


@pytest.fixture(scope="module")
def systems(assembly):
    """name -> (system, cutoff): every box the cross-engine suites covered."""
    return {
        # 2x2x2 task cells at 6+1.5 A, and the lists get reused
        "water": (small_water_box(216, seed=3, relax=False), 6.0),
        "assembly": (assembly, 8.0),
        "skewed": (skewed_water_box(300, seed=3, skew=3.0, relax=False), 6.0),
    }


def fresh(systems, name):
    system, cutoff = systems[name]
    system = system.copy()
    system.assign_velocities(300.0, seed=5)
    return system, cutoff


def engine_for(systems, name, ewald, workers, recip_every=1, **kwargs):
    """``ewald``: falsy, True (its cutoff the LJ one), or that cutoff's
    ratio to the LJ one."""
    system, cutoff = fresh(systems, name)
    if ewald:
        kwargs["ewald"] = EwaldOptions(
            cutoff=cutoff * float(ewald), kmax=3, recip_every=recip_every
        )
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
            assert (type(engine) is SequentialEngine) == (workers == 1)
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
@pytest.mark.parametrize("workers, split", [(1, False), (2, False), (3, True)])
def test_engine_matches_reference_functions(systems, name, ewald, workers, split):
    """``split``: with grainsize control cutting cell tasks into stripes."""
    kwargs = {"grainsize_ms": 1.0} if split else {}
    with engine_for(systems, name, ewald, workers, **kwargs) as engine:
        assert engine.parallel == (workers > 1)
        assert (engine._nb.n_subtasks > engine._nb.n_parent_tasks) == split
        assert_matches_reference(engine)
        if name != "assembly":  # its unrelaxed contacts blow up under dt = 1
            # ... and still does on lists built some steps ago
            engine.run(4)
            assert engine.pairlist.n_reuses > 0
            assert_matches_reference(engine, engine._forces)


@pytest.mark.parametrize("ratio", [0.75, 1.25], ids=["below", "above"])
@pytest.mark.parametrize("name", ["water", "assembly", "skewed"])
def test_ewald_cutoff_below_and_above_the_lj_cutoff(systems, name, ratio):
    """Lists and grid size to the longer of the two, each term keeps its own."""
    with engine_for(systems, name, ratio, 2) as engine:
        assert engine.parallel
        cutoff = engine.options.cutoff
        assert engine.ewald.cutoff == ratio * cutoff
        assert engine.pairlist.cutoff == max(1.0, ratio) * cutoff
        assert_matches_reference(engine)
        if name != "assembly":
            engine.run(4)
            assert engine.pairlist.n_reuses > 0
            assert_matches_reference(engine, engine._forces)


def test_ewald_components_on_the_assembly(systems):
    """The assembly has 1-4 pairs: the task lists leave them out, the 1-4
    pass carries their erfc term at full strength.  Every component agrees
    with the oracle — the PME task's at its bound — on fresh lists and on
    reused ones."""
    with engine_for(systems, "assembly", True, 2) as engine:
        system = engine.system
        assert len(system.exclusions.pairs14) > 0
        rng = np.random.default_rng(7)
        for reused in (False, True):
            if reused:  # well inside skin/2, so the lists stay
                system.positions += rng.uniform(-0.05, 0.05, system.positions.shape)
            assert_matches_reference(engine, engine.compute_forces())
            oracle = compute_ewald(system, engine.ewald)
            for component in (
                "energy_real", "energy_exclusion", "energy_self",
                "energy_background",
            ):
                assert getattr(engine._nb.last_ewald, component) == pytest.approx(
                    getattr(oracle, component), rel=RTOL, abs=1e-12
                ), component
            assert engine._nb.last_ewald.energy_recip == pytest.approx(
                oracle.energy_recip, rel=PME_ENERGY_RTOL
            )
        assert (engine.pairlist.n_builds, engine.pairlist.n_reuses) == (1, 1)


def test_ewald_list_reuse_step_enumerates_and_filters_nothing(systems, monkeypatch):
    """No per-step candidate sweep or exclusion test is left on an Ewald
    engine's path: both happen at list rebuilds only."""
    import repro.md.cells
    import repro.md.nonbonded
    from repro.md.topology import Exclusions

    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    # without workers the tasks run in this process, where the patches are
    with engine_for(systems, "water", True, 1) as engine:
        engine.step()
        for module in (repro.md.cells, repro.md.nonbonded):
            monkeypatch.setattr(
                module, "candidate_pairs",
                counted("candidate_pairs", module.candidate_pairs),
            )
        # the lists' exclusion test reads the per-atom table, once a rebuild
        for name in ("is_excluded", "atom_table"):
            monkeypatch.setattr(
                Exclusions, name, counted(name, getattr(Exclusions, name))
            )
        builds = engine.pairlist.n_builds
        engine.step()
        assert engine.pairlist.n_builds == builds  # a reuse step
        assert not calls
        engine.pairlist.invalidate()
        engine.step()
        assert calls["atom_table"] > 0 and not calls["candidate_pairs"]


#: the two kinds of task beside the cell blocks, each on the system that
#: has them: bonds, angles, dihedrals and impropers in groups; Ewald water
#: with its reciprocal sum in the PME task — every step, or every fourth
#: (multiple time stepping) on the skewed box:
#: case -> (system, ewald, recip_every)
CASES = {
    "bonded": ("assembly", False, 1),
    "pme": ("water", True, 1),
    "mts": ("skewed", True, 4),
}

#: what selects each executor at ``workers >= 2``: supervision asked for
#: means worker processes, anything else threads
SUPERVISED = {"recovery": RecoveryPolicy()}


def executor_of(engine) -> str:
    """Who ran a (possibly closed) engine's force tasks."""
    pool = engine._nb._pool
    if pool is None:
        return "sequential"
    return "threads" if isinstance(pool, InProcessExecutor) else "processes"


def trajectory(systems, case, workers, steps=None, restore=None, **kwargs):
    """``(engine, (positions, velocities, total energies))`` of a run of
    ``case``, optionally continuing a checkpoint."""
    name, ewald, recip_every = CASES[case]
    engine = engine_for(systems, name, ewald, workers, recip_every, **kwargs)
    with engine:
        if restore is not None:
            restore_run_checkpoint(engine, restore)
        totals = [report.total for report in engine.run(steps or STEPS[name])]
    system = engine.system
    return engine, (system.positions.copy(), system.velocities.copy(), totals)


def assert_same_bits(run, base):
    for got, expected in zip(run, base):
        assert np.array_equal(got, expected)


@pytest.fixture(scope="module")
def sequential(systems):
    """(case, backend[, skin]) -> ``trajectory(systems, case, 1,
    backend=backend[, skin=skin])``, run once per module."""
    runs = {}

    def run(case, backend, **skin):
        key = (case, backend, *skin.values())
        if key not in runs:
            runs[key] = trajectory(systems, case, 1, backend=backend, **skin)
        return runs[key]

    return run


@pytest.mark.parametrize("case", list(CASES))
class TestEwaldBitsDoNotDependOnWhoRunsTheTasks:
    """Not only Ewald's: the bonded groups' too (class name kept).  On the
    numpy backend; the subclass below repeats the matrix on ``c``."""

    backend = "numpy"

    def trajectory(self, systems, case, workers, **kwargs):
        engine, run = trajectory(
            systems, case, workers, backend=self.backend, **kwargs
        )
        assert engine.backend.name == self.backend
        return engine, run

    def test_executors(self, systems, sequential, case):
        """Threads at 2 and 3 workers and a supervised process pool."""
        engine, base = sequential(case, self.backend)
        assert type(engine) is SequentialEngine and not engine.parallel
        if case == "bonded":
            assert base[2][0] != 0.0 and engine.report().bonded.dihedral != 0.0
        else:
            assert engine.pairlist.n_reuses > 0
        runs = [("threads", 2, {}), ("threads", 3, {})]
        if HAS_SHARED_MEMORY:
            runs.append(("processes", 2, SUPERVISED))
        for executor, workers, kwargs in runs:
            engine, run = self.trajectory(systems, case, workers, **kwargs)
            assert executor_of(engine) == executor
            assert engine.resilience.mode == "full"
            assert_same_bits(run, base)

    @needs_shm
    @pytest.mark.skipif(not HAS_POSIX_SIGNALS, reason="platform lacks SIGKILL")
    def test_degrade_rung(self, systems, sequential, case):
        """Both workers lost mid-run: the tasks finish in-process."""
        _, base = sequential(case, self.backend)
        with pytest.warns(RuntimeWarning, match="pool degraded"):
            engine, run = self.trajectory(
                systems, case, 2, fault_plan="kill=0@2,kill=1@4",
                recovery=RecoveryPolicy(max_respawns=0),
            )
        assert engine.resilience.mode == "sequential"
        assert_same_bits(run, base)
        if case != "bonded":
            # the lost workers' k-table lookups stay in the engine's totals
            stats = engine.kspace_cache_stats()
            assert stats["builds"] + stats["hits"] > sum(stats["workers"][0].values())

    @pytest.mark.parametrize(
        "executor", ["threads", pytest.param("processes", marks=needs_shm)]
    )
    def test_lb_remap(self, systems, sequential, case, executor):
        """Tasks change workers mid-run.  A remap pins a list rebuild, so
        the comparison is made where every step rebuilds anyway.  On
        processes a slowed worker makes the balancer move tasks; threads
        take no fault plan, so a placement that ignores the static map
        moves them."""
        _, base = sequential(case, self.backend, skin=0.0)
        if executor == "threads":
            kwargs = {"lb_strategy": "round_robin"}
        else:
            kwargs = {"fault_plan": "slow=0@0-infx3"}
        engine, run = self.trajectory(
            systems, case, 3, skin=0.0, rebalance_every=3, **kwargs
        )
        assert executor_of(engine) == executor
        assert engine.remap_steps
        assert_same_bits(run, base)

    def test_checkpoint_resume(self, systems, case, tmp_path):
        """... and a resumed run need not even have the writer's workers,
        nor its executor."""
        path = tmp_path / "run.ckpt"
        _, written = self.trajectory(
            systems, case, 2, steps=10, checkpoint_every=4, checkpoint_path=path
        )
        checkpoint = load_run_checkpoint(path)
        assert checkpoint.step == 8
        resumes = [(1, {}), (3, {})]
        if HAS_SHARED_MEMORY:
            resumes.append((2, SUPERVISED))
        for workers, kwargs in resumes:
            _, resumed = self.trajectory(
                systems, case, workers, steps=2, restore=checkpoint, **kwargs
            )
            assert_same_bits(resumed[:2], written[:2])
            assert resumed[2] == written[2][-2:]


@pytest.mark.skipif(
    "c" not in available_backends(), reason="no C compiler on this host"
)
class TestBitsDoNotDependOnWhoRunsTheTasksOnTheCBackend(
    TestEwaldBitsDoNotDependOnWhoRunsTheTasks
):
    backend = "c"


@pytest.mark.skipif(
    "c" not in available_backends(), reason="no C compiler on this host"
)
def test_backends_agree_but_not_bit_for_bit(sequential):
    """1e-9 between the backends over the Ewald water trajectory, not
    equality — which is why the matrix is held on each."""
    _, (pos_c, _, totals_c) = sequential("pme", "c")
    _, (pos_n, _, totals_n) = sequential("pme", "numpy")
    assert totals_c == pytest.approx(totals_n, rel=1e-9)
    assert np.abs(pos_c - pos_n).max() <= 1e-9 * np.abs(pos_n).max()
    assert not np.array_equal(pos_c, pos_n)
