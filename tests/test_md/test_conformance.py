"""The engine's conformance suite: its invariants, asserted here and
nowhere else, over one matrix of run configurations.

Every force term is a task — cell pair blocks, bonded groups and, under
Ewald, the PME task — and the engine without workers runs the same tasks
through the same per-step loop in-process.  So, on one kernel backend:

- **bit identity**: a run's positions, velocities and total energies equal
  those of the reference run of its task structure — the sequential
  engine's, or, with cell tasks split by ``grainsize_ms``, the threads' at
  the same grainsize — whatever the workers, the executor, or the
  disruption on the way;
- **oracle agreement**: the reference runs agree with the independent
  reference functions (``oracle.py``) to 1e-9, the PME part to its own
  bound;
- **cross-backend agreement**: ``c`` agrees with ``numpy`` to 1e-9, but not
  bit for bit, which is why the bits are held on each backend.

Axes: case × executor/workers × disruption (:data:`MATRIX`,
:data:`EXECUTORS`, :data:`DISRUPTIONS`), and the backend and grainsize.  On
the session's default backend (``c`` on a host with a compiler, or what
``REPRO_BACKEND`` names) the pinned cases run the full product of the
first three; on the other backend, a pairwise cover of it
(:data:`PAIRWISE`).  Split cell tasks, measured rebalancing and four
workers run a few pinned cases, and a hypothesis test draws single faults,
with and without a resume.

Where a disruption must move tasks it is forced: a remap by
``lb_strategy="round_robin"``, a placement that ignores the static map.
The measured schedule's remaps (``rebalance``) run where a slowed worker
makes them happen.  The suite asserts bits and that a remap happened,
never at which steps; the decisions on measured times are
``test_rebalance.py``'s.
"""

import itertools
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repro.md.tasks as tasks
from repro.backend import available_backends, get_backend
from repro.builder import small_water_box
from repro.md.engine import SequentialEngine, make_engine
from repro.md.ewald import EwaldOptions, compute_ewald
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions
from repro.md.parallel import HAS_SHARED_MEMORY
from repro.pool import HAS_POSIX_SIGNALS, InProcessExecutor, RecoveryPolicy
from repro.runtime.checkpoint import load_run_checkpoint, restore_run_checkpoint

from .oracle import PME_ENERGY_RTOL, RTOL, assert_matches_reference
from .test_engine import CopyingVerlet


class Case(NamedTuple):
    system: str  # the session fixture
    cutoff: float
    recip_every: int  # 0: cutoff electrostatics, else Ewald with PME
    steps: int
    skin: float
    reuses: bool = True  # whether its lists outlive a step


#: the kinds of task structure: cell blocks alone; bonds, angles, dihedrals
#: and impropers in groups (the unrelaxed assembly's contacts fly apart, so
#: it rebuilds every step whatever its skin); the PME task every step; the
#: PME task every fourth step (multiple time stepping) on a box of uneven
#: density, checkpointed mid-cycle; groups and the PME task.  The water runs
#: reuse their lists and rebuild them (at step 5 on water216, 4 on
#: skewed300), on 2 x 2 x 2 cells at any skin
CASES = {
    "cutoff": Case("water216", 6.5, 0, 5, 0.6),
    "bonded": Case("assembly", 8.0, 0, 3, 1.5, reuses=False),
    "pme": Case("water216", 6.5, 1, 5, 0.6),
    "mts": Case("skewed300", 7.0, 4, 5, 0.6),
    "bonded-pme": Case("assembly", 8.0, 1, 3, 1.5, reuses=False),
}
#: every checkpointing run writes one every second step: mid-cycle on the
#: ``mts`` case
CHECKPOINT_EVERY = 2

#: the matrix's case axis: the assembly under Ewald — 1-4 pairs at full
#: strength in the driver's pass — runs pinned cases only
MATRIX = ["cutoff", "bonded", "pme", "mts"]

#: executor/workers: what runs the force tasks beside the sequential engine
POOLS = {
    "threads-2": ("threads", 2),
    "threads-3": ("threads", 3),
    "processes-2": ("processes", 2),
    "processes-3": ("processes", 3),
    "threads-4": ("threads", 4),
}
#: the matrix's executor/workers axis, each executor and each worker count
#: but 4 once; the others run pinned cases: the split ones, the hypothesis
#: faults, the interleaved second engine, :data:`EXECUTORS_ASIDE`
EXECUTORS = ["threads-2", "processes-3"]

#: a silence of 20 clean steps' time, and at least a second, is a hang by
#: default; here 5, and 0.3 s, still dozens of these cases' steps
QUICK = RecoveryPolicy(min_hang_timeout_s=0.3, hang_grace_factor=5.0)

#: the faults a supervised pool heals, by disruption: workers -> (fault
#: plan, its recovery policy).  Evaluations 2 and 3, never a run's last (a
#: worker can ack it before the kill lands, and no later sweep finds it)
FAULTS = {
    "respawn": lambda w: ("kill=0@2,kill=1@3", RecoveryPolicy()),
    "reassign": lambda w: ("kill=1@3", RecoveryPolicy(max_respawns=0)),
    "degrade": lambda w: (
        ",".join(f"kill={k}@{min(2 + k, 3)}" for k in range(w)),
        RecoveryPolicy(max_respawns=0),
    ),
    "hang": lambda w: ("hang=1@3", QUICK),
    "slow": lambda w: ("slow=0@2-3x3", RecoveryPolicy()),
}
DISRUPTIONS = ["none", "remap", *FAULTS, "resume", "interleave"]

#: the remapping disruptions: steps, and the schedule that places the
#: tasks.  ``remap``: a placement that ignores the static map, so that tasks
#: move whatever the measured times say — at the third evaluation, the one
#: decision of its run.  ``rebalance`` (worker processes only): the engine's
#: own schedule, greedy and then refine, on measured times with worker 0
#: three times slower throughout — four decisions, and how many of them
#: move tasks, and when, is timing
REMAPS = {
    "remap": (3, {"lb_strategy": "round_robin"}),
    "rebalance": (8, {"fault_plan": "slow=0@0-infx3"}),
}


def runs_on(executor: str, disruption: str) -> bool:
    """Threads take no fault plan: faults are for worker processes."""
    return disruption not in FAULTS or POOLS[executor][0] == "processes"


#: the full product, on the default backend
PRODUCT = [
    (case, executor, disruption)
    for case, executor, disruption in itertools.product(
        MATRIX, EXECUTORS, DISRUPTIONS
    )
    if runs_on(executor, disruption)
]


def pairwise() -> list:
    """One run per (case, disruption), on an executor chosen so that every
    (case, executor) and (executor, disruption) pair comes up too: a
    disruption's cases rotate through the executors it runs on."""
    cover = []
    for c, case in enumerate(MATRIX):
        seen = {}  # disruptions so far, by the executors they run on
        for disruption in DISRUPTIONS:
            fits = tuple(e for e in EXECUTORS if runs_on(e, disruption))
            k = seen[fits] = seen.get(fits, -1) + 1
            cover.append((case, fits[(c + k) % len(fits)], disruption))
    return cover


#: the cover run on the other backend
PAIRWISE = pairwise()

DEFAULT = get_backend().name
OTHER = next((name for name in available_backends() if name != DEFAULT), None)


needs_shm = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="worker processes need shared memory"
)
needs_signals = pytest.mark.skipif(
    not HAS_POSIX_SIGNALS, reason="platform lacks SIGKILL/SIGSTOP"
)


def on(executor: str) -> list:
    """What ``executor`` needs of the platform."""
    return [needs_shm] if POOLS[executor][0] == "processes" else []


def matrix(cases):
    """``cases`` as parameters: each marked with what it needs of the
    platform, and the disrupted ones ``disruption`` (the CI's busy-host
    steps select them)."""
    params = []
    for case, executor, disruption in cases:
        marks = on(executor)
        if disruption in FAULTS:
            marks.append(needs_signals)
        if disruption != "none":
            marks.append(pytest.mark.disruption)
        params.append(pytest.param(
            case, executor, disruption, marks=marks,
            id=f"{case}-{executor}-{disruption}",
        ))
    return params


@pytest.fixture(scope="module")
def systems(water216, assembly, skewed300):
    return {"water216": water216, "assembly": assembly, "skewed300": skewed300}


class Run(NamedTuple):
    positions: np.ndarray
    velocities: np.ndarray
    totals: list
    checkpoints: list  # what a checkpointing run wrote, in order
    parallel: bool  # at the end: on live workers ...
    workers: int  # ... and how many


def engine_for(systems, case, workers, backend, integrator=None, ratio=1.0, **kwargs):
    """A fresh engine on ``case``'s system at 300 K; ``ratio``: its Ewald
    cutoff's to the LJ one."""
    c = CASES[case]
    system = systems[c.system].copy()
    system.assign_velocities(300.0, seed=5)
    if c.recip_every:
        kwargs["ewald"] = EwaldOptions(
            cutoff=c.cutoff * ratio, kmax=3, recip_every=c.recip_every
        )
    kwargs.setdefault("skin", c.skin)
    return make_engine(
        system, NonbondedOptions(cutoff=c.cutoff),
        integrator or VelocityVerlet(dt=1.0), workers=workers, backend=backend,
        **kwargs,
    )


def trajectory(
    systems, case, workers, backend, steps=None, restore=None, between=None,
    **kwargs,
):
    """``(engine, Run)`` of ``case``'s run, of ``steps`` steps if not the
    case's — or of the rest of it, from the checkpoint ``restore`` —
    calling ``between()`` after every step.  The engine is closed when it
    returns."""
    steps = (steps or CASES[case].steps) - (restore.step if restore else 0)
    with ExitStack() as stack:
        if kwargs.get("checkpoint_every"):
            folder = stack.enter_context(tempfile.TemporaryDirectory())
            kwargs["checkpoint_path"] = Path(folder) / "run.ckpt"
        engine = stack.enter_context(
            engine_for(systems, case, workers, backend, **kwargs)
        )
        assert engine.backend.name == backend
        if restore is not None:
            restore_run_checkpoint(engine, restore)
        totals, checkpoints = [], []
        for _ in range(steps):
            totals.append(engine.step().total)
            if engine.n_checkpoints > len(checkpoints):
                checkpoints.append(load_run_checkpoint(kwargs["checkpoint_path"]))
            if between is not None:
                between()
        live = engine.parallel, engine.workers
    system = engine.system
    run = Run(
        system.positions.copy(), system.velocities.copy(), totals, checkpoints,
        *live,
    )
    return engine, run


#: the reference runs by key, each run once a session
REFERENCES = {}


def reference(systems, case, backend, **kwargs):
    """The run every run of ``case`` with this task structure must
    reproduce — sequential, or with split cell tasks on two threads —
    run once a session."""
    c = CASES[case]
    for name in ("skin", "steps"):  # the case's own need no key
        if kwargs.get(name) == getattr(c, name):
            del kwargs[name]
    if not c.reuses:  # its checkpoints pin rebuilds that happen anyway
        kwargs["checkpoint_every"] = CHECKPOINT_EVERY
    key = (case, backend, *sorted(kwargs.items()))
    if key not in REFERENCES:
        workers = 2 if kwargs.get("grainsize_ms") else 1
        engine, run = trajectory(systems, case, workers, backend, **kwargs)
        assert (type(engine) is SequentialEngine) == (workers == 1)
        # several list lifetimes: rebuilds, and reuses where they happen
        assert engine.pairlist.n_builds > 1
        assert (engine.pairlist.n_reuses > 0) == (
            kwargs.get("skin", c.skin) > 0 and c.reuses
        )
        REFERENCES[key] = run
    return REFERENCES[key]


def assert_same_bits(run, base):
    """``run`` continues ``base`` bit for bit: the same final positions and
    velocities, and the same total energies for the steps it ran."""
    assert np.array_equal(run.positions, base.positions)
    assert np.array_equal(run.velocities, base.velocities)
    assert run.totals == base.totals[len(base.totals) - len(run.totals):]


def executor_of(engine) -> str:
    """Who ran a (possibly closed) engine's force tasks."""
    pool = engine._nb._pool
    if pool is None:
        return "sequential"
    return "threads" if isinstance(pool, InProcessExecutor) else "processes"


def check(systems, backend, case, executor, disruption, **split):
    """Run ``case`` on ``executor`` through ``disruption`` and hold it to
    its reference; ``split``: ``grainsize_ms`` for the cell tasks."""
    kind, workers = POOLS[executor]
    kwargs = dict(split)
    if kind == "processes":
        kwargs["recovery"] = RecoveryPolicy()
    ref = {"case": case, "backend": backend, **split}

    if disruption in FAULTS:
        plan, policy = FAULTS[disruption](workers)
        kwargs.update(fault_plan=plan, recovery=policy)
    elif disruption in REMAPS:
        # a decision every second evaluation.  A remap pins a list rebuild,
        # so the comparison is made where every step rebuilds anyway
        steps, schedule = REMAPS[disruption]
        kwargs.update(rebalance_every=2, **schedule)
        kwargs["steps"] = ref["steps"] = steps
        if CASES[case].reuses:
            kwargs["skin"] = ref["skin"] = 0.0

    if disruption == "resume":
        ref["checkpoint_every"] = kwargs["checkpoint_every"] = CHECKPOINT_EVERY
    base = reference(systems, **ref)

    if disruption == "resume":  # from the reference's first checkpoint
        first = base.checkpoints[0]
        assert first.step == CHECKPOINT_EVERY
        if CASES[case].recip_every > 1:
            assert first.step % CASES[case].recip_every  # mid-cycle
        engine, run = trajectory(
            systems, case, workers, backend, restore=first, **kwargs
        )
    elif disruption == "interleave":
        engine, run, partner_run = interleaved(
            systems, case, workers, backend, **kwargs
        )
        assert_same_bits(partner_run, reference(
            systems, "cutoff", backend
        ))
    elif disruption == "degrade":
        with pytest.warns(RuntimeWarning, match="pool degraded"):
            engine, run = trajectory(systems, case, workers, backend, **kwargs)
    else:
        engine, run = trajectory(systems, case, workers, backend, **kwargs)
    assert_same_bits(run, base)

    res = engine.resilience
    if disruption == "degrade":
        assert res.mode == "sequential" and not run.parallel
        if n := CASES[case].recip_every:
            # the table of the lost worker that ran the PME task, then the
            # in-process one; a lookup at every n-th step index from 0
            lookups = CASES[case].steps // n + 1
            assert engine.kspace_cache_stats() == {"builds": 2, "hits": lookups - 2}
        return
    assert executor_of(engine) == kind
    if disruption in REMAPS:
        assert engine.remap_steps
    elif disruption == "respawn":
        assert (res.kills_detected, res.respawns, res.mode) == (2, 2, "full")
    elif disruption == "reassign":
        assert res.respawns == 0 and res.tasks_reassigned > 0
        assert sum(res.reassigned_by_kind.values()) == res.tasks_reassigned
        assert set(res.reassigned_by_kind) <= {"cell", "bonded", "kspace"}
        assert res.mode == "degraded" and res.degraded_steps > 0
        assert run.parallel and run.workers == workers - 1  # one short
    elif disruption == "hang":
        assert (res.hangs_detected, res.respawns, res.mode) == (1, 1, "full")
    else:
        assert res.n_failures == 0 and res.mode == "full"


def interleaved(systems, case, workers, backend, **kwargs):
    """``case``'s run with a second engine — worker processes on the cutoff
    case, forked once this run's workers are live — stepped after each of
    its steps: ``(engine, run, partner's run)``."""
    steps = CASES["cutoff"].steps
    with ExitStack() as stack:
        partner, totals = [], []

        def between():
            if not partner:
                partner.append(stack.enter_context(engine_for(
                    systems, "cutoff", 2, backend, recovery=RecoveryPolicy()
                )))
            if len(totals) < steps:
                totals.append(partner[0].step().total)

        engine, run = trajectory(
            systems, case, workers, backend, between=between, **kwargs
        )
        while len(totals) < steps:
            between()
        assert executor_of(partner[0]) == "processes"
        system = partner[0].system
        other = Run(
            system.positions.copy(), system.velocities.copy(), totals, [],
            partner[0].parallel, partner[0].workers,
        )
    return engine, run, other


# --------------------------------------------------------------------------- #
# bit identity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("case, executor, disruption", matrix(PRODUCT))
def test_bits(systems, case, executor, disruption):
    check(systems, DEFAULT, case, executor, disruption)


@pytest.mark.skipif(OTHER is None, reason="one kernel backend on this host")
@pytest.mark.parametrize("case, executor, disruption", matrix(PAIRWISE))
def test_bits_on_the_other_backend(systems, case, executor, disruption):
    check(systems, OTHER, case, executor, disruption)


#: the pools the executor axis leaves out, for the pinned cases
EXECUTORS_ASIDE = [
    pytest.param(e, marks=on(e)) for e in ("threads-3", "processes-2", "threads-4")
]


@pytest.mark.parametrize("executor", EXECUTORS_ASIDE)
def test_bits_of_the_assembly_under_ewald(systems, executor):
    check(systems, DEFAULT, "bonded-pme", executor, "none")


#: cell tasks split into row stripes: their own task structure, held to
#: the threads at the same grainsize
SPLIT = [
    (case, executor, disruption)
    for case in ("cutoff", "pme")
    for executor, disruption in [
        ("threads-3", "none"), ("processes-2", "remap"),
        ("processes-3", "respawn"), ("threads-3", "resume"),
    ]
]


@pytest.mark.parametrize("case, executor, disruption", matrix(SPLIT))
def test_split_bits(systems, case, executor, disruption):
    check(
        systems, DEFAULT, case, executor, disruption,
        grainsize_ms=1.0,
    )


#: measured rebalancing, where it moves tasks: at 2 worker processes the
#: PME water's slowed worker often keeps its tasks
REBALANCED = [
    ("cutoff", "processes-2", "rebalance"), ("pme", "processes-3", "rebalance"),
]


@pytest.mark.parametrize("split", [{}, {"grainsize_ms": 1.0}], ids=["unsplit", "split"])
@pytest.mark.parametrize("case, executor, disruption", matrix(REBALANCED))
def test_bits_through_measured_rebalances(systems, case, executor, disruption, split):
    check(systems, DEFAULT, case, executor, disruption, **split)


def test_the_pairwise_cover_covers_every_pair():
    """Every pair of values of two axes, wherever the disruption runs on
    the executor, is in a run of :data:`PAIRWISE`."""
    for a, b in itertools.combinations(range(3), 2):
        pairs = {(run[a], run[b]) for run in PAIRWISE}
        assert pairs == {(run[a], run[b]) for run in PRODUCT}


@pytest.mark.parametrize("executor", EXECUTORS_ASIDE)
def test_bits_with_a_non_in_place_integrator(systems, executor):
    """An integrator that drifts into a fresh positions array, the
    contract's other allowed shape: the workers evaluate the positions it
    hands over."""
    kind, workers = POOLS[executor]
    kwargs = {"recovery": RecoveryPolicy()} if kind == "processes" else {}
    _, run = trajectory(
        systems, "cutoff", workers, DEFAULT,
        integrator=CopyingVerlet(dt=1.0), **kwargs,
    )
    assert_same_bits(run, reference(systems, "cutoff", DEFAULT))


@pytest.mark.disruption
@needs_shm
@needs_signals
@given(
    kind=st.sampled_from(["kill", "hang", "pause", "slow"]),
    worker=st.integers(min_value=0, max_value=1),
    step=st.integers(min_value=1, max_value=4),
    resume=st.booleans(),
)
# these run whatever the draw: the first-evaluation hang, a kill at the last
# evaluation drawn, a kill after a resume, and a pause
@example(kind="hang", worker=0, step=1, resume=False)
@example(kind="kill", worker=1, step=4, resume=False)
@example(kind="kill", worker=0, step=1, resume=True)
@example(kind="pause", worker=0, step=2, resume=False)
@settings(max_examples=5, deadline=None)
def test_any_single_fault_recovers_the_reference_bits(
    systems, kind, worker, step, resume
):
    """A kill, a hang, a pause that ends before it is detected, or a
    slowdown, of either worker at any of the first evaluations — of a run,
    or of a run resumed from the sequential reference's first checkpoint,
    the evaluations counted on from the restored index."""
    case = "cutoff"
    if not resume:
        base, restore, kwargs = reference(systems, case, DEFAULT), None, {}
        at = step
    else:
        kwargs = {"checkpoint_every": CHECKPOINT_EVERY}
        base = reference(systems, case, DEFAULT, **kwargs)
        restore = base.checkpoints[0]
        # a resumed run evaluates once a step (the forces are restored);
        # not its last evaluation
        assume(step < CASES[case].steps - restore.step)
        at = step + restore.nb_seq
    plan = {
        "kill": f"kill={worker}@{at}",
        "hang": f"hang={worker}@{at}",
        "pause": f"hang={worker}@{at}x0.1",
        "slow": f"slow={worker}@{at}-{at + 2}x3",
    }[kind]
    engine, run = trajectory(
        systems, case, 2, DEFAULT, restore=restore, fault_plan=plan,
        recovery=QUICK, **kwargs,
    )
    assert run.parallel
    if kind in ("kill", "hang"):
        assert engine.resilience.n_failures == 1
    assert_same_bits(run, base)


# --------------------------------------------------------------------------- #
# oracle agreement
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("split", [False, True], ids=["unsplit", "split"])
@pytest.mark.parametrize("case", MATRIX)
def test_references_match_the_oracle(systems, case, split):
    """What the references run, against the oracle at the first evaluation
    and then — but on the assembly, whose contacts fly apart under
    ``dt = 1`` — four steps on, on lists built steps before; under multiple
    time stepping at each of those steps: the outer ones carry
    ``recip_every ×`` the PME part, the inner ones none and report the last
    outer step's reciprocal energy."""
    c = CASES[case]
    kwargs = {"grainsize_ms": 1.0} if split else {}
    with engine_for(systems, case, 2 if split else 1, DEFAULT, **kwargs) as engine:
        assert (engine._nb.n_subtasks > engine._nb.n_parent_tasks) == split
        n = c.recip_every or 1
        assert_matches_reference(engine, weight=n)
        if case == "bonded":
            assert engine.report().bonded.dihedral != 0.0  # the case has them
            return
        e_outer = engine._nb.last_ewald.energy_recip if c.recip_every else None
        for step in range(1, 5):
            engine.step()
            weight = 0 if step % n else n
            if n > 1 or step == 4:
                assert_matches_reference(engine, engine._forces, weight)
            if n > 1:
                e_recip = engine._nb.last_ewald.energy_recip
                e_outer = e_recip if weight else e_outer
                assert e_recip == e_outer
        assert engine.pairlist.n_reuses > 0
        if n > 1:
            # a table lookup on outer evaluations only: the fresh one and
            # the first step's forces, both at step 0, and step 4 — one
            # build, the box never changing
            assert engine.kspace_cache_stats() == {"builds": 1, "hits": 2}


@pytest.mark.parametrize("ratio", [0.75, 1.25], ids=["below", "above"])
@pytest.mark.parametrize("case", ["pme", "mts", "bonded-pme"])
def test_ewald_cutoff_below_and_above_the_lj_cutoff(systems, case, ratio):
    """Lists and grid size to the longer of the two, each term keeps its
    own: on fresh lists and — but on the assembly, whose contacts fly
    apart — four steps on, on reused ones (an outer step under multiple
    time stepping)."""
    with engine_for(systems, case, 2, DEFAULT, ratio=ratio) as engine:
        assert engine.parallel
        cutoff = engine.options.cutoff
        assert engine.ewald.cutoff == ratio * cutoff
        assert engine.pairlist.cutoff == max(1.0, ratio) * cutoff
        weight = engine.ewald.recip_every
        assert_matches_reference(engine, weight=weight)
        if CASES[case].reuses:
            engine.run(4)
            assert engine.pairlist.n_reuses > 0
            assert_matches_reference(engine, engine._forces, weight)


def test_ewald_components_on_the_assembly(systems):
    """The assembly has 1-4 pairs: the task lists leave them out, the 1-4
    pass carries their erfc term at full strength.  Every component agrees
    with the oracle — the PME task's at its bound — on fresh lists and on
    reused ones."""
    with engine_for(systems, "bonded-pme", 2, DEFAULT) as engine:
        system = engine.system
        assert len(system.exclusions.pairs14) > 0
        rng = np.random.default_rng(7)
        for reused in (False, True):
            if reused:  # well inside skin/2, so the lists stay
                system.positions += rng.uniform(-0.05, 0.05, system.positions.shape)
            assert_matches_reference(engine, engine.compute_forces())
            ours = engine._nb.last_ewald
            oracle = compute_ewald(system, engine.ewald)
            for component in (
                "energy_real", "energy_exclusion", "energy_self",
                "energy_background",
            ):
                assert getattr(ours, component) == pytest.approx(
                    getattr(oracle, component), rel=RTOL, abs=1e-12
                ), component
            assert ours.energy_recip == pytest.approx(
                oracle.energy_recip, rel=PME_ENERGY_RTOL
            )
        assert (engine.pairlist.n_builds, engine.pairlist.n_reuses) == (1, 1)


#: task structures that none of the cases has: a box of one task cell (no
#: pool, its lone self task run in-process), that cell's self task cut into
#: slices on a pool, and more workers asked for than there are tasks —
#: ``(waters, seed, workers, grainsize_ms)``, at an 8 Å cutoff
STRUCTURES = {
    "one-cell": (50, 1, 4, 0.0),
    "one-cell-split": (200, 7, 3, 1.0),
    "clamped": (600, 7, 64, 0.0),
}


@pytest.mark.parametrize("structure", STRUCTURES)
def test_other_task_structures_match_the_oracle(structure):
    waters, seed, workers, grainsize_ms = STRUCTURES[structure]
    system = small_water_box(waters, seed=seed, relax=False)
    with make_engine(
        system, NonbondedOptions(cutoff=8.0), workers=workers,
        grainsize_ms=grainsize_ms,
    ) as engine:
        assert engine.parallel == (structure != "one-cell")
        assert_matches_reference(engine)


@pytest.mark.parametrize("terms", [2048, 300, 1])
def test_bonded_groups_of_any_size_match_the_oracle(monkeypatch, terms):
    """Bonded groups of about ``terms`` terms: one run of all cells, one a
    cell at most (``test_distributed_forces.py`` holds the layouts)."""
    monkeypatch.setattr(tasks, "BONDED_GROUP_TERMS", terms)
    system = small_water_box(500, seed=11, relax=False)
    with make_engine(system, NonbondedOptions(cutoff=8.0), workers=2) as engine:
        assert engine.parallel
        assert_matches_reference(engine)


# --------------------------------------------------------------------------- #
# cross-backend agreement
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(
    "c" not in available_backends(), reason="no C compiler on this host"
)
@pytest.mark.parametrize("case", MATRIX)
def test_backends_agree_but_not_bit_for_bit(systems, case):
    """1e-9 between the backends' references, not equality — but for the
    assembly's first step alone: its contacts fly apart, and the backends'
    last bits grow with them."""
    c_run = reference(systems, case, "c")
    numpy_run = reference(systems, case, "numpy")
    if case == "bonded":
        assert c_run.totals[0] == pytest.approx(numpy_run.totals[0], rel=RTOL)
        assert c_run.totals[0] != numpy_run.totals[0]
        return
    assert c_run.totals == pytest.approx(numpy_run.totals, rel=RTOL)
    scale = np.abs(numpy_run.positions).max()
    assert np.abs(c_run.positions - numpy_run.positions).max() <= RTOL * scale
    assert not np.array_equal(c_run.positions, numpy_run.positions)
