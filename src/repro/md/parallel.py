"""Real shared-memory parallel MD: the force tasks and who runs them.

Everything else in this repository *models* the paper's parallelism on a
simulated machine; this module actually runs it.  The non-bonded force
field — "eighty percent or more" of a step, paper §4.2.1 — is evaluated
as the cell tasks of :mod:`repro.md.tasks`, by one implementation
(:class:`repro.md.tasks.ForceTaskEvaluator`) on an executor of
:mod:`repro.pool`: ``workers`` evaluators on as many *threads* of this
process (:class:`ParallelEngine`; the kernels drop the GIL), a supervised
pool of worker *processes* when the caller asks for supervision (a
``fault_plan`` or a ``recovery`` policy — kills, hangs and their
recovery ladder need processes), or — without workers: ``workers == 1``,
pool failed to start, executor closed, recovery ladder at its bottom
rung — the calling thread itself, through the same per-step loop the
workers run.
The engines' bonded terms are task groups of the same family, and under
Ewald the cell tasks carry the real-space term (a mode of their pair
kernel) and one PME task the reciprocal sum, so the driver's share of a
step is the 1-4 pass and the O(n_excluded) remainder of
:func:`repro.md.ewald.ewald_remainder`.

The implementation is layered (see DESIGN.md): :mod:`repro.pool` is the
generic runtime (the thread executor; for the process pool spawn/respawn,
collision-free segments, the epoch'd dispatch/collect protocol and the
respawn → reassign → degrade recovery ladder; MD-free by contract);
:mod:`repro.md.tasks` holds the MD force tasks behind the
:class:`repro.pool.protocol.TaskProvider` interface;
:mod:`repro.md.lb_driver` makes the measurement-driven placement
decisions; this module is the orchestration — the cost-seeded partition,
WorkDB-fed load balancing (§2.2), the pack-once position multicast
(§4.2.3), the driver-overlapped remainder, and the task-ordered
assignment-independent reduction.

Determinism, in brief: task structure is fixed at construction from
deterministic priors only; every executor derives the task-ordered
scratch layout from the same *reference* positions (the snapshot of
:class:`repro.md.pairlist.VerletPairList`); the driver reduces with a
task-ordered segment-sum, so who computed a block never matters.
Trajectories are therefore bit-identical across worker counts (1
included), threads and processes, remaps, and every rung of the recovery
ladder — the bottom rung re-runs the same tasks against the same
reference data in-process.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from repro.backend import get_backend
from repro.md import lb_driver as _lb_driver

# compute_bonded is not called here: the perf harness
# (benchmarks/perf/spans.py) binds a span to this module attribute by name
from repro.md.bonded import BondedEnergies, BONDED_KINDS, compute_bonded  # noqa: F401
from repro.md.engine import SequentialEngine

# compute_ewald is the oracle, not called here: the perf harness binds its
# ``ewald.eval`` span to this module attribute by name, as above
from repro.md.ewald import (  # noqa: F401
    EwaldEnergies,
    EwaldOptions,
    compute_ewald,
    ewald_remainder,
)
from repro.md.nonbonded import (
    NonbondedOptions,
    NonbondedResult,
    nonbonded_14,
)
from repro.md.pairlist import VerletPairList
from repro.md.tasks import build_force_tasks, pair_reach
from repro.pool import (
    HAS_SHARED_MEMORY,
    InProcessExecutor,
    RecoveryPolicy,
    ResilienceStats,
    SupervisedPool,
    contiguous_partition,
    pool_fault_plan,
)
from repro.pool.protocol import (
    STAT_TIME_NS,
    STAT_V0 as STAT_E_LJ,
    STAT_V0 as STAT_TABLE_BUILT,
    STAT_V1 as STAT_E_EL,
    STAT_V2 as STAT_N_PAIRS,
)
from repro.util.cpus import available_cpu_count
from repro.util.faults import FaultPlan

__all__ = ["ParallelEngine", "ParallelNonbonded", "HAS_SHARED_MEMORY"]


class ParallelNonbonded:
    """The engines' non-bonded front end: force tasks on workers or in-process.

    Same quantity as the reference :func:`repro.md.nonbonded.
    compute_nonbonded`, evaluated as the force tasks of
    :mod:`repro.md.tasks` — on ``n_workers`` threads (processes under
    supervision) while they are attached (:attr:`active`), on the calling
    thread otherwise; the bits do not depend on which.  Split
    :meth:`dispatch`/:meth:`collect` calls let the caller overlap its own
    work with the workers; :meth:`compute` is the one-shot form.  Every
    evaluation feeds per-task timings into :attr:`workdb`, which drives
    the paper's balancers when ``rebalance_every > 0``.
    """

    #: teardown latency bound, mirrored from the pool runtime
    _TEARDOWN_BUDGET_S = SupervisedPool._TEARDOWN_BUDGET_S

    def __init__(
        self,
        system,
        options: NonbondedOptions | None = None,
        n_workers: int = 0,
        skin: float = 1.5,
        timeout: float = 120.0,
        rebalance_every: int = 0,
        lb_strategy: str | None = None,
        grainsize_ms: float = 0.0,
        fault_plan: FaultPlan | str | None = None,
        recovery: RecoveryPolicy | None = None,
        backend=None,
        ewald: EwaldOptions | None = None,
    ) -> None:
        """``n_workers == 0`` means "one per CPU", 1 means none (the tasks
        run in-process), and a negative count is refused; ``timeout``
        (seconds) bounds every wait on the workers.  The bonded terms are
        tasks too; ``ewald`` makes this evaluator own the *full*
        electrostatics, the reciprocal sum one PME task (every
        ``ewald.recip_every`` steps, see :meth:`dispatch`).
        ``rebalance_every=N`` runs an LB decision every N evaluations;
        ``lb_strategy`` overrides the greedy-then-refine schedule;
        ``grainsize_ms > 0`` splits expensive cell tasks into row stripes;
        ``fault_plan`` schedules deterministic fault injection — kills,
        hangs and per-worker slowdown windows at evaluation indices (string
        form ``"kill=1@3,hang=0@2x1.5,slow=0@2-8x4"``); ``recovery`` configures
        the supervision ladder.  Either one selects worker processes over
        threads; ``backend`` names the kernel set for driver
        and workers alike.  All modes keep the task-ordered reduction, so
        trajectories stay bit-identical across repeats, remaps, worker
        counts and recovery.
        """
        from repro.instrument import WorkDB

        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if n_workers < 0:
            raise ValueError("n_workers must be >= 0 (0 = one per CPU)")
        if rebalance_every < 0:
            raise ValueError("rebalance_every must be >= 0")
        if grainsize_ms < 0:
            raise ValueError("grainsize_ms must be >= 0")
        if lb_strategy is not None:
            _lb_driver.check_schedule(lb_strategy)
        if fault_plan is not None:
            fault_plan = pool_fault_plan(fault_plan)
        self.system = system
        self.options = options or NonbondedOptions()
        self.backend = get_backend(backend)
        self.timeout = float(timeout)
        self.rebalance_every = int(rebalance_every)
        self.lb_strategy = lb_strategy
        self.grainsize_ms = float(grainsize_ms)
        self.fault_plan = fault_plan
        self.policy = recovery or RecoveryPolicy()
        self.resilience = ResilienceStats()
        self.workdb = WorkDB()
        self.workdb.backend = self.backend.name
        self.ewald = ewald
        self.last_bonded: BondedEnergies | None = None
        self.last_ewald: EwaldEnergies | None = None
        #: the reciprocal energy of the last evaluation that ran the PME
        #: task — what the reports of the steps between two such carry
        self.last_recip_energy = 0.0
        #: the executor of ``n_workers`` evaluators — threads, or processes
        #: under supervision — while one is attached
        self._pool: InProcessExecutor | SupervisedPool | None = None
        #: the calling thread's executor, once the tasks run without workers
        self._local: InProcessExecutor | None = None
        #: ``(executor or None, rebuild, step payload, start time)`` of the
        #: evaluation awaiting collect()
        self._dispatched: tuple | None = None
        #: the reciprocal task's evaluations that built its influence table
        #: and those that reused it, whichever executor ran them
        self._kspace = {"builds": 0, "hits": 0}
        self.driver_compute_s = self.pool_wall_s = 0.0
        self.n_evals = 0
        self.n_rebalances = 0
        self.remap_steps: list[int] = []
        self.rebalance_log: list[dict] = []
        self._pending_assignment = None
        self._offsets = self._gather = None
        self._closed = False

        # "one per CPU" must mean CPUs this process may *run on* — on
        # cgroup/affinity-restricted hosts os.cpu_count() oversubscribes
        requested = int(n_workers) if n_workers else available_cpu_count()
        assignment = self._build_tasks(requested, skin)
        #: the one list-lifetime object: its snapshot is what every
        #: executor bins and builds from, its ``pairs`` the task-ordered
        #: reduction layout ``(offsets, gather)`` at that snapshot
        self.pairlist = VerletPairList(
            pair_reach(self.options, ewald), skin, self._provider.layout,
            backend=self.backend,
        )
        # the one executor selector: supervision asked for means worker
        # processes, anything else threads
        if self.n_workers > 1 and fault_plan is None and recovery is None:
            self._pool = InProcessExecutor(
                self._provider, self.n_workers, assignment, timeout=self.timeout
            )
        elif self.n_workers > 1:
            if fault_plan is not None:
                # checked here: a pool that fails to start only warns
                pool_fault_plan(fault_plan, self.n_workers)
            try:
                self._start_pool(assignment)
            except Exception as exc:  # pragma: no cover - platform dependent
                if self._pool is not None:
                    self._pool.close()
                    self._pool = None
                warnings.warn(
                    f"parallel worker pool unavailable ({exc!r}); "
                    "the force tasks run in-process",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if self._pool is None:
            self.n_workers = 1
        else:
            for w in range(self.n_workers):
                self.workdb.note_worker_backend(w, self.backend.name)

    @property
    def active(self) -> bool:
        """True while workers — threads or processes — are attached
        (started, not degraded, not closed); otherwise the tasks run on
        the calling thread."""
        return (
            not self._closed
            and self._pool is not None
            and self._pool.active
        )

    @property
    def n_rebuilds(self) -> int:
        """Evaluations that rebuilt the pair lists."""
        return self.pairlist.n_builds

    @property
    def seq(self) -> int:
        """The executor's evaluation counter (0 without workers)."""
        return self._pool.seq if self.active else 0

    @seq.setter
    def seq(self, value: int) -> None:
        # checkpoint restore realigns the counter so step-indexed events
        # (LB remaps, fault plans) land on the same absolute steps
        if self.active:
            self._pool.seq = int(value)

    def _build_tasks(self, requested: int, skin) -> np.ndarray:
        """Fix the task structure; returns the initial task→worker map."""
        spec = build_force_tasks(
            self.system,
            self.options,
            skin=skin,
            n_workers=requested,
            grainsize_ms=self.grainsize_ms,
            ewald=self.ewald,
            backend=self.backend,
        )
        provider = spec.provider
        tasks = provider.tasks
        self._provider = provider
        self._tasks = tasks
        self._n_nb = len(tasks)
        self._n_total = spec.n_total
        self._parents = spec.parents
        self._self_task_of = {
            a: t
            for t, (a, b, part, _np) in enumerate(tasks)
            if a == b and part == 0
        }
        # bonded groups do not count: none is worth a process of its own
        self.n_workers = n_workers = max(
            min(requested, self._n_nb + len(spec.kspace_ids)), 1
        )

        # static, cost-model-seeded block assignment: contiguous
        # near-equal-cost runs over the deterministic prior.  A bonded
        # group weighs nothing here and starts with its first cell's self
        # task instead — so which worker is home to a cell, the balancers'
        # first criterion, does not hinge on where a few percent of
        # bonded cost happened to land.
        costs = spec.all_costs.copy()
        n_bonded = sum(len(ids) for ids in spec.bonded_ids.values())
        costs[self._n_nb : self._n_nb + n_bonded] = 0.0
        bounds = contiguous_partition(costs, n_workers)
        assignment = np.repeat(
            np.arange(n_workers, dtype=np.int64), np.diff(bounds)
        )
        stride = provider.bonded_stride
        for x, xt in enumerate(provider.xtasks[:n_bonded]):
            assignment[self._n_nb + x] = assignment[
                self._self_task_of[xt[2] * stride]
            ]
        for t, (a, b, part, n_parts) in enumerate(tasks):
            patches = (a,) if a == b else (a, b)
            self.workdb.ensure_task(
                t,
                patches,
                prior=float(spec.sub_cost_arr[t]),
                owner=int(assignment[t]),
                parent=spec.sub_parents[t],
                part=part,
                n_parts=n_parts,
            )
        for x, xt in enumerate(provider.xtasks):
            t = self._n_nb + x
            if xt[0] == "kspace":
                self.workdb.ensure_task(
                    t, (), prior=float(spec.x_costs[x]),
                    owner=int(assignment[t]), kind="kspace",
                )
            else:
                _, kind, cell, intra = xt
                # the one patch a group declares is its run's first cell,
                # where it starts; inter-cell groups stay with their
                # initial owner: the balancer sees their load as
                # background (fixed_owner_loads)
                self.workdb.ensure_task(
                    t, (cell * stride,), prior=float(spec.x_costs[x]),
                    owner=int(assignment[t]), migratable=bool(intra),
                    kind="bonded",
                )
        self._bonded_ids = {
            k: np.asarray(v, dtype=np.int64)
            for k, v in spec.bonded_ids.items()
        }
        self._kspace_ids = np.asarray(spec.kspace_ids, dtype=np.int64)
        return assignment

    def _start_pool(self, assignment) -> None:
        self._pool = SupervisedPool(
            self._provider,
            self.n_workers,
            assignment,
            timeout=self.timeout,
            policy=self.policy,
            fault_plan=self.fault_plan,
            reassign=self._reassign_orphans,
            on_recovery_note=self.workdb.note_recovery,
        )
        # the pool's accounting is the engine's accounting — one object,
        # surviving pool close so post-degrade reports still read it
        self.resilience = self._pool.resilience

    @property
    def n_live(self) -> int:
        """Workers still serving tasks (``n_workers`` minus permanent dead)."""
        return self._pool.n_live if self.active else 1

    def dispatch(self, step: int = 0) -> None:
        """Start one evaluation at the system's current positions: decide
        whether the pair lists are stale, publish positions, start the
        workers, then refresh the reduction layout while they run.

        ``step`` is the engine's step index of these positions.  It sets
        the reciprocal task's weight, sent to every executor in the step
        payload: ``n = ewald.recip_every`` when ``step`` is a multiple of
        ``n``, else 0 (the task is skipped).  The caller must have wrapped
        positions into the primary cell (the engines do).  Exactly one
        :meth:`collect` must follow.  Without workers this only stages the
        evaluation; :meth:`collect` runs it.
        """
        if self._dispatched is not None:
            raise RuntimeError("dispatch() called with a collect() outstanding")
        # begin_step heals or degrades: a pool it cannot heal has closed
        pool = self._pool if self.active and self._pool.begin_step() else None
        pos = self.system.positions
        box = self.system.box
        if self._pending_assignment is not None:
            self.pairlist.invalidate()  # a new map installs at a rebuild
        rebuild = self.pairlist.needs_rebuild(pos, box)
        if rebuild:  # fail before any worker starts, not mid-step
            self._provider.check_layout(pos, box)
        n = 1 if self.ewald is None else self.ewald.recip_every
        payload = (tuple(float(x) for x in box), 0 if step % n else n)
        self._dispatched = (pool, rebuild, payload, time.monotonic())
        if pool is None:
            self._pending_assignment = None
        else:
            pool.view("pos")[...] = pos  # pack once; every worker maps it
            assignment_payload = None
            if rebuild:
                pool.view("ref")[...] = pos  # workers bin/build from this
                assignment_payload = pool.assignment
                if self._pending_assignment is not None:
                    if not np.array_equal(self._pending_assignment, pool.assignment):
                        self.remap_steps.append(pool.seq + 1)
                    assignment_payload = self._pending_assignment
                    self._pending_assignment = None
            pool.dispatch(rebuild, payload, assignment_payload)
        # the reduction layout, which only collect() reads: on a rebuild
        # the driver bins while the workers build their lists
        self._offsets, self._gather = self.pairlist.pairs(pos, box, stale=rebuild)

    def _run_in_process(self, rebuild: bool, payload) -> InProcessExecutor:
        """The outstanding evaluation's tasks — all of them — run here by
        the loop the workers run.  The first run (construction without
        workers, or the moment a pool is lost, possibly mid-step) builds
        its lists from the pair list's reference snapshot — the data the
        lost workers built theirs from."""
        if self._local is None:
            self._local = InProcessExecutor(self._provider)
            rebuild = True
        local = self._local
        local.view("pos")[...] = self.system.positions
        if rebuild:
            local.view("ref")[...] = self.pairlist.ref_positions
        local.run(rebuild, payload)
        return local

    def collect(self) -> NonbondedResult:
        """Finish the outstanding evaluation: driver remainder (1-4 pass
        and the Ewald exclusion/self/background terms — overlapped with
        the workers), gather, reduce.
        On worker processes, death, hang, or error during the wait is
        *recovered*, not fatal; when the whole ladder is exhausted — as
        when no workers were attached in the first place — the tasks run
        in-process.  The result is bit-identical in every case.  On
        threads, a task's exception re-raises here once every thread is
        done, before anything is reduced; a thread silent past
        ``timeout`` raises :class:`TimeoutError` and leaves the tasks to
        the calling thread from the next evaluation on."""
        if self._dispatched is None:
            raise RuntimeError("collect() called without a dispatch()")
        pool, rebuild, payload, t_dispatch = self._dispatched
        self._dispatched = None
        n = self.system.n_atoms
        forces = np.zeros((n, 3), dtype=np.float64)
        # overlap with the workers: the 1-4 pass (under Ewald it carries
        # those pairs' real-space term) and the Ewald remainder run on the
        # driver
        t_d0 = time.monotonic()
        e_lj14, e_el14, n14 = nonbonded_14(
            self.system, self.options, forces, backend=self.backend,
            ewald=self.ewald,
        )
        ew = None
        if self.ewald is not None:
            ew = ewald_remainder(self.system, self.ewald, forces)
        driver_s = time.monotonic() - t_d0

        if pool is not None and pool.collect():
            executor = pool
            step_wall = pool.finish_step()
        else:
            executor = self._run_in_process(rebuild, payload)
            step_wall = time.monotonic() - t_dispatch

        # task-ordered segment-sum reduction: bitwise independent of the
        # task→worker assignment (see module docstring)
        t_r0 = time.monotonic()
        used = int(self._offsets[-1])
        self.backend.segment_add(forces, self._gather, executor.scratch[:used])
        stats = executor.stats[: self._n_total]
        n_nb = self._n_nb
        e_lj = float(stats[:n_nb, STAT_E_LJ].sum())
        e_el = float(stats[:n_nb, STAT_E_EL].sum())
        n_pairs = int(round(float(stats[:n_nb, STAT_N_PAIRS].sum())))
        self.last_bonded = BondedEnergies(
            **{
                name: float(stats[self._bonded_ids[kind], STAT_E_LJ].sum())
                if kind in self._bonded_ids
                else 0.0
                for kind, name in enumerate(BONDED_KINDS)
            }
        )
        e_el_total = e_el + e_el14
        if ew is not None:
            # the pair tasks' electrostatic column is the real-space sum
            ew.energy_real = e_el_total
            if payload[1]:
                self.last_recip_energy = float(
                    stats[self._kspace_ids, STAT_E_EL].sum()
                )
                built = int(stats[self._kspace_ids, STAT_TABLE_BUILT].sum())
                self._kspace["builds"] += built
                self._kspace["hits"] += len(self._kspace_ids) - built
            ew.energy_recip = self.last_recip_energy
            self.last_ewald = ew
            e_el_total = ew.energy

        # feed the measurement database and run the LB schedule
        self.workdb.record_many(
            range(self._n_total),
            stats[:, STAT_TIME_NS] * 1e-9,
            executor.assignment,
        )
        self.workdb.mark_step()
        if (
            self.rebalance_every > 0
            and executor is pool
            and pool.seq % self.rebalance_every == 0
        ):
            self._plan_rebalance()
        t_red = time.monotonic() - t_r0
        driver_s += t_red
        self.driver_compute_s += driver_s
        # the reduction runs after the await that ends step_wall; fold it
        # into the wall too so driver_share stays a true fraction (<= 1)
        self.pool_wall_s += step_wall + t_red
        self.n_evals += 1
        return NonbondedResult(
            e_lj + e_lj14, e_el_total, forces, n_pairs + n14
        )

    # -- recovery hook: permanent reassignment through the WorkDB → LB path -- #
    def _reassign_orphans(self, w, assignment, survivors) -> np.ndarray:
        """Pool callback on permanent death: place the dead worker's
        tasks on survivors (see :func:`repro.md.lb_driver.reassign_orphans`)."""
        return _lb_driver.reassign_orphans(
            self.workdb,
            self.resilience,
            self.n_workers,
            self._self_task_of,
            w,
            assignment,
            survivors,
        )

    def compute(self) -> NonbondedResult:
        """One full force-task evaluation at the system's current positions."""
        self.dispatch()
        return self.collect()

    # -- driver-share and k-space table instrumentation -- #
    def driver_report(self) -> dict:
        """Cumulative driver-vs-pool wall-time split: ``driver_s`` is
        driver *compute* time, ``wall_s`` the dispatch→collect wall time,
        ``driver_share`` their ratio — the serial fraction the force tasks
        leave behind; ``executor`` says who runs the tasks now:
        ``"threads"``, ``"processes"`` or ``"in-process"``."""
        wall = self.pool_wall_s
        if not self.active:
            executor = "in-process"
        elif isinstance(self._pool, InProcessExecutor):
            executor = "threads"
        else:
            executor = "processes"
        return {
            "n_evals": self.n_evals,
            "driver_s": self.driver_compute_s,
            "wall_s": wall,
            "driver_share": self.driver_compute_s / wall if wall > 0 else 0.0,
            "executor": executor,
        }

    def kspace_cache_stats(self) -> dict:
        """The reciprocal task's influence-table ``builds`` and ``hits``
        (evaluations that reused the table) since construction, on every
        executor that ran it — a lost pool's included."""
        return dict(self._kspace)

    # -- measurement-based load balancing -- #
    def build_lb_problem(self):
        """The strategy-facing problem at the current measurement state
        (needs attached workers: the problem is their task→worker map)."""
        pool = self._pool
        return _lb_driver.build_driver_problem(
            self.workdb, self.n_workers, pool.assignment, self._self_task_of,
            pool.dead_workers,
        )

    def _plan_rebalance(self) -> None:
        """One LB decision: build the problem, run the schedule, stage the
        map.  The staged assignment installs at the next dispatch (which
        it forces to rebuild), so remap points are step-indexed even
        though the map *content* depends on noisy measurements — and the
        assignment-independent reduction keeps forces bit-identical
        regardless of that content."""
        schedule = self.lb_strategy or (
            "greedy" if self.n_rebalances == 0 else "refine"
        )
        new_assignment, record = _lb_driver.plan_rebalance(
            self.build_lb_problem(), self._pool.assignment, self._pool.seq,
            schedule,
        )
        self.rebalance_log.append(record)
        self.n_rebalances += 1
        self._pending_assignment = new_assignment

    def worker_loads(self) -> np.ndarray:
        """Predicted per-worker load (seconds/step) under the current map."""
        return self.workdb.owner_loads(self.n_workers)

    # -- grainsize diagnostics -- #
    @property
    def n_parent_tasks(self) -> int:
        """Half-shell cell tasks before grainsize splitting."""
        return len(self._parents)

    @property
    def n_subtasks(self) -> int:
        """Schedulable sub-tasks after grainsize splitting."""
        return len(self._tasks)

    def split_report(self) -> dict:
        """Summary of the construction-time grainsize decision."""
        parts = [n for (_a, _b, part, n) in self._tasks if part == 0]
        return {
            "grainsize_ms": self.grainsize_ms,
            "n_parent_tasks": len(self._parents),
            "n_subtasks": len(self._tasks),
            "n_split_parents": sum(1 for p in parts if p > 1),
            "max_parts": max(parts) if parts else 0,
        }

    def close(self) -> None:
        """Stop and join the workers, threads or processes, and release
        any shared memory (idempotent; safe under close-during-dispatch —
        an outstanding evaluation is dropped).  The evaluator stays usable:
        later evaluations run the same tasks in-process."""
        if self._closed:
            return
        self._closed = True
        self._dispatched = None
        if self._pool is not None:
            self._pool.close()

    def __del__(self) -> None:  # pragma: no cover - finalizer timing varies
        try:
            self.close()
        except Exception:
            pass


class ParallelEngine(SequentialEngine):
    """The MD engine with its force tasks on ``workers`` threads.

    Everything but the constructor is :class:`~repro.md.engine.
    SequentialEngine`: the same tasks, lists and reduction, so the
    trajectory does not depend on ``workers``.  A ``fault_plan`` or a
    ``recovery`` policy puts the tasks on supervised worker processes
    instead, with the same bits.  Use as a context manager — or call
    :meth:`close` — to stop the workers; a process pool is also stopped
    at interpreter exit, so stray engines never leak.
    """

    def __init__(
        self,
        system,
        options: NonbondedOptions | None = None,
        integrator=None,
        workers: int = 0,
        skin: float = 1.5,
        timeout: float = 120.0,
        rebalance_every: int = 0,
        lb_strategy: str | None = None,
        grainsize_ms: float = 0.0,
        fault_plan: FaultPlan | str | None = None,
        recovery: RecoveryPolicy | None = None,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        backend=None,
        ewald: EwaldOptions | None = None,
    ) -> None:
        """``workers == 0`` means one worker thread per CPU; the other
        knobs are those of :class:`ParallelNonbonded` /
        :class:`SequentialEngine`."""
        self._setup(
            system, options, integrator, checkpoint_every, checkpoint_path,
            backend, ewald,
            n_workers=workers,
            skin=skin,
            timeout=timeout,
            rebalance_every=rebalance_every,
            lb_strategy=lb_strategy,
            grainsize_ms=grainsize_ms,
            fault_plan=fault_plan,
            recovery=recovery,
        )
