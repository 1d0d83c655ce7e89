"""The parallel-simulation driver (paper §3.1–§3.2).

Orchestrates one NAMD-style run on the simulated machine:

1. decompose space into patches; assign bonded terms (§3);
2. build compute descriptors with cost-model loads and grainsize splitting
   (§4.2.1–2);
3. *static placement*: patches by recursive coordinate bisection, computes
   on the processor of their anchor patch (§3.2, stage 1);
4. run a measurement phase; collect the scheduler's measured loads; apply
   the greedy + refinement strategies; rebuild the object graph at the new
   placement; repeat per the LB schedule (§3.2, stages 2–3);
5. report steady-state per-step time from the final phase.

Between phases the chare graph is rebuilt rather than migrated in place;
the paper's steady-state step times likewise exclude the LB pause itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.balancer.problem import ComputeItem, LBProblem, placement_stats
from repro.balancer.rcb import recursive_coordinate_bisection
from repro.balancer.refine import refine_strategy
from repro.balancer.strategies import STRATEGIES, solve
from repro.core.chares import (
    BondedComputeChare,
    HomePatchChare,
    NonbondedComputeChare,
    ProxyPatchChare,
)
from repro.core.computes import ComputeDescriptor
from repro.costmodel.flops import DEFAULT_FLOPS, FlopModel
from repro.costmodel.grainsize import GrainsizeConfig
from repro.costmodel.model import DEFAULT_COST_MODEL, CostModel, WorkCounts
from repro.md.system import MolecularSystem
from repro.runtime.checkpoint import (
    ChareCheckpoint,
    Checkpoint,
    DoubleCheckpointStore,
    RecoveryEvent,
    RecoveryStats,
    restore_chare,
    snapshot_chare,
)
from repro.runtime.machine import ASCI_RED, MachineModel
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import SummaryProfile, TraceLog
from repro.util.faults import FaultPlan

__all__ = [
    "SimulationConfig",
    "StepTimings",
    "PhaseResult",
    "SimulationResult",
    "ParallelSimulation",
]


@dataclass
class SimulationConfig:
    """Everything configurable about a parallel run."""

    n_procs: int
    machine: MachineModel = ASCI_RED
    cutoff: float = 12.0
    dims: tuple[int, int, int] | None = None
    grainsize: GrainsizeConfig = field(default_factory=GrainsizeConfig)
    #: §4.2.2 bonded split (intra migratable / inter pinned); False emulates
    #: the earlier single-object design for the ablation benchmark
    split_bonded: bool = True
    #: §4.2.3 multicast optimization
    optimized_multicast: bool = True
    #: strategies applied between phases; names from
    #: ``repro.balancer.STRATEGIES`` plus the combo "greedy+refine"
    lb_schedule: tuple[str, ...] = ("greedy+refine", "refine")
    steps_per_phase: int = 6
    #: how many of each phase's final steps enter the timing average
    measure_last: int = 4
    #: keep full Projections-style traces for the final phase
    trace_final_phase: bool = False
    #: balance on measured loads (True, the paper's approach) or on
    #: cost-model loads (False)
    use_measured_loads: bool = True
    #: per-processor CPU slowdown factors (heterogeneous / externally
    #: loaded machine, ref [3]); None = homogeneous
    proc_speed_factors: "np.ndarray | None" = None
    #: deterministic fault schedule (processor death, transient slowdowns,
    #: message drop/delay/duplicate), its times in simulated seconds;
    #: None = fault-free run
    fault_plan: "FaultPlan | None" = None
    #: rounds between in-memory double checkpoints; 0 = checkpoint only at
    #: phase start (a baseline cut is always taken when resilience is on)
    checkpoint_interval: int = 0
    #: simulated seconds from a processor death to its detection (the
    #: keep-alive timeout of the failure detector)
    failure_detection_timeout: float = 5e-4

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if not (0 < self.measure_last <= self.steps_per_phase):
            raise ValueError("measure_last must be in 1..steps_per_phase")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.failure_detection_timeout <= 0:
            raise ValueError("failure_detection_timeout must be positive")
        for name in self.lb_schedule:
            base_names = name.split("+")
            for b in base_names:
                if b not in STRATEGIES:
                    raise ValueError(f"unknown LB strategy {b!r}")
        if self.fault_plan is not None:
            # a simulated processor dies or slows down; it never freezes
            if self.fault_plan.hangs:
                raise ValueError(
                    f"fault clause {self.fault_plan.hangs[0].clause!r}: the "
                    "simulated machine honours seed, kill, slow and the "
                    "message faults, not hang"
                )
            self.fault_plan.check_targets(self.n_procs, "processor", "machine")


@dataclass
class StepTimings:
    """Per-step completion times of one phase."""

    completion_times: list[float]
    measure_last: int

    @property
    def step_times(self) -> np.ndarray:
        """Intervals between consecutive step completions."""
        t = np.asarray(self.completion_times)
        return np.diff(t)

    @property
    def time_per_step(self) -> float:
        """Steady-state seconds/step.

        Averages up to ``measure_last`` *interior* step intervals: the first
        interval carries the pipeline fill and the last one omits the next
        round's position sends (there is no next round), so both are
        excluded whenever enough intervals exist.
        """
        diffs = self.step_times
        if len(diffs) == 0:
            return float(self.completion_times[-1]) if self.completion_times else 0.0
        interior = diffs[1:-1] if len(diffs) >= 3 else diffs
        k = min(self.measure_last, len(interior))
        return float(interior[-k:].mean())


@dataclass
class PhaseResult:
    """Measurements of one placement phase."""

    phase: int
    strategy_applied: str | None  # strategy that produced this placement
    timings: StepTimings
    summary: SummaryProfile
    placement: dict[int, int]
    stats: dict[str, float]
    trace: TraceLog | None
    measured_loads: dict[int, float]  # descriptor index -> per-step seconds
    background_per_step: np.ndarray
    #: fault-tolerance accounting; None when the phase ran without the
    #: resilience layer
    recovery: "RecoveryStats | None" = None
    #: processors lost (cumulatively) by the end of this phase
    dead_procs: tuple[int, ...] = ()


@dataclass
class SimulationResult:
    """Output of a full run (all phases)."""

    config: SimulationConfig
    phases: list[PhaseResult]
    counts: WorkCounts
    sequential_reference_s: float
    flops_per_step: float

    @property
    def final(self) -> PhaseResult:
        """The last (converged) phase."""
        return self.phases[-1]

    @property
    def time_per_step(self) -> float:
        """Steady-state seconds/step of the final phase."""
        return self.final.timings.time_per_step

    @property
    def speedup(self) -> float:
        """Sequential reference time / final time per step."""
        return self.sequential_reference_s / self.time_per_step

    @property
    def gflops(self) -> float:
        """Modeled flop rate at the final step time."""
        return self.flops_per_step / self.time_per_step / 1e9

    @property
    def recovery(self) -> RecoveryStats:
        """Aggregate fault-tolerance accounting across all phases."""
        total = RecoveryStats()
        for ph in self.phases:
            if ph.recovery is not None:
                total = total.merge(ph.recovery)
        return total

    @property
    def dead_procs(self) -> tuple[int, ...]:
        """Processors lost by the end of the run."""
        return self.phases[-1].dead_procs if self.phases else ()


@dataclass
class _ChareGraph:
    """All chares of one phase, as wired onto a scheduler."""

    patch_oid: dict[int, int]
    patch_chares: dict[int, HomePatchChare]
    compute_oid: dict[int, int]  # descriptor index -> object id
    compute_proc: dict[int, int]  # descriptor index -> processor
    oid_to_desc: dict[int, int]
    proxy_chares: dict[tuple[int, int], ProxyPatchChare]


class ParallelSimulation:
    """Builds and runs the full NAMD-style parallel structure."""

    def __init__(
        self,
        system: MolecularSystem,
        config: SimulationConfig,
        cost_model: CostModel | None = None,
        flop_model: FlopModel = DEFAULT_FLOPS,
        problem: "DecomposedProblem | None" = None,
    ) -> None:
        """``problem`` may carry a prebuilt :class:`DecomposedProblem`
        (shared across processor counts in a sweep); it must match the
        config's cutoff/grainsize/bonded settings or behaviour is undefined.
        """
        from repro.core.problem import DecomposedProblem

        self.system = system
        self.config = config
        self.cost_model = cost_model or (
            problem.cost_model if problem is not None else DEFAULT_COST_MODEL
        )
        self.flop_model = flop_model

        if problem is None:
            problem = DecomposedProblem.build(
                system,
                self.cost_model,
                cutoff=config.cutoff,
                dims=config.dims,
                grainsize=config.grainsize,
                split_bonded=config.split_bonded,
            )
        self.problem_setup = problem
        self.decomposition = problem.decomposition
        self.assignment = problem.assignment
        self.nb_descriptors = problem.nb_descriptors
        self.bonded_descriptors = problem.bonded_descriptors
        self.descriptors: list[ComputeDescriptor] = problem.descriptors
        self.counts = problem.counts

        # stage-1 static placement (§3.2)
        centers = np.array(
            [self.decomposition.coords(p) for p in range(self.decomposition.n_patches)],
            dtype=np.float64,
        )
        weights = np.array(
            [self.decomposition.patch_size(p) for p in range(self.decomposition.n_patches)],
            dtype=np.float64,
        )
        self.patch_proc = recursive_coordinate_bisection(
            centers, np.maximum(weights, 1.0), config.n_procs
        )
        self.initial_placement = {
            d.index: int(self.patch_proc[d.home_patch]) for d in self.descriptors
        }
        self._reset_fault_state()

    def _reset_fault_state(self) -> None:
        """Per-run resilience state: which processors have died so far and
        where each patch is homed on the (possibly degraded) machine."""
        self._dead_procs: set[int] = set()
        self._patch_proc_now = np.array(self.patch_proc, dtype=np.int64).copy()
        #: sum of completed phases' end times: converts the global fault-plan
        #: clock into each phase's local clock
        self._global_offset = 0.0

    # ------------------------------------------------------------------ #
    @property
    def sequential_reference_s(self) -> float:
        """Modeled one-processor step time on this machine (no messaging)."""
        return (
            self.cost_model.sequential_step_cost(self.counts)
            * self.config.machine.cpu_factor
        )

    @property
    def flops_per_step(self) -> float:
        """Flops of one MD step under the flop model."""
        return self.flop_model.step_flops(self.counts)

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute all phases of the LB schedule; returns all measurements."""
        self._reset_fault_state()
        placement = dict(self.initial_placement)
        schedule: list[str | None] = list(self.config.lb_schedule) + [None]
        phases: list[PhaseResult] = []
        strategy_applied: str | None = "static"
        for i, next_strategy in enumerate(schedule):
            trace_full = self.config.trace_final_phase and next_strategy is None
            phase = self._run_phase(i, strategy_applied, placement, trace_full)
            phases.append(phase)
            if next_strategy is not None:
                placement = self._apply_strategy(next_strategy, phase)
                strategy_applied = next_strategy
        return SimulationResult(
            config=self.config,
            phases=phases,
            counts=self.counts,
            sequential_reference_s=self.sequential_reference_s,
            flops_per_step=self.flops_per_step,
        )

    def run_phase_only(
        self, placement: dict[int, int] | None = None, trace_full: bool = False
    ) -> PhaseResult:
        """Run a single phase at a given placement (analysis/benchmarks)."""
        self._reset_fault_state()
        return self._run_phase(
            0, "static", placement or dict(self.initial_placement), trace_full
        )

    def _build_chare_graph(
        self,
        scheduler: Scheduler,
        placement: dict[int, int],
        n_rounds: int,
    ) -> "_ChareGraph":
        """Create and wire all chares on ``scheduler`` for one phase.

        Homes come from ``self._patch_proc_now`` (equal to the static RCB map
        until a failure re-homes patches onto survivors); migratable computes
        from ``placement``; non-migratables follow their anchor patch.
        """
        decomp = self.decomposition
        patch_proc = self._patch_proc_now

        # --- create home patches -------------------------------------- #
        patch_oid: dict[int, int] = {}
        patch_chares: dict[int, HomePatchChare] = {}
        for p in range(decomp.n_patches):
            atoms = decomp.patch_atoms[p]
            chare = HomePatchChare(
                p,
                atoms,
                self.cost_model.integration_cost(len(atoms)),
                n_rounds,
            )
            patch_oid[p] = scheduler.register(chare, int(patch_proc[p]))
            patch_chares[p] = chare

        # --- create computes ------------------------------------------ #
        compute_proc: dict[int, int] = {}
        compute_oid: dict[int, int] = {}
        oid_to_desc: dict[int, int] = {}
        for d in self.descriptors:
            if d.migratable:
                proc = int(placement.get(d.index, patch_proc[d.home_patch]))
            else:
                proc = int(patch_proc[d.home_patch])
            compute_proc[d.index] = proc
            chare: NonbondedComputeChare | BondedComputeChare
            if d.kind in ("nb_self", "nb_pair"):
                chare = NonbondedComputeChare(d.patches, d.load, d.part, d.n_parts)
            else:
                chare = BondedComputeChare(d.patches, d.load, d.migratable)
            oid = scheduler.register(chare, proc)
            compute_oid[d.index] = oid
            oid_to_desc[oid] = d.index

        # --- create proxies and wire everything ------------------------ #
        proxy_oid: dict[tuple[int, int], int] = {}
        proxy_chares: dict[tuple[int, int], ProxyPatchChare] = {}
        for d in self.descriptors:
            proc = compute_proc[d.index]
            for q in d.patches:
                if int(patch_proc[q]) != proc and (q, proc) not in proxy_oid:
                    proxy = ProxyPatchChare(
                        q, patch_oid[q], decomp.patch_size(q)
                    )
                    proxy_oid[(q, proc)] = scheduler.register(proxy, proc)
                    proxy_chares[(q, proc)] = proxy

        for d in self.descriptors:
            proc = compute_proc[d.index]
            cid = compute_oid[d.index]
            compute = scheduler.object(cid)
            for q in d.patches:
                if int(patch_proc[q]) == proc:
                    home = patch_chares[q]
                    home.local_compute_ids.append(cid)
                    compute.deposit_ids.append(patch_oid[q])
                else:
                    proxy = proxy_chares[(q, proc)]
                    proxy.local_compute_ids.append(cid)
                    compute.deposit_ids.append(proxy_oid[(q, proc)])

        for p in range(decomp.n_patches):
            home = patch_chares[p]
            home.proxy_ids = [
                oid for (q, _proc), oid in proxy_oid.items() if q == p
            ]
            home.expected_contributions = len(home.local_compute_ids) + len(
                home.proxy_ids
            )
        for proxy in proxy_chares.values():
            proxy.expected_deposits = len(proxy.local_compute_ids)

        return _ChareGraph(
            patch_oid=patch_oid,
            patch_chares=patch_chares,
            compute_oid=compute_oid,
            compute_proc=compute_proc,
            oid_to_desc=oid_to_desc,
            proxy_chares=proxy_chares,
        )

    def _collect_phase(
        self,
        phase_index: int,
        strategy_applied: str | None,
        placement: dict[int, int],
        trace_full: bool,
        scheduler: Scheduler,
        graph: "_ChareGraph",
        completion_times: list[float],
        measured_steps: int,
        recovery: "RecoveryStats | None" = None,
    ) -> PhaseResult:
        """``measured_steps`` is the number of rounds ``scheduler`` ran,
        which its load sums divide into per-step loads."""
        cfg = self.config
        steps = max(measured_steps, 1)
        measured_loads = {
            graph.oid_to_desc[oid]: load / steps
            for oid, load in scheduler.object_load.items()
            if oid in graph.oid_to_desc
        }
        background = scheduler.background_load / steps

        problem = self._build_problem(placement, measured_loads, background)
        stats = placement_stats(problem, placement)

        return PhaseResult(
            phase=phase_index,
            strategy_applied=strategy_applied,
            timings=StepTimings(completion_times, cfg.measure_last),
            summary=scheduler.trace.summary(),
            placement=dict(placement),
            stats=stats,
            trace=scheduler.trace if trace_full else None,
            measured_loads=measured_loads,
            background_per_step=background,
            recovery=recovery,
            dead_procs=tuple(sorted(self._dead_procs)),
        )

    # ------------------------------------------------------------------ #
    # the phase loop: checkpointing, failure detection, recovery
    # ------------------------------------------------------------------ #
    def _run_phase(
        self,
        phase_index: int,
        strategy_applied: str | None,
        placement: dict[int, int],
        trace_full: bool,
    ) -> PhaseResult:
        """Segmented phase execution with double checkpointing.

        The phase's rounds are executed in segments of ``checkpoint_interval``
        rounds.  Each segment ends at quiescence — a consistent global cut —
        where every chare's state is checkpointed to its processor and a
        buddy.  If processors die mid-segment the protocol stalls, the
        failure detector notices, and recovery rebuilds the chare graph on
        the survivors (forced refinement pass included), restores state from
        the last surviving checkpoint, and replays.  Without a fault plan
        or a checkpoint interval the phase is one segment with no cut at
        all, and reports ``recovery=None``.
        """
        cfg = self.config
        resilient = cfg.fault_plan is not None or cfg.checkpoint_interval != 0
        plan = (
            cfg.fault_plan.shifted(self._global_offset)
            if cfg.fault_plan is not None
            else None
        )
        n_steps = cfg.steps_per_phase
        interval = cfg.checkpoint_interval if cfg.checkpoint_interval > 0 else n_steps
        n_patches = self.decomposition.n_patches

        store = DoubleCheckpointStore(cfg.n_procs)
        recovery = RecoveryStats()
        completion: dict[int, float] = {}
        round_counts: dict[int, int] = {}
        placement = dict(placement)
        #: rounds completed on the current scheduler (a recovery starts a
        #: new one, whose load sums cover only the rounds it replays)
        measured_steps = [0]

        # Instrumentation covers every round: per-round work is identical
        # (the simulator moves no atoms), so totals divide exactly by
        # the round count.  Gating instrumentation to a tail window instead
        # would silently drop pipelined work that executes before the
        # slowest patch finishes the preceding round.
        def on_control(time: float, payload) -> None:
            tag, _patch, rnd = payload
            if tag != "step_done":
                return
            round_counts[rnd] = round_counts.get(rnd, 0) + 1
            if round_counts[rnd] == n_patches:
                completion[rnd] = time
                measured_steps[0] += 1

        def new_scheduler(start_time: float) -> Scheduler:
            s = Scheduler(
                cfg.n_procs,
                cfg.machine,
                trace_full=trace_full,
                optimized_multicast=cfg.optimized_multicast,
                proc_speed_factors=cfg.proc_speed_factors,
                fault_plan=plan,
                initially_dead=set(self._dead_procs),
                start_time=start_time,
            )
            s.set_control_handler(on_control)
            measured_steps[0] = 0
            return s

        def harvest(s: Scheduler) -> None:
            fs = s.fault_stats
            recovery.messages_dropped += fs["drops"]
            recovery.messages_delayed += fs["delays"]
            recovery.messages_duplicated += fs["duplicates"]
            recovery.messages_lost_to_dead += fs["dead_dropped"]

        scheduler = new_scheduler(0.0)
        graph = self._build_chare_graph(scheduler, placement, n_steps)
        start_at = 0.0
        if resilient:
            # baseline cut at round 0: the recovery floor for failures
            # striking before the first periodic checkpoint
            start_at = self._take_checkpoint(
                scheduler, graph, store, recovery, 0, 0.0
            )
        resume_round = 0

        while True:
            target = min(resume_round + interval, n_steps)
            for chare in graph.patch_chares.values():
                chare.n_rounds = target
            for p in range(n_patches):
                scheduler.inject(
                    graph.patch_oid[p], "start", {}, size_bytes=0.0, at_time=start_at
                )
            end = scheduler.run()

            new_dead = scheduler.dead_procs - self._dead_procs
            if new_dead:
                harvest(scheduler)
                scheduler, graph, start_at, resume_round = self._recover(
                    scheduler,
                    plan,
                    placement,
                    store,
                    recovery,
                    new_dead,
                    completion,
                    round_counts,
                    n_steps,
                    new_scheduler,
                )
                continue

            done = max(completion) + 1 if completion else 0
            if done != target:
                raise RuntimeError(
                    f"phase {phase_index}: {done}/{target} rounds completed "
                    "(protocol deadlock)"
                )
            if target >= n_steps:
                harvest(scheduler)
                break
            cost = self._take_checkpoint(
                scheduler, graph, store, recovery, target, end
            )
            resume_round = target
            start_at = end + cost

        self._global_offset += scheduler.now
        completion_times = [completion[r] for r in range(n_steps)]
        return self._collect_phase(
            phase_index,
            strategy_applied,
            placement,
            trace_full,
            scheduler,
            graph,
            completion_times,
            measured_steps[0],
            recovery=recovery if resilient else None,
        )

    def _take_checkpoint(
        self,
        scheduler: Scheduler,
        graph: "_ChareGraph",
        store: DoubleCheckpointStore,
        recovery: RecoveryStats,
        round_: int,
        time: float,
    ) -> float:
        """Checkpoint every chare to its owner + buddy; returns modeled cost.

        The cost is the slowest processor's pack + send + transit of its
        buddy-copy traffic — checkpointing is a barrier, so the max governs.
        Proxies are not checkpointed: at a quiescent cut they hold no state
        (deposit counters are zero) and recovery rebuilds them anyway.
        """
        cfg = self.config
        live = [p for p in range(cfg.n_procs) if p not in scheduler.dead_procs]
        chares: dict[tuple, ChareCheckpoint] = {}
        for p, chare in graph.patch_chares.items():
            owner = int(self._patch_proc_now[p])
            chares[("patch", p)] = ChareCheckpoint(
                ("patch", p),
                snapshot_chare(chare),
                owner,
                DoubleCheckpointStore.buddy_of(owner, live),
            )
        for idx, oid in graph.compute_oid.items():
            owner = graph.compute_proc[idx]
            chares[("compute", idx)] = ChareCheckpoint(
                ("compute", idx),
                snapshot_chare(scheduler.object(oid)),
                owner,
                DoubleCheckpointStore.buddy_of(owner, live),
            )
        cp = Checkpoint(round=round_, time=time, chares=chares)
        store.commit(cp)
        recovery.checkpoints_taken += 1

        m = cfg.machine
        cost = 0.0
        for p in live:
            b = cp.bytes_sent_from(p)
            if b:
                cost = max(
                    cost, m.pack_time(b) + m.send_overhead_s + m.transit_time(b)
                )
        recovery.checkpoint_time_s += cost
        return cost

    def _recover(
        self,
        scheduler: Scheduler,
        plan: "FaultPlan | None",
        placement: dict[int, int],
        store: DoubleCheckpointStore,
        recovery: RecoveryStats,
        new_dead: set[int],
        completion: dict[int, float],
        round_counts: dict[int, int],
        n_steps: int,
        new_scheduler,
    ) -> tuple[Scheduler, "_ChareGraph", float, int]:
        """Rebuild the run on the surviving processors from the last cut."""
        cfg = self.config
        self._dead_procs |= new_dead
        dead = self._dead_procs

        failure_time = min(scheduler.failure_times[p] for p in new_dead)
        detected = failure_time + cfg.failure_detection_timeout
        t0 = max(scheduler.now, detected)
        rounds_done = max(completion) + 1 if completion else 0

        cp = store.recovery_checkpoint(set(dead))
        r0 = cp.round
        for r in [r for r in completion if r >= r0]:
            del completion[r]
        for r in [r for r in round_counts if r >= r0]:
            del round_counts[r]

        # re-home patches that lived on dead processors: the buddy holding
        # their checkpoint copy becomes the new home
        live = sorted(set(range(cfg.n_procs)) - dead)
        for p in range(self.decomposition.n_patches):
            if int(self._patch_proc_now[p]) in dead:
                buddy = cp.chares[("patch", p)].buddy
                self._patch_proc_now[p] = buddy if buddy not in dead else live[0]

        # pull computes off dead processors (non-migratables simply follow
        # their re-homed anchor patch), then force a refinement pass against
        # the degraded machine
        for d in self.descriptors:
            if not d.migratable:
                placement[d.index] = int(self._patch_proc_now[d.home_patch])
            elif placement.get(d.index, -1) in dead:
                placement[d.index] = int(self._patch_proc_now[d.home_patch])
        problem = self._build_problem(placement, {}, np.zeros(cfg.n_procs))
        placement.update(refine_strategy(problem))

        # modeled cost of shipping the lost chares' buddy copies to their
        # new processors
        m = cfg.machine
        restore_bytes = sum(
            c.size_bytes for c in cp.chares.values() if c.owner in dead
        )
        restore_cost = (
            m.pack_time(restore_bytes)
            + m.send_overhead_s
            + m.transit_time(restore_bytes)
            if restore_bytes
            else 0.0
        )
        t_restart = t0 + restore_cost

        recovery.events.append(
            RecoveryEvent(
                procs=tuple(sorted(new_dead)),
                failure_time=failure_time,
                detected_time=detected,
                checkpoint_round=r0,
                rounds_done_at_failure=rounds_done,
                restore_cost_s=restore_cost,
                restart_time=t_restart,
            )
        )

        scheduler = new_scheduler(t_restart)
        graph = self._build_chare_graph(scheduler, placement, n_steps)
        for (kind, key), cc in cp.chares.items():
            if kind == "patch":
                restore_chare(graph.patch_chares[key], cc.state)
            else:
                restore_chare(scheduler.object(graph.compute_oid[key]), cc.state)
        return scheduler, graph, t_restart, r0

    # ------------------------------------------------------------------ #
    def _build_problem(
        self,
        placement: dict[int, int],
        measured_loads: dict[int, float],
        background: np.ndarray,
    ) -> LBProblem:
        """The strategy-facing problem: one compute per migratable
        descriptor, loaded with its measured per-step seconds where the
        phase measured it (and the config balances on measurements), else
        with its cost-model load on this machine — one measured phase fully
        replaces the cost model.  Non-migratable computes pin proxies of
        their remote patches, which strategies may reuse for free."""
        cfg = self.config
        patch_proc = self._patch_proc_now
        if not cfg.use_measured_loads:
            measured_loads = {}
        computes = []
        existing = set()
        for d in self.descriptors:
            proc = int(patch_proc[d.home_patch])
            if d.migratable:
                measured = measured_loads.get(d.index)
                computes.append(
                    ComputeItem(
                        index=d.index,
                        load=float(
                            d.load * cfg.machine.cpu_factor
                            if measured is None
                            else measured
                        ),
                        patches=tuple(int(q) for q in d.patches),
                        proc=int(placement.get(d.index, proc)),
                    )
                )
            else:
                existing.update(
                    (q, proc) for q in d.patches if int(patch_proc[q]) != proc
                )
        return LBProblem(
            n_procs=cfg.n_procs,
            computes=computes,
            background=background,
            patch_home={
                p: int(patch_proc[p]) for p in range(self.decomposition.n_patches)
            },
            existing_proxies=existing,
            dead_procs=frozenset(self._dead_procs),
        )

    def _apply_strategy(self, name: str, phase: PhaseResult) -> dict[int, int]:
        problem = self._build_problem(
            phase.placement, phase.measured_loads, phase.background_per_step
        )
        placement = dict(phase.placement)
        placement.update(solve(problem, name))
        return placement
