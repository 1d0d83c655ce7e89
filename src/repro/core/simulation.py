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
from repro.runtime.machine import ASCI_RED, MachineModel
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import SummaryProfile, TraceLog

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

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if not (0 < self.measure_last <= self.steps_per_phase):
            raise ValueError("measure_last must be in 1..steps_per_phase")
        for name in self.lb_schedule:
            base_names = name.split("+")
            for b in base_names:
                if b not in STRATEGIES:
                    raise ValueError(f"unknown LB strategy {b!r}")


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


@dataclass
class _ChareGraph:
    """The object ids of one phase's chares on its scheduler."""

    patch_oid: dict[int, int]
    oid_to_desc: dict[int, int]  # compute object id -> descriptor index


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

        Homes come from the static RCB map ``self.patch_proc``; migratable
        computes from ``placement``; non-migratables follow their anchor
        patch.
        """
        decomp = self.decomposition
        patch_proc = self.patch_proc

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

        return _ChareGraph(patch_oid=patch_oid, oid_to_desc=oid_to_desc)

    def _collect_phase(
        self,
        phase_index: int,
        strategy_applied: str | None,
        placement: dict[int, int],
        trace_full: bool,
        scheduler: Scheduler,
        graph: "_ChareGraph",
        completion_times: list[float],
    ) -> PhaseResult:
        """The scheduler's load sums, divided by the rounds it ran, become
        per-step loads."""
        cfg = self.config
        steps = cfg.steps_per_phase
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
        )

    def _run_phase(
        self,
        phase_index: int,
        strategy_applied: str | None,
        placement: dict[int, int],
        trace_full: bool,
    ) -> PhaseResult:
        """One scheduler run of ``steps_per_phase`` rounds at ``placement``."""
        cfg = self.config
        n_steps = cfg.steps_per_phase
        n_patches = self.decomposition.n_patches
        completion: dict[int, float] = {}
        round_counts: dict[int, int] = {}

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

        scheduler = Scheduler(
            cfg.n_procs,
            cfg.machine,
            trace_full=trace_full,
            optimized_multicast=cfg.optimized_multicast,
            proc_speed_factors=cfg.proc_speed_factors,
        )
        scheduler.set_control_handler(on_control)
        graph = self._build_chare_graph(scheduler, placement, n_steps)
        for p in range(n_patches):
            scheduler.inject(
                graph.patch_oid[p], "start", {}, size_bytes=0.0, at_time=0.0
            )
        scheduler.run()

        if len(completion) != n_steps:
            raise RuntimeError(
                f"phase {phase_index}: {len(completion)}/{n_steps} rounds "
                "completed (protocol deadlock)"
            )
        completion_times = [completion[r] for r in range(n_steps)]
        return self._collect_phase(
            phase_index,
            strategy_applied,
            placement,
            trace_full,
            scheduler,
            graph,
            completion_times,
        )

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
        patch_proc = self.patch_proc
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
        )

    def _apply_strategy(self, name: str, phase: PhaseResult) -> dict[int, int]:
        problem = self._build_problem(
            phase.placement, phase.measured_loads, phase.background_per_step
        )
        placement = dict(phase.placement)
        placement.update(solve(problem, name))
        return placement
