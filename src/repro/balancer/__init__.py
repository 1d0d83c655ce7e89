"""Measurement-based load balancing framework and strategies (paper §2.2, §3.2).

The framework/strategy split mirrors Charm++: the runtime measures object
loads — the simulated :class:`~repro.runtime.scheduler.Scheduler` sums
them, the real engine records them in a :class:`repro.instrument.WorkDB` —
and hands them over as one :class:`~repro.balancer.problem.LBProblem`; a
*strategy* is a pure function from that problem to a new object→processor
map, pluggable without touching the runtime.

Strategies provided:

* :func:`repro.balancer.greedy.greedy_strategy` — the paper's §3.2
  algorithm: biggest compute first, to the processor that avoids overload,
  maximizes co-located patches, minimizes new proxies, and is least loaded.
* :func:`repro.balancer.refine.refine_strategy` — the §3.2 refinement pass:
  only objects on overloaded processors move, only to underloaded ones.
* baselines in :mod:`repro.balancer.strategies` — random, round-robin and a
  communication-oblivious greedy, used by the ablation benchmarks.
* :func:`repro.balancer.rcb.recursive_coordinate_bisection` — the static
  initial patch placement.
"""

from repro.balancer.problem import LBProblem, ComputeItem, placement_stats
from repro.balancer.rcb import recursive_coordinate_bisection
from repro.balancer.greedy import greedy_strategy
from repro.balancer.refine import refine_strategy
from repro.balancer.diffusion import diffusion_strategy
from repro.balancer.phase_aware import phase_aware_strategy
from repro.balancer.strategies import (
    STRATEGIES,
    solve,
    keep_strategy,
    random_strategy,
    round_robin_strategy,
    greedy_load_only_strategy,
)

__all__ = [
    "solve",
    "LBProblem",
    "ComputeItem",
    "placement_stats",
    "recursive_coordinate_bisection",
    "greedy_strategy",
    "refine_strategy",
    "diffusion_strategy",
    "phase_aware_strategy",
    "STRATEGIES",
    "keep_strategy",
    "random_strategy",
    "round_robin_strategy",
    "greedy_load_only_strategy",
]
