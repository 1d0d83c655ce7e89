"""Baseline strategies and the registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balancer.problem import ComputeItem, LBProblem, placement_stats
from repro.balancer.strategies import (
    STRATEGIES,
    greedy_load_only_strategy,
    keep_strategy,
    random_strategy,
    round_robin_strategy,
    solve,
)


def problem(n=12, procs=4, seed=0):
    rng = np.random.default_rng(seed)
    items = [
        ComputeItem(i, float(rng.exponential(1.0)), (int(rng.integers(6)),),
                    proc=int(rng.integers(procs)))
        for i in range(n)
    ]
    return LBProblem(n_procs=procs, computes=items, background=np.zeros(procs),
                     patch_home={i: i % procs for i in range(6)})


class TestRegistry:
    def test_contains_paper_strategies(self):
        for name in ("greedy", "refine", "keep", "random", "round_robin",
                     "greedy_load_only"):
            assert name in STRATEGIES


class TestBaselines:
    def test_keep_identity(self):
        p = problem()
        assert keep_strategy(p) == {i.index: i.proc for i in p.computes}

    def test_random_deterministic_per_seed(self):
        p = problem()
        assert random_strategy(p, seed=3) == random_strategy(p, seed=3)

    def test_random_in_range(self):
        p = problem()
        assert all(0 <= v < p.n_procs for v in random_strategy(p).values())

    def test_round_robin_even_counts(self):
        p = problem(n=12, procs=4)
        counts = np.bincount(list(round_robin_strategy(p).values()), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_greedy_load_only_balances_load(self):
        p = problem(n=40, procs=4, seed=5)
        stats = placement_stats(p, greedy_load_only_strategy(p))
        assert stats["imbalance_ratio"] < 1.25

    def test_load_only_ignores_locality(self):
        """LPT balances load but scatters patches across processors."""
        items = [ComputeItem(i, 1.0, (7,), proc=0) for i in range(8)]
        p = LBProblem(n_procs=8, computes=items, background=np.zeros(8),
                      patch_home={7: 0})
        stats = placement_stats(p, greedy_load_only_strategy(p))
        assert stats["n_proxies"] == 7  # a proxy on every other processor

    @given(st.integers(1, 30), st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_all_strategies_produce_total_valid_placements(self, n, procs):
        p = problem(n=n, procs=procs, seed=n * 31 + procs)
        for name, strategy in STRATEGIES.items():
            placement = strategy(p)
            assert set(placement) == {i.index for i in p.computes}, name
            assert all(0 <= v < procs for v in placement.values()), name


class TestProblemValidation:
    def test_background_shape_checked(self):
        with pytest.raises(ValueError):
            LBProblem(n_procs=4, computes=[], background=np.zeros(3), patch_home={})

    def test_average_load(self):
        p = LBProblem(
            n_procs=2,
            computes=[ComputeItem(0, 3.0, (0,), 0)],
            background=np.array([1.0, 0.0]),
            patch_home={0: 0},
        )
        assert p.average_load() == pytest.approx(2.0)

    def test_patch_available(self):
        p = LBProblem(
            n_procs=2,
            computes=[],
            background=np.zeros(2),
            patch_home={0: 1},
            existing_proxies={(0, 0)},
        )
        assert p.patch_available(0, 1)  # home
        assert p.patch_available(0, 0)  # proxy
        assert not p.patch_available(1, 0)


class TestDeadProcessors:
    """The supervised pool's reassign rung hands a dead worker's tasks to
    the balancer with that worker in ``dead_procs``: the paper's strategies
    evacuate whatever is still placed on a dead processor and never choose
    one as a destination, even an idle one — nor an object heavier than any
    live processor can take within the overload limit."""

    @pytest.mark.parametrize("schedule", ["greedy", "refine", "greedy+refine"])
    def test_nothing_stays_on_or_moves_to_a_dead_processor(self, schedule):
        items = [
            ComputeItem(c.index, c.load, c.patches, proc=1)
            for c in problem(n=24, procs=4, seed=7).computes
        ] + [ComputeItem(24, 100.0, (0,), proc=1)]
        p = LBProblem(
            n_procs=4, computes=items, background=np.zeros(4),
            patch_home={i: 1 for i in range(6)}, dead_procs=frozenset({1, 3}),
        )
        placement = solve(p, schedule)
        assert set(placement) == {c.index for c in items}
        assert set(placement.values()) <= {0, 2}

    @pytest.mark.parametrize("dead", [{0}, {3}, {0, 2}, {0, 1, 2}],
                             ids=["first", "last", "alternate", "all-but-one"])
    @pytest.mark.parametrize("schedule", ["greedy", "refine", "greedy+refine"])
    def test_the_survivors_take_every_orphan(self, schedule, dead):
        """Whichever processors die — the first, the last, every other one,
        all but one — each object ends on a live one, and the load is
        spread: no one survivor is left with everything while another
        lives."""
        p = problem(n=24, procs=4, seed=11)
        p = LBProblem(
            n_procs=4, computes=p.computes, background=np.zeros(4),
            patch_home=p.patch_home, dead_procs=frozenset(dead),
        )
        placement = solve(p, schedule)
        live = set(range(4)) - dead
        assert set(placement) == {c.index for c in p.computes}
        assert set(placement.values()) <= live
        if len(live) > 1:
            assert len(set(placement.values())) > 1

    def test_average_load_counts_live_processors_only(self):
        p = LBProblem(
            n_procs=4, computes=[ComputeItem(0, 6.0, (0,), proc=0)],
            background=np.array([1.0, 1.0, 0.0, 0.0]), patch_home={0: 0},
            dead_procs=frozenset({3}),
        )
        assert (p.n_live, p.average_load()) == (3, 8.0 / 3)

    def test_no_live_processor_is_refused(self):
        with pytest.raises(ValueError, match="at least one processor"):
            LBProblem(
                n_procs=2, computes=[], background=np.zeros(2), patch_home={},
                dead_procs=frozenset({0, 1}),
            )
