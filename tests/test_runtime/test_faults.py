"""Deterministic fault injection on the simulated machine: fates,
shifting, and scheduler behavior."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.chare import Chare
from repro.runtime.machine import MachineModel
from repro.runtime.scheduler import Scheduler
from repro.util.faults import (
    MAX_RETRANSMITS,
    FaultPlan,
    MessageFaults,
    ProcessorFailure,
    SlowdownWindow,
)

MACHINE = MachineModel(
    name="t",
    cpu_factor=1.0,
    send_overhead_s=1e-4,
    recv_overhead_s=2e-4,
    pack_per_byte_s=1e-6,
    latency_s=5e-4,
    bandwidth_Bps=1e6,
    local_send_overhead_s=1e-5,
)


class Counter(Chare):
    category = "test"

    def __init__(self, cost=1e-3):
        super().__init__()
        self.cost = cost
        self.hits = 0

    def ping(self, tag=None):
        self.hits += 1
        return self.cost


class Relay(Chare):
    category = "test"

    def __init__(self, targets=(), rounds=0, cost=1e-3):
        super().__init__()
        self.targets = list(targets)
        self.rounds = rounds
        self.hits = 0
        self.cost = cost

    def ping(self, hops=0):
        self.hits += 1
        if hops > 0:
            for t in self.targets:
                self.send(t, "ping", {"hops": hops - 1}, size_bytes=200.0)
        return self.cost


# --------------------------------------------------------------------- #
# message fates and slowdowns (the grammar: tests/test_util/test_faults.py)
# --------------------------------------------------------------------- #
class TestFate:
    def test_clean_plan_never_faults(self):
        plan = FaultPlan(seed=1)
        for seq in range(100):
            fate = plan.message_fate(seq)
            assert fate == (0, 0.0, False)

    def test_fate_is_deterministic(self):
        plan = FaultPlan.parse("seed=9,drop=0.2,delay=0.3@1e-4,dup=0.1")
        fates = [plan.message_fate(s) for s in range(200)]
        again = [plan.message_fate(s) for s in range(200)]
        assert fates == again

    def test_seed_changes_fates(self):
        a = FaultPlan.parse("seed=1,drop=0.3")
        b = FaultPlan.parse("seed=2,drop=0.3")
        assert any(a.message_fate(s) != b.message_fate(s) for s in range(100))

    def test_drop_rate_one_bounded_by_max_retransmits(self):
        plan = FaultPlan.parse("drop=1.0")
        for seq in range(20):
            fate = plan.message_fate(seq)
            assert fate.drops == MAX_RETRANSMITS

    def test_retransmit_delay_is_exponential(self):
        plan = FaultPlan.parse("retry=1e-5,drop=0.1")
        assert plan.retransmit_delay(0) == 0.0
        assert plan.retransmit_delay(1) == pytest.approx(1e-5)
        assert plan.retransmit_delay(3) == pytest.approx(7e-5)

    def test_slowdown_factor_multiplies_overlaps(self):
        plan = FaultPlan(
            slowdowns=(
                SlowdownWindow(0, 0.0, 1.0, 2.0),
                SlowdownWindow(0, 0.5, 1.5, 3.0),
                SlowdownWindow(1, 0.0, 1.0, 10.0),
            )
        )
        assert plan.slowdown_factor(0, 0.25) == 2.0
        assert plan.slowdown_factor(0, 0.75) == 6.0
        assert plan.slowdown_factor(0, 1.25) == 3.0
        assert plan.slowdown_factor(0, 2.0) == 1.0
        assert plan.slowdown_factor(2, 0.5) == 1.0


class TestShifted:
    def test_zero_offset_is_identity(self):
        plan = FaultPlan.parse("kill=0@1.0")
        assert plan.shifted(0.0) is plan

    def test_failures_rebased_and_dropped(self):
        plan = FaultPlan.parse("kill=0@1.0,kill=1@3.0")
        shifted = plan.shifted(2.0)
        assert shifted.failures == (ProcessorFailure(1, 1.0),)

    def test_windows_rebased_and_expired_dropped(self):
        plan = FaultPlan(
            slowdowns=(
                SlowdownWindow(0, 0.0, 1.0, 2.0),
                SlowdownWindow(0, 3.0, 4.0, 2.0),
            )
        )
        shifted = plan.shifted(2.0)
        assert shifted.slowdowns == (SlowdownWindow(0, 1.0, 2.0, 2.0),)


# --------------------------------------------------------------------- #
# scheduler integration
# --------------------------------------------------------------------- #
class TestSchedulerFailures:
    def test_kill_stops_execution_on_proc(self):
        plan = FaultPlan(failures=(ProcessorFailure(1, 0.0),))
        sched = Scheduler(2, MACHINE, fault_plan=plan)
        alive, dead = Counter(), Counter()
        oa = sched.register(alive, 0)
        od = sched.register(dead, 1)
        sched.inject(oa, "ping", {})
        sched.inject(od, "ping", {})
        sched.run()
        assert alive.hits == 1
        assert dead.hits == 0
        assert sched.dead_procs == {1}
        assert sched.failure_times[1] == 0.0
        assert sched.fault_stats["dead_dropped"] >= 1

    def test_register_on_dead_proc_refused(self):
        sched = Scheduler(2, MACHINE, initially_dead={1})
        with pytest.raises(ValueError):
            sched.register(Counter(), 1)

    def test_migrate_to_dead_proc_refused(self):
        sched = Scheduler(3, MACHINE, initially_dead={2})
        c = Counter()
        c.migratable = True
        oid = sched.register(c, 0)
        with pytest.raises(ValueError):
            sched.migrate(oid, 2)
        sched.migrate(oid, 1)  # live destination still fine
        assert sched.location_of(oid) == 1

    def test_all_dead_refused(self):
        with pytest.raises(ValueError):
            Scheduler(2, MACHINE, initially_dead={0, 1})

    def test_kill_before_start_time_applies_immediately(self):
        plan = FaultPlan(failures=(ProcessorFailure(1, 0.5),))
        sched = Scheduler(2, MACHINE, fault_plan=plan, start_time=1.0)
        assert 1 in sched.dead_procs
        assert sched.failure_times[1] == 1.0

    def test_kill_after_the_last_event_waits_for_the_run_it_falls_in(self):
        """run() stops at its last arrival, completion or control event: a
        kill timed after it stays queued, and strikes in the run whose
        events reach its time."""
        plan = FaultPlan(failures=(ProcessorFailure(1, 1.0),))
        sched = Scheduler(2, MACHINE.with_overrides(recv_overhead_s=0.0), fault_plan=plan)
        c = Counter(cost=1e-3)
        oid = sched.register(c, 1)
        sched.inject(oid, "ping", {}, size_bytes=0.0)
        assert sched.run() == pytest.approx(1e-3)
        assert sched.dead_procs == set() and sched.quiescent()
        sched.inject(oid, "ping", {}, size_bytes=0.0, at_time=2.0)
        assert sched.run() == 2.0
        assert sched.dead_procs == {1} and sched.failure_times[1] == 1.0
        assert c.hits == 1 and sched.fault_stats["dead_dropped"] == 1

    def test_slowdown_window_stretches_execution(self):
        plan = FaultPlan(slowdowns=(SlowdownWindow(0, 0.0, 10.0, 4.0),))
        for p, expected in ((None, 1e-3), (plan, 4e-3)):
            sched = Scheduler(1, MACHINE.with_overrides(recv_overhead_s=0.0),
                              fault_plan=p)
            c = Counter(cost=1e-3)
            sched.inject(sched.register(c, 0), "ping", {})
            end = sched.run()
            assert end == pytest.approx(expected)


class TestSchedulerMessageFaults:
    def _ring(self, sched, n=6, hops=3):
        """n relays in a ring, each forwarding for `hops` generations."""
        relays = [Relay(rounds=hops) for _ in range(n)]
        for i, r in enumerate(relays):
            sched.register(r, i % sched.n_procs)
        for i, r in enumerate(relays):
            r.targets = [relays[(i + 1) % n].object_id]
        sched.inject(relays[0].object_id, "ping", {"hops": hops})
        return relays

    def test_drops_delay_but_deliver(self):
        plan = FaultPlan.parse("seed=2,drop=0.5")
        clean = Scheduler(2, MACHINE)
        faulty = Scheduler(2, MACHINE, fault_plan=plan)
        a, b = self._ring(clean), self._ring(faulty)
        t_clean, t_faulty = clean.run(), faulty.run()
        # same deliveries, later finish
        assert [r.hits for r in a] == [r.hits for r in b]
        assert faulty.fault_stats["drops"] > 0
        assert t_faulty > t_clean

    def test_duplicates_suppressed(self):
        plan = FaultPlan.parse("seed=4,dup=1.0")
        sched = Scheduler(2, MACHINE, fault_plan=plan)
        relays = self._ring(sched)
        sched.run()
        # every logical message executed once despite a duplicate of each
        assert sum(r.hits for r in relays) == 4  # 1 injected + 3 hops
        assert sched.fault_stats["duplicates"] > 0
        assert (
            sched.fault_stats["suppressed_duplicates"]
            == sched.fault_stats["duplicates"]
        )

    def test_delay_adds_latency(self):
        plan = FaultPlan.parse("seed=6,delay=1.0@5e-3")
        clean = Scheduler(2, MACHINE)
        faulty = Scheduler(2, MACHINE, fault_plan=plan)
        self._ring(clean), self._ring(faulty)
        assert faulty.run() > clean.run()
        assert faulty.fault_stats["delays"] > 0


# --------------------------------------------------------------------- #
# the determinism property (hypothesis)
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    drop=st.floats(0.0, 0.6),
    delay=st.floats(0.0, 0.6),
    dup=st.floats(0.0, 0.6),
)
def test_same_plan_gives_identical_event_trace(seed, drop, delay, dup):
    """Two runs with the same FaultPlan produce byte-identical event logs."""
    plan = FaultPlan(
        seed=seed,
        message_faults=MessageFaults(
            drop_rate=drop, delay_rate=delay, duplicate_rate=dup
        ),
    )

    def run_once():
        sched = Scheduler(3, MACHINE, fault_plan=plan, record_events=True)
        relays = [Relay(rounds=2) for _ in range(5)]
        for i, r in enumerate(relays):
            sched.register(r, i % 3)
        for i, r in enumerate(relays):
            r.targets = [relays[(i + 1) % 5].object_id,
                         relays[(i + 2) % 5].object_id]
        sched.inject(relays[0].object_id, "ping", {"hops": 2})
        sched.run()
        return list(sched.event_log)

    assert run_once() == run_once()
