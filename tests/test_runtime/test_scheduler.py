"""The discrete-event chare scheduler: ordering, costs, overlap, migration."""

import pytest

from repro.runtime.chare import Chare
from repro.runtime.machine import ASCI_RED, MachineModel
from repro.runtime.message import Priority
from repro.runtime.scheduler import Scheduler

#: zero-overhead machine so tests reason about pure handler costs
IDEAL = MachineModel(
    name="ideal",
    cpu_factor=1.0,
    send_overhead_s=0.0,
    recv_overhead_s=0.0,
    pack_per_byte_s=0.0,
    latency_s=0.0,
    bandwidth_Bps=1e30,
    local_send_overhead_s=0.0,
)


class Recorder(Chare):
    category = "test"

    def __init__(self, cost=0.0):
        super().__init__()
        self.cost = cost
        self.log = []

    def ping(self, tag=None):
        self.log.append((tag, self.runtime.now))
        return self.cost

    def ping_and_forward(self, dest=None):
        self.log.append(("fwd", self.runtime.now))
        if dest is not None:
            self.send(dest, "ping", {"tag": "forwarded"})
        return self.cost


class TestBasics:
    def test_register_and_locate(self):
        sched = Scheduler(2, IDEAL)
        c = Recorder()
        oid = sched.register(c, 1)
        assert sched.location_of(oid) == 1
        assert sched.object(oid) is c

    def test_register_bad_proc(self):
        sched = Scheduler(2, IDEAL)
        with pytest.raises(ValueError):
            sched.register(Recorder(), 5)

    @pytest.mark.parametrize("proc", [-1, 2])
    def test_register_just_outside_the_machine_refused(self, proc):
        sched = Scheduler(2, IDEAL)
        with pytest.raises(ValueError, match=f"processor {proc} out of range 0..1"):
            sched.register(Recorder(), proc)

    def test_no_processor_refused(self):
        with pytest.raises(ValueError, match="at least one processor"):
            Scheduler(0, IDEAL)

    @pytest.mark.parametrize(
        "factors",
        [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], [1.0, 0.0], [1.0, -2.0]],
        ids=["too-few", "too-many", "2-d", "zero", "negative"],
    )
    def test_speed_factors_must_be_positive_one_per_proc(self, factors):
        with pytest.raises(ValueError, match="one per proc"):
            Scheduler(2, IDEAL, proc_speed_factors=factors)

    def test_run_returns_the_time_of_the_last_event(self):
        sched = Scheduler(2, IDEAL)
        a, b = Recorder(cost=1.0), Recorder(cost=3.0)
        sched.inject(sched.register(a, 0), "ping", {})
        sched.inject(sched.register(b, 1), "ping", {})
        assert sched.run() == pytest.approx(3.0)
        assert sched.run() == pytest.approx(3.0)  # nothing left: the clock stays

    def test_a_later_injection_runs_at_its_time(self):
        """A run stops at its last event; a message injected for a later
        time waits for the run that reaches it, and the clock resumes from
        there."""
        sched = Scheduler(1, IDEAL)
        c = Recorder(cost=1e-3)
        oid = sched.register(c, 0)
        sched.inject(oid, "ping", {"tag": 1})
        assert sched.run() == pytest.approx(1e-3)
        assert sched.quiescent()
        sched.inject(oid, "ping", {"tag": 2}, at_time=2.0)
        assert sched.run() == pytest.approx(2.0 + 1e-3)
        assert c.log == [(1, 0.0), (2, 2.0)]

    def test_inject_and_run(self):
        sched = Scheduler(1, IDEAL)
        c = Recorder()
        oid = sched.register(c, 0)
        sched.inject(oid, "ping", {"tag": "x"})
        sched.run()
        assert c.log == [("x", 0.0)]
        assert sched.quiescent()

    def test_execution_advances_clock_by_cost(self):
        sched = Scheduler(1, IDEAL)
        a, b = Recorder(cost=1.0), Recorder()
        oa = sched.register(a, 0)
        ob = sched.register(b, 0)
        sched.inject(oa, "ping_and_forward", {"dest": ob})
        sched.run()
        # b's handler starts after a's 1.0s execution completes
        assert b.log[0][1] == pytest.approx(1.0)

    def test_cpu_factor_scales_duration(self):
        machine = IDEAL.with_overrides(cpu_factor=0.5)
        sched = Scheduler(1, machine)
        a, b = Recorder(cost=1.0), Recorder()
        oa, ob = sched.register(a, 0), sched.register(b, 0)
        sched.inject(oa, "ping_and_forward", {"dest": ob})
        sched.run()
        assert b.log[0][1] == pytest.approx(0.5)

    def test_serial_execution_on_one_processor(self):
        sched = Scheduler(1, IDEAL)
        a = Recorder(cost=2.0)
        b = Recorder(cost=2.0)
        oa, ob = sched.register(a, 0), sched.register(b, 0)
        sched.inject(oa, "ping", {"tag": 1})
        sched.inject(ob, "ping", {"tag": 2})
        sched.run()
        assert a.log[0][1] == 0.0
        assert b.log[0][1] == pytest.approx(2.0)  # waits for the processor

    def test_parallel_execution_on_two_processors(self):
        sched = Scheduler(2, IDEAL)
        a = Recorder(cost=2.0)
        b = Recorder(cost=2.0)
        oa, ob = sched.register(a, 0), sched.register(b, 1)
        sched.inject(oa, "ping", {"tag": 1})
        sched.inject(ob, "ping", {"tag": 2})
        sched.run()
        assert a.log[0][1] == 0.0
        assert b.log[0][1] == 0.0  # truly concurrent


class TestPriorities:
    def test_high_priority_jumps_queue(self):
        sched = Scheduler(1, IDEAL)
        busy = Recorder(cost=1.0)
        lo, hi = Recorder(cost=0.5), Recorder(cost=0.5)
        ob = sched.register(busy, 0)
        ol = sched.register(lo, 0)
        oh = sched.register(hi, 0)
        sched.inject(ob, "ping", {"tag": "busy"})  # occupies proc until t=1
        sched.inject(ol, "ping", {"tag": "low"}, priority=Priority.LOW)
        sched.inject(oh, "ping", {"tag": "high"}, priority=Priority.HIGH)
        sched.run()
        assert hi.log[0][1] < lo.log[0][1]

    def test_fifo_within_priority(self):
        sched = Scheduler(1, IDEAL)
        busy = Recorder(cost=1.0)
        a, b = Recorder(cost=0.5), Recorder(cost=0.5)
        sched.inject(sched.register(busy, 0), "ping", {})
        oa, ob = sched.register(a, 0), sched.register(b, 0)
        sched.inject(oa, "ping", {"tag": "first"})
        sched.inject(ob, "ping", {"tag": "second"})
        sched.run()
        assert a.log[0][1] < b.log[0][1]


class TestCommunicationCosts:
    def test_latency_delays_remote_delivery(self):
        machine = IDEAL.with_overrides(latency_s=0.25)
        sched = Scheduler(2, machine)
        a, b = Recorder(cost=0.0), Recorder()
        oa, ob = sched.register(a, 0), sched.register(b, 1)
        sched.inject(oa, "ping_and_forward", {"dest": ob})
        sched.run()
        assert b.log[0][1] == pytest.approx(0.25)

    def test_bandwidth_delays_large_messages(self):
        machine = IDEAL.with_overrides(bandwidth_Bps=1000.0)

        class BigSender(Chare):
            def go(self, dest=None):
                self.send(dest, "ping", {"tag": "big"}, size_bytes=500.0)
                return 0.0

        sched = Scheduler(2, machine)
        sender, receiver = BigSender(), Recorder()
        os_, or_ = sched.register(sender, 0), sched.register(receiver, 1)
        sched.inject(os_, "go", {"dest": or_})
        sched.run()
        assert receiver.log[0][1] == pytest.approx(0.5)  # 500 B / 1000 B/s

    def test_send_overhead_charged_to_sender(self):
        machine = IDEAL.with_overrides(send_overhead_s=0.1)
        sched = Scheduler(2, machine)
        a = Recorder(cost=1.0)
        b = Recorder()
        after = Recorder()
        oa, ob = sched.register(a, 0), sched.register(b, 1)
        oafter = sched.register(after, 0)
        sched.inject(oa, "ping_and_forward", {"dest": ob})
        sched.inject(oafter, "ping", {"tag": "queued"}, priority=Priority.LOW)
        sched.run()
        # sender busy for cost (1.0) + send overhead (0.1)
        assert after.log[0][1] == pytest.approx(1.1)

    def test_recv_overhead_charged_to_receiver(self):
        machine = IDEAL.with_overrides(recv_overhead_s=0.2)
        sched = Scheduler(1, machine)
        a, b = Recorder(cost=0.0), Recorder(cost=0.0)
        oa, ob = sched.register(a, 0), sched.register(b, 0)
        sched.inject(oa, "ping", {"tag": 1})
        sched.inject(ob, "ping", {"tag": 2})
        sched.run()
        assert b.log[0][1] == pytest.approx(0.2)  # a's recv overhead serializes


class TestLocalCall:
    def test_local_call_synchronous(self):
        sched = Scheduler(1, IDEAL)

        class Caller(Chare):
            def go(self, dest=None):
                self.result = self.local_call(dest, "ping", tag="sync")
                return 0.0

        caller, callee = Caller(), Recorder(cost=0.0)
        oc = sched.register(caller, 0)
        od = sched.register(callee, 0)
        sched.inject(oc, "go", {"dest": od})
        sched.run()
        assert callee.log == [("sync", 0.0)]

    def test_local_call_cross_processor_rejected(self):
        sched = Scheduler(2, IDEAL)

        class Caller(Chare):
            def go(self, dest=None):
                self.local_call(dest, "ping", tag="x")
                return 0.0

        oc = sched.register(Caller(), 0)
        od = sched.register(Recorder(), 1)
        sched.inject(oc, "go", {"dest": od})
        with pytest.raises(RuntimeError):
            sched.run()


class TestMigration:
    def test_migrate_moves_object(self):
        sched = Scheduler(2, IDEAL)
        c = Recorder()
        c.migratable = True
        oid = sched.register(c, 0)
        sched.migrate(oid, 1)
        assert sched.location_of(oid) == 1

    @pytest.mark.parametrize("proc", [-1, 2])
    def test_migrate_outside_the_machine_refused(self, proc):
        sched = Scheduler(2, IDEAL)
        c = Recorder()
        c.migratable = True
        oid = sched.register(c, 0)
        with pytest.raises(ValueError, match=f"processor {proc} out of range"):
            sched.migrate(oid, proc)
        assert sched.location_of(oid) == 0

    def test_migrate_nonmigratable_rejected(self):
        sched = Scheduler(2, IDEAL)
        oid = sched.register(Recorder(), 0)
        with pytest.raises(ValueError):
            sched.migrate(oid, 1)

    def test_message_forwarded_after_migration(self):
        """A message routed to the old processor is transparently forwarded."""
        machine = IDEAL.with_overrides(latency_s=0.1)
        sched = Scheduler(2, machine)

        target = Recorder()
        target.migratable = True
        ot = sched.register(target, 1)

        class Sender(Chare):
            def go(self, dest=None):
                self.send(dest, "ping", {"tag": "wandering"})
                return 0.0

        os_ = sched.register(Sender(), 0)
        sched.inject(os_, "go", {"dest": ot})
        # migrate while the message is in flight
        sched.migrate(ot, 0)
        sched.run()
        assert target.log[0][0] == "wandering"


class TestInstrumentation:
    def test_trace_accumulates_busy_time(self):
        sched = Scheduler(1, IDEAL)
        oid = sched.register(Recorder(cost=0.7), 0)
        sched.inject(oid, "ping", {})
        sched.run()
        assert sched.trace.summary().busy_time_per_proc[0] == pytest.approx(0.7)

    def test_object_load_sums_busy_time(self):
        sched = Scheduler(1, IDEAL)
        c = Recorder(cost=0.3)
        c.migratable = True
        oid = sched.register(c, 0)
        sched.inject(oid, "ping", {})
        sched.inject(oid, "ping", {})
        sched.run()
        assert sched.object_load == {oid: pytest.approx(0.6)}
        # a migratable object's time is not background load
        assert sched.background_load.tolist() == [0.0]

    def test_nonmigratable_counts_as_background(self):
        """Background load is summed per processor, from non-migratable
        objects only; every object's time still lands in ``object_load``."""
        sched = Scheduler(2, IDEAL)
        moving = Recorder(cost=1.0)
        moving.migratable = True
        oid_m = sched.register(moving, 0)
        oid_a = sched.register(Recorder(cost=0.25), 0)
        oid_b = sched.register(Recorder(cost=0.4), 1)
        for oid in (oid_m, oid_a, oid_b, oid_a):
            sched.inject(oid, "ping", {})
        sched.run()
        assert sched.background_load.tolist() == [0.5, 0.4]
        assert sched.object_load == {oid_m: 1.0, oid_a: 0.5, oid_b: 0.4}

    def test_fresh_scheduler_starts_with_empty_sums(self):
        """A recovery starts a new scheduler: its sums cover only what it
        runs itself."""
        sched = Scheduler(3, IDEAL)
        sched.register(Recorder(cost=0.4), 0)
        assert sched.object_load == {}
        assert sched.background_load.tolist() == [0.0, 0.0, 0.0]

    def test_sums_span_every_run_of_one_scheduler(self):
        """A checkpointed phase runs one scheduler in segments; the sums
        keep accumulating across its ``run`` calls."""
        sched = Scheduler(1, IDEAL)
        oid = sched.register(Recorder(cost=0.25), 0)
        for _segment in range(3):
            sched.inject(oid, "ping", {})
            sched.run()
        assert sched.object_load == {oid: 0.75}
        assert sched.background_load.tolist() == [0.75]

    def test_object_load_follows_a_migrated_object(self):
        sched = Scheduler(2, IDEAL)
        c = Recorder(cost=0.5)
        c.migratable = True
        oid = sched.register(c, 0)
        sched.inject(oid, "ping", {})
        sched.run()
        sched.migrate(oid, 1)
        sched.inject(oid, "ping", {})
        sched.run()
        assert sched.object_load == {oid: 1.0}
        assert sched.background_load.tolist() == [0.0, 0.0]

    def test_slow_processor_shows_in_measured_load(self):
        """The sums hold measured time, so a slow processor's factor shows
        in them — what the cost model cannot know."""
        sched = Scheduler(2, IDEAL, proc_speed_factors=[1.0, 3.0])
        fast = Recorder(cost=0.5)
        fast.migratable = True
        slow = Recorder(cost=0.5)
        slow.migratable = True
        oid_f = sched.register(fast, 0)
        oid_s = sched.register(slow, 1)
        sched.inject(oid_f, "ping", {})
        sched.inject(oid_s, "ping", {})
        sched.run()
        assert sched.object_load == {
            oid_f: pytest.approx(0.5), oid_s: pytest.approx(1.5)
        }

    @pytest.mark.parametrize("factor", [0.5, 1.0, 4.0])
    def test_speed_factor_stretches_cpu_time_not_the_wire(self, factor):
        """A processor's speed factor multiplies everything it computes —
        the handler, its send overhead and packing — but neither the
        network's transit time nor the receiving processor's time."""
        machine = IDEAL.with_overrides(
            send_overhead_s=1e-4, pack_per_byte_s=1e-6, latency_s=5e-4,
            bandwidth_Bps=1e6,
        )
        sched = Scheduler(2, machine, proc_speed_factors=[factor, 1.0])
        sender, target = Recorder(cost=1e-3), Recorder(cost=2e-3)
        ot = sched.register(target, 1)
        sched.inject(sched.register(sender, 0), "ping_and_forward", {"dest": ot})
        end = sched.run()
        cpu = 1e-3 + 1e-4 + 64 * 1e-6
        arrival = factor * cpu + machine.transit_time(64.0)
        assert target.log == [("forwarded", pytest.approx(arrival))]
        assert end == pytest.approx(arrival + 2e-3)

    def test_every_send_is_traced(self):
        """Instrumentation is always on: each message an execution sends is
        counted, with its bytes."""
        sched = Scheduler(2, IDEAL)
        target = sched.register(Recorder(), 1)
        sender = sched.register(Recorder(), 0)
        sched.inject(sender, "ping_and_forward", {"dest": target})
        sched.inject(sender, "ping_and_forward", {"dest": target})
        sched.run()
        summary = sched.trace.summary()
        assert summary.messages_sent == 2
        assert summary.bytes_sent == 2 * 64.0
        assert set(sched.object_load) == {sender, target}


class TestControl:
    def test_control_delivered_at_completion_time(self):
        sched = Scheduler(1, IDEAL)
        events = []
        sched.set_control_handler(lambda t, payload: events.append((t, payload)))

        class Notifier(Chare):
            def go(self):
                self.runtime.post_control("done")
                return 0.5

        oid = sched.register(Notifier(), 0)
        sched.inject(oid, "go", {})
        sched.run()
        assert events == [(0.5, "done")]
