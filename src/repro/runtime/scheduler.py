"""The data-driven scheduler on a simulated machine.

This is the reproduction's analog of Charm++/Converse execution (paper
§2.2): every processor keeps a prioritized queue of entry-method invocations;
the scheduler "repeatedly picks the next available message, and invokes the
indicated method on the indicated object with the message parameters".

Because the machine is simulated, *work* and *time* are decoupled: entry
methods run as ordinary Python (mutating chare state, posting sends) but
declare their modeled CPU cost, expressed in reference-machine seconds, as
their return value.  The scheduler scales costs by the machine model, charges
per-message send/receive/packing overheads, and advances per-processor
clocks through a global event heap — a classic conservative discrete-event
simulation whose event ordering is deterministic (ties broken by sequence
number).

Key behaviours reproduced from the paper:

* prioritized per-processor queues (§2.2),
* adaptive overlap of communication and computation — a processor executes
  whatever is ready while messages for other objects are in flight,
* the optimized multicast (§4.2.3): pack once vs. pack per destination,
* object migration (§3.2) with location-transparent addressing,
* always-on load instrumentation: per-object busy time and per-processor
  background load, summed for the load balancer, and optional full traces
  feeding Projections-style analysis (§4.1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.runtime.chare import Chare
from repro.runtime.machine import MachineModel
from repro.runtime.message import Message, MulticastPayload, Priority
from repro.runtime.trace import TraceLog
from repro.util.faults import FaultPlan

__all__ = ["Scheduler", "MulticastStats"]

_ARRIVE = 0
_COMPLETE = 1
_CONTROL = 2
_FAULT = 3


@dataclass
class MulticastStats:
    """Packing accounting for :meth:`Scheduler.post_multicast` (paper §4.2.3).

    ``packs`` counts payload serializations actually performed; with the
    optimized multicast that is exactly one per multicast that reaches at
    least one remote destination, with the naive scheme it is one per remote
    destination.  ``envelopes`` counts per-destination deliveries fanned out
    (local and remote alike).
    """

    multicasts: int = 0
    packs: int = 0
    envelopes: int = 0

    def reset(self) -> None:
        self.multicasts = 0
        self.packs = 0
        self.envelopes = 0


class Scheduler:
    """Simulated Charm++ runtime over ``n_procs`` processors."""

    def __init__(
        self,
        n_procs: int,
        machine: MachineModel,
        trace_full: bool = False,
        optimized_multicast: bool = True,
        proc_speed_factors: "np.ndarray | None" = None,
        fault_plan: "FaultPlan | None" = None,
        initially_dead: "set[int] | None" = None,
        start_time: float = 0.0,
        record_events: bool = False,
    ) -> None:
        """``proc_speed_factors`` models a heterogeneous or externally
        loaded machine (paper §2.1 / ref [3] "Adapting to load on
        workstation clusters"): all CPU time on processor ``p`` is
        multiplied by ``proc_speed_factors[p]`` (>1 = slower).  The cost
        model cannot know these factors — only runtime *measurement* can,
        which is the paper's case for measurement-based balancing.

        ``fault_plan`` injects deterministic faults (processor death,
        slowdown windows, message drop/delay/duplicate).  ``initially_dead``
        marks processors already lost before this scheduler started (a
        recovery continuation on a degraded machine); ``start_time`` offsets
        the clock so recovery timelines stay contiguous.  ``record_events``
        keeps an execution trace for determinism checks."""
        if n_procs < 1:
            raise ValueError("need at least one processor")
        self.n_procs = n_procs
        self.machine = machine
        self.optimized_multicast = optimized_multicast
        self.fault_plan = fault_plan
        self.dead_procs: set[int] = set(initially_dead or ())
        if any(not (0 <= p < n_procs) for p in self.dead_procs):
            raise ValueError("initially_dead processor out of range")
        if len(self.dead_procs) >= n_procs:
            raise ValueError("at least one processor must survive")
        self.start_time = start_time
        self.failure_times: dict[int, float] = {}
        self.fault_stats = {
            "drops": 0,
            "delays": 0,
            "duplicates": 0,
            "dead_dropped": 0,
            "suppressed_duplicates": 0,
        }
        self.event_log: list[tuple] | None = [] if record_events else None
        if proc_speed_factors is None:
            self._speed = np.ones(n_procs)
        else:
            self._speed = np.asarray(proc_speed_factors, dtype=np.float64)
            if self._speed.shape != (n_procs,) or np.any(self._speed <= 0):
                raise ValueError("proc_speed_factors must be positive, one per proc")
        self.trace = TraceLog(n_procs, full=trace_full)
        #: the load balancer's measurements (paper §2.2), summed in execution
        #: order: busy seconds per object id, and per processor the seconds
        #: spent in non-migratable objects (the "background load")
        self.object_load: dict[int, float] = {}
        self.background_load = np.zeros(n_procs)
        self.multicast_stats = MulticastStats()

        self._objects: dict[int, Chare] = {}
        self._location: dict[int, int] = {}
        self._next_object_id = 0

        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        #: events on the heap that are not fail-stop faults: run() returns
        #: when none is left, so a fault timed after the last of them stays
        #: queued for whoever runs that time
        self._work_events = 0
        self._pending: list[list[tuple[tuple[int, int], Message]]] = [
            [] for _ in range(n_procs)
        ]
        self._busy = np.zeros(n_procs, dtype=bool)
        self._clock = start_time  # time of the event being processed
        self._has_slowdowns = fault_plan is not None and fault_plan.has_slowdowns
        self._message_faults_active = (
            fault_plan is not None and fault_plan.has_message_faults
        )
        # schedule the plan's fail-stop events; deaths scheduled before this
        # scheduler's epoch but not yet acknowledged take effect immediately
        if fault_plan is not None:
            for f in fault_plan.failures:
                if f.proc in self.dead_procs:
                    continue
                if f.time < start_time:
                    self.dead_procs.add(f.proc)
                    self.failure_times[f.proc] = start_time
                else:
                    self._push(f.time, _FAULT, f.proc)

        # set during an entry-method execution
        self._current: Chare | None = None
        self._current_sends: list[tuple[Message, int]] = []  # (msg, dest_proc)
        # (shared payload, destination object ids); envelopes are minted at
        # delivery time so the body exists exactly once per multicast
        self._current_multicasts: list[tuple[MulticastPayload, list[int]]] = []
        self._current_controls: list[object] = []
        self._control_handler: Callable[[float, object], None] | None = None

    # ------------------------------------------------------------------ #
    # object management
    # ------------------------------------------------------------------ #
    def register(self, chare: Chare, proc: int) -> int:
        """Place a chare on ``proc``; returns its object id."""
        if not (0 <= proc < self.n_procs):
            raise ValueError(f"processor {proc} out of range 0..{self.n_procs - 1}")
        if proc in self.dead_procs:
            raise ValueError(f"cannot place object on dead processor {proc}")
        oid = self._next_object_id
        self._next_object_id += 1
        chare.object_id = oid
        chare.runtime = self
        self._objects[oid] = chare
        self._location[oid] = proc
        return oid

    def object(self, object_id: int) -> Chare:
        """The chare registered under ``object_id``."""
        return self._objects[object_id]

    def location_of(self, object_id: int) -> int:
        """Current processor of an object (location manager lookup)."""
        return self._location[object_id]

    def migrate(self, object_id: int, new_proc: int) -> None:
        """Move an object (between steps; migration latency is not modeled
        because the paper's steady-state step times exclude LB pauses)."""
        if not (0 <= new_proc < self.n_procs):
            raise ValueError(f"processor {new_proc} out of range")
        if new_proc in self.dead_procs:
            raise ValueError(
                f"cannot migrate object {object_id} onto dead processor {new_proc}"
            )
        if not self._objects[object_id].migratable:
            raise ValueError(f"object {object_id} is not migratable")
        self._location[object_id] = new_proc

    # ------------------------------------------------------------------ #
    # time and control
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time (of the event being processed)."""
        return self._clock

    def set_control_handler(self, handler: Callable[[float, object], None]) -> None:
        """Install the driver callback for control notifications."""
        self._control_handler = handler

    # ------------------------------------------------------------------ #
    # sending (called by chares during entry-method execution)
    # ------------------------------------------------------------------ #
    def post_send(
        self,
        src_object: int,
        dest_object: int,
        method: str,
        data: dict,
        size_bytes: float,
        priority: int = Priority.NORMAL,
    ) -> None:
        msg = Message(
            dest_object=dest_object,
            method=method,
            data=data,
            size_bytes=size_bytes,
            priority=priority,
            src_object=src_object,
        )
        self._current_sends.append((msg, self._location[dest_object]))

    def post_multicast(
        self,
        src_object: int,
        dest_objects: list[int],
        method: str,
        data: dict,
        size_bytes: float,
        priority: int = Priority.NORMAL,
    ) -> None:
        payload = MulticastPayload(
            method=method,
            data=data,
            size_bytes=size_bytes,
            priority=priority,
            src_object=src_object,
        )
        self._current_multicasts.append((payload, list(dest_objects)))

    def post_control(self, payload: object) -> None:
        """Zero-cost notification delivered to the driver at completion time.

        Stands in for NAMD's asynchronous reductions (energies, step
        counting), which do not gate the timestep critical path.
        """
        self._current_controls.append(payload)

    def invoke_local(
        self, src_object: int, dest_object: int, method: str, kwargs: dict
    ) -> object:
        """Synchronous local invocation (Charm++ ``[inline]`` analog)."""
        if self._location[dest_object] != self._location[src_object]:
            raise RuntimeError(
                f"local_call from {src_object} to {dest_object}: objects are on "
                f"different processors"
            )
        return getattr(self._objects[dest_object], method)(**kwargs)

    def inject(
        self,
        dest_object: int,
        method: str,
        data: dict | None = None,
        size_bytes: float = 64.0,
        priority: int = Priority.NORMAL,
        at_time: float | None = None,
    ) -> None:
        """Driver-level message injection (e.g. "start step" broadcasts)."""
        msg = Message(
            dest_object=dest_object,
            method=method,
            data=data or {},
            size_bytes=size_bytes,
            priority=priority,
        )
        self._schedule_arrival(msg, self._location[dest_object],
                               self._clock if at_time is None else at_time)

    # ------------------------------------------------------------------ #
    # event machinery
    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self._heap, (time, self._seq, kind, payload))
        self._seq += 1
        self._work_events += kind != _FAULT

    def _schedule_arrival(self, msg: Message, dest_proc: int, at: float) -> None:
        msg.seq = self._seq
        if self._message_faults_active and not msg.is_duplicate:
            at = self._apply_message_faults(msg, dest_proc, at)
        msg.arrival_time = at
        self._push(at, _ARRIVE, (msg, dest_proc))

    def _apply_message_faults(self, msg: Message, dest_proc: int, at: float) -> float:
        """Perturb one delivery per the fault plan; returns the arrival time.

        Drops are modeled as delivered-after-retransmit: the sender retries
        with exponential backoff until a copy gets through (bounded by
        ``MAX_RETRANSMITS``), so the protocol stays live and the fault shows
        up purely as latency.  Duplicates enqueue a second, flagged copy
        that the receive path suppresses (at-most-once delivery).
        """
        plan = self.fault_plan
        fate = plan.message_fate(msg.seq)
        if fate.drops:
            self.fault_stats["drops"] += fate.drops
            at += plan.retransmit_delay(fate.drops)
        if fate.extra_delay:
            self.fault_stats["delays"] += 1
            at += fate.extra_delay
        if fate.duplicated:
            self.fault_stats["duplicates"] += 1
            dup = Message(
                dest_object=msg.dest_object,
                method=msg.method,
                data=msg.data,
                size_bytes=msg.size_bytes,
                priority=msg.priority,
                src_object=msg.src_object,
                send_time=msg.send_time,
                is_duplicate=True,
            )
            # distinct seq so the pending-queue sort key never ties with the
            # original (ties would compare unorderable Message objects)
            dup.seq = self._seq + 1
            dup.arrival_time = at + self.machine.latency_s
            self._push(dup.arrival_time, _ARRIVE, (dup, dest_proc))
        return at

    def run(self, until: float | None = None) -> float:
        """Process events until no arrival, completion or control event is
        left (or up to ``until``); returns the time of the last one.  A
        fail-stop fault timed after the last of them stays queued: it falls
        in a later run, or a later scheduler takes it from the plan."""
        while self._work_events:
            time, _seq, kind, payload = self._heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(self._heap)
            self._work_events -= kind != _FAULT
            self._clock = time
            if kind == _ARRIVE:
                msg, proc = payload
                if proc in self.dead_procs:
                    self.fault_stats["dead_dropped"] += 1
                    continue
                heapq.heappush(self._pending[proc], (msg.sort_key(), msg))
                if not self._busy[proc]:
                    self._start_next(proc, time)
            elif kind == _COMPLETE:
                proc = payload
                if proc in self.dead_procs:
                    continue
                self._busy[proc] = False
                if self._pending[proc]:
                    self._start_next(proc, time)
            elif kind == _FAULT:
                self._kill_processor(payload, time)
            else:  # _CONTROL
                if self._control_handler is not None:
                    self._control_handler(time, payload)
        return self._clock

    def _kill_processor(self, proc: int, time: float) -> None:
        """Fail-stop death: queued work vanishes, nothing further runs.

        Entry-method executions are atomic in this simulation, so a death
        takes effect at entry-method boundaries: an execution that already
        started still delivers its sends (its completion event is simply
        ignored).  Recovery restores from the last checkpoint regardless, so
        the coarser crash granularity does not leak into recovered state.
        """
        if proc in self.dead_procs:
            return
        self.dead_procs.add(proc)
        self.failure_times[proc] = time
        self._busy[proc] = False
        self.fault_stats["dead_dropped"] += len(self._pending[proc])
        self._pending[proc].clear()

    def _start_next(self, proc: int, time: float) -> None:
        _key, msg = heapq.heappop(self._pending[proc])
        chare = self._objects.get(msg.dest_object)
        if chare is None:
            raise KeyError(f"message for unknown object {msg.dest_object}")
        # If the object migrated after the message was routed, forward it
        # (NAMD's location manager does the same transparently).
        actual_proc = self._location[msg.dest_object]
        if actual_proc != proc:
            self._schedule_arrival(msg, actual_proc, time + self.machine.latency_s)
            if self._pending[proc]:
                self._start_next(proc, time)
            return

        m = self.machine
        slow = self._speed[proc]
        if self._has_slowdowns:
            slow *= self.fault_plan.slowdown_factor(proc, time)

        if msg.is_duplicate:
            # at-most-once delivery: the runtime detects the redundant copy
            # and discards it, paying only the receive overhead
            self.fault_stats["suppressed_duplicates"] += 1
            self._busy[proc] = True
            self._push(time + m.recv_overhead_s * slow, _COMPLETE, proc)
            return

        if self.event_log is not None:
            self.event_log.append(
                (round(time, 15), proc, msg.dest_object, msg.method, msg.seq)
            )

        self._current = chare
        self._current_sends = []
        self._current_multicasts = []
        self._current_controls = []
        cost = getattr(chare, msg.method)(**msg.data)
        base_cost = float(cost) if cost else 0.0

        work = base_cost * m.cpu_factor * slow
        recv_ovh = (
            m.recv_overhead_s * slow
            if (msg.src_object >= 0 or msg.size_bytes > 0)
            else 0.0
        )

        # charge CPU for every send issued by this execution
        send_cpu, outgoing = self._cost_sends(proc)
        send_cpu *= slow
        duration = work + recv_ovh + send_cpu
        completion = time + duration

        # inject outgoing messages at completion
        for out_msg, dest_proc, remote in outgoing:
            out_msg.send_time = completion
            delay = m.transit_time(out_msg.size_bytes) if remote else 0.0
            self._schedule_arrival(out_msg, dest_proc, completion + delay)
            self.trace.record_send(out_msg.size_bytes)

        for payload in self._current_controls:
            self._push(completion, _CONTROL, payload)

        self.trace.record_execution(
            proc,
            chare.object_id,
            chare.label(),
            chare.category,
            time,
            duration,
            work=work,
            send_overhead=send_cpu,
            recv_overhead=recv_ovh,
        )
        seconds = float(duration)
        oid = chare.object_id
        self.object_load[oid] = self.object_load.get(oid, 0.0) + seconds
        if not chare.migratable:
            self.background_load[proc] += seconds

        self._busy[proc] = True
        self._push(completion, _COMPLETE, proc)
        self._current = None

    def _cost_sends(self, proc: int) -> tuple[float, list[tuple[Message, int, bool]]]:
        """CPU cost of all sends posted by the current execution.

        Returns ``(cpu_seconds, [(message, dest_proc, is_remote), ...])``.
        Multicasts pay packing once (optimized) or per destination (naive);
        point-to-point sends always pay pack + overhead.
        """
        m = self.machine
        cpu = 0.0
        outgoing: list[tuple[Message, int, bool]] = []

        for msg, dest_proc in self._current_sends:
            remote = dest_proc != proc
            if remote:
                cpu += m.send_overhead_s + m.pack_time(msg.size_bytes)
            else:
                cpu += m.local_send_overhead_s
            outgoing.append((msg, dest_proc, remote))

        for payload, dests in self._current_multicasts:
            dest_procs = [self._location[d] for d in dests]
            remote_count = sum(1 for dp in dest_procs if dp != proc)
            local_count = len(dests) - remote_count
            self.multicast_stats.multicasts += 1
            if self.optimized_multicast:
                if remote_count:
                    cpu += m.pack_time(payload.size_bytes)  # pack the body once
                    cpu += remote_count * m.send_overhead_s
                    self.multicast_stats.packs += 1
            else:
                cpu += remote_count * (
                    m.send_overhead_s + m.pack_time(payload.size_bytes)
                )
                self.multicast_stats.packs += remote_count
            cpu += local_count * m.local_send_overhead_s
            # fan out lightweight envelopes, all referencing the one payload
            for dest, dest_proc in zip(dests, dest_procs):
                outgoing.append(
                    (payload.envelope(dest), dest_proc, dest_proc != proc)
                )
                self.multicast_stats.envelopes += 1
        return cpu, outgoing

    # ------------------------------------------------------------------ #
    def quiescent(self) -> bool:
        """True when no events (queued faults aside) or pending messages
        remain."""
        return not self._work_events and all(len(q) == 0 for q in self._pending)
