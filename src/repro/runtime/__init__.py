"""A Charm++/Converse-style runtime on a simulated parallel machine.

The paper's NAMD is built on Charm++: collections of C++ objects ("chares")
that communicate by remote method invocation, scheduled from per-processor
prioritized queues, with migration and measurement-based load balancing
provided by the runtime (paper §2.2).

This package reproduces that programming model in Python, executing on a
*discrete-event simulation* of a message-passing machine instead of real
hardware (see DESIGN.md §2 for why this substitution preserves the paper's
results).  The mapping is one-to-one:

=====================  ==========================================
Charm++ concept        Here
=====================  ==========================================
chare                  :class:`repro.runtime.chare.Chare`
entry method           a method invoked via :meth:`Chare.send`
prioritized scheduler  :class:`repro.runtime.scheduler.Scheduler`
Converse machine layer :class:`repro.runtime.machine.MachineModel`
Projections traces     :class:`repro.runtime.trace.TraceLog`
LB database            :class:`repro.runtime.stats.LBDatabase`
multicast utility      :meth:`Chare.multicast` (§4.2.3)
object migration       :meth:`Scheduler.migrate`
=====================  ==========================================
"""

from repro.runtime.machine import MachineModel, MACHINES, ASCI_RED, T3E_900, ORIGIN_2000
from repro.runtime.message import Message, Priority
from repro.runtime.chare import Chare
from repro.util.faults import (
    FaultPlan,
    MessageFaults,
    ProcessorFailure,
    SlowdownWindow,
)
from repro.runtime.checkpoint import (
    Checkpoint,
    DoubleCheckpointStore,
    RecoveryEvent,
    RecoveryStats,
    UnrecoverableFailure,
    restore_chare,
    snapshot_chare,
)
from repro.runtime.scheduler import Scheduler
from repro.runtime.trace import TraceLog, ExecutionRecord
from repro.runtime.stats import LBDatabase, ObjectStats

__all__ = [
    "MachineModel",
    "MACHINES",
    "ASCI_RED",
    "T3E_900",
    "ORIGIN_2000",
    "Message",
    "Priority",
    "Chare",
    "FaultPlan",
    "MessageFaults",
    "ProcessorFailure",
    "SlowdownWindow",
    "Checkpoint",
    "DoubleCheckpointStore",
    "RecoveryEvent",
    "RecoveryStats",
    "UnrecoverableFailure",
    "snapshot_chare",
    "restore_chare",
    "Scheduler",
    "TraceLog",
    "ExecutionRecord",
    "LBDatabase",
    "ObjectStats",
]
