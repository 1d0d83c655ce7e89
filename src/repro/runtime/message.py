"""Messages: remote entry-method invocations in flight.

A Charm++ method invocation is a message carrying the target object, the
entry-method name, and parameters.  Here the payload is a plain dict; the
``size_bytes`` field (what the real message would occupy on the wire) drives
the machine model's packing and transit costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

__all__ = ["Message", "MulticastPayload", "Priority"]


class Priority(IntEnum):
    """Message priorities for the per-processor scheduler queue.

    Lower values run first, mirroring Charm++'s prioritized queue.  NAMD
    prioritizes position delivery and remote-force work so the critical path
    (data for off-processor computes) is served before local work.
    """

    HIGH = 0
    NORMAL = 1
    LOW = 2


@dataclass
class Message:
    """One in-flight entry-method invocation."""

    dest_object: int  # runtime object id
    method: str  # entry-method name on the target chare
    data: dict = field(default_factory=dict)
    size_bytes: float = 64.0  # wire size; headers make even empty msgs cost
    priority: int = Priority.NORMAL
    #: source object id; -1 = runtime (an empty runtime-injected message
    #: pays no receive overhead)
    src_object: int = -1
    #: set by the scheduler when the message is injected / delivered
    send_time: float = 0.0
    arrival_time: float = 0.0
    seq: int = -1
    #: fault-injected duplicate delivery; the receiver suppresses the second
    #: copy (at-most-once semantics) but still pays receive overhead
    is_duplicate: bool = False

    def sort_key(self) -> tuple[int, int]:
        """Queue ordering: priority first, then FIFO by sequence number."""
        return (self.priority, self.seq)


@dataclass
class MulticastPayload:
    """One multicast body, packed once and shared by every destination.

    The paper's §4.2.3 optimization: the runtime serializes the multicast
    data a single time, then fans out lightweight per-destination envelopes
    that all reference this payload.  :meth:`envelope` mints one such
    envelope — a plain :class:`Message` whose ``data`` *is* this payload's
    dict (shared identity, never copied).
    """

    method: str
    data: dict = field(default_factory=dict)
    size_bytes: float = 64.0
    priority: int = Priority.NORMAL
    src_object: int = -1

    def envelope(self, dest_object: int) -> Message:
        """A per-destination envelope referencing the shared payload."""
        return Message(
            dest_object=dest_object,
            method=self.method,
            data=self.data,
            size_bytes=self.size_bytes,
            priority=self.priority,
            src_object=self.src_object,
        )
