"""One deterministic fault plan for both runtimes.

The paper motivates the adaptive runtime with machines that *misbehave*
(externally loaded workstation clusters, §2.1); a :class:`FaultPlan` adds
outright failures, in the direction the Charm++ lineage later took with
in-memory double checkpointing.  It is a deterministic schedule, one type
per fault kind: fail-stop **death** (:class:`ProcessorFailure`), a
**hang** (:class:`ProcessorHang`), **slowdown windows** that multiply a
target's CPU time (:class:`SlowdownWindow`), and **per-message drop /
delay / duplicate** faults (:class:`MessageFaults`).

Two runtimes read it, each ``<when>`` in its own clock: the simulated
machine (:class:`~repro.core.simulation.SimulationConfig`) in simulated
seconds, the supervised pool (:func:`~repro.pool.pool_fault_plan`) at
1-based evaluation indices.  Each refuses, naming the clause, what it
cannot honour, and both refuse a target they do not have
(:meth:`FaultPlan.check_targets`).  This module imports nothing from
:mod:`repro`, so the pool reads a plan without the simulated runtime.

Determinism is the load-bearing property: every message decision is drawn
from ``default_rng((seed, message_seq, attempt))``, so two runs with the
same plan see byte-identical fault sequences regardless of wall-clock or
Python hash state — which is what makes fault-injection tests (and the
recovery-equivalence invariant) reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

__all__ = [
    "ProcessorFailure",
    "ProcessorHang",
    "SlowdownWindow",
    "MessageFaults",
    "MessageFate",
    "FaultPlan",
    "MAX_RETRANSMITS",
]

#: Retransmit attempts before a dropped message is assumed delivered (the
#: modeled sender keeps retrying with exponential backoff; bounding the
#: count guarantees liveness of the simulation itself).
MAX_RETRANSMITS = 6


@dataclass(frozen=True)
class ProcessorFailure:
    """Fail-stop death of processor (or worker) ``proc`` at ``time``."""

    proc: int
    time: float

    @property
    def clause(self) -> str:
        return f"kill={self.proc}@{self.time:g}"


@dataclass(frozen=True)
class ProcessorHang:
    """Worker ``proc`` freezes at ``time`` for ``duration_s`` seconds.

    ``duration_s = inf`` (the default) freezes it until the supervisor
    escalates — the canonical "hung, not dead" scenario.  A finite
    duration models a transient stall (page-fault storm, cgroup throttle):
    it ends when the window expires, and a stall shorter than the hang
    threshold is simply *measured* as load.
    """

    proc: int
    time: float
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        if not self.duration_s > 0:
            raise ValueError("hang duration must be positive")

    @property
    def clause(self) -> str:
        tail = "" if math.isinf(self.duration_s) else f"x{self.duration_s:g}"
        return f"hang={self.proc}@{self.time:g}{tail}"


@dataclass(frozen=True)
class SlowdownWindow:
    """CPU on ``proc`` runs ``factor`` times slower during [start, end)."""

    proc: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("slowdown factor must be positive")
        if self.end <= self.start:
            raise ValueError("slowdown window must have positive length")

    @property
    def clause(self) -> str:
        return f"slow={self.proc}@{self.start:g}-{self.end:g}x{self.factor:g}"


@dataclass(frozen=True)
class MessageFaults:
    """Rates of per-message communication faults.

    ``drop_rate`` messages are lost and retransmitted with exponential
    backoff (``retry_base_s * 2^attempt``); ``delay_rate`` messages arrive
    late by up to ``delay_s``; ``duplicate_rate`` messages arrive twice
    (the duplicate is suppressed by the receiver — at-most-once delivery).
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 1e-4
    duplicate_rate: float = 0.0
    retry_base_s: float = 5e-5

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]; got {rate}")

    @property
    def active(self) -> bool:
        """True when any fault rate is nonzero."""
        return bool(self.drop_rate or self.delay_rate or self.duplicate_rate)

    @property
    def clause(self) -> str:
        """The clauses that set these rates off their defaults."""
        default = MessageFaults()
        clauses = []
        if self.drop_rate != default.drop_rate:
            clauses.append(f"drop={self.drop_rate:g}")
        if (self.delay_rate, self.delay_s) != (default.delay_rate, default.delay_s):
            clauses.append(f"delay={self.delay_rate:g}@{self.delay_s:g}")
        if self.duplicate_rate != default.duplicate_rate:
            clauses.append(f"dup={self.duplicate_rate:g}")
        if self.retry_base_s != default.retry_base_s:
            clauses.append(f"retry={self.retry_base_s:g}")
        return ",".join(clauses)


class MessageFate(NamedTuple):
    """Outcome of the fault draw for one scheduled message."""

    drops: int  # number of transmissions lost before one got through
    extra_delay: float  # seconds added on top of normal transit
    duplicated: bool  # a second (suppressed) copy also arrives


_CLEAN = MessageFate(0, 0.0, False)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded schedule of runtime faults.

    ``seed`` and ``message_faults`` are None when no clause sets them: a
    consumer without messages refuses them only when they are there.
    """

    seed: int | None = None
    failures: tuple[ProcessorFailure, ...] = ()
    hangs: tuple[ProcessorHang, ...] = ()
    slowdowns: tuple[SlowdownWindow, ...] = ()
    message_faults: MessageFaults | None = None

    # ------------------------------------------------------------------ #
    def message_fate(self, message_seq: int) -> MessageFate:
        """Deterministic fate of the message scheduled with ``message_seq``.

        A dropped transmission is retried (each retry gets its own draw), so
        the returned fate folds the whole retransmit episode into one drop
        count plus the backoff delay computed by the caller.
        """
        mf = self.message_faults
        if not self.has_message_faults:
            return _CLEAN
        drops = 0
        while drops < MAX_RETRANSMITS:
            rng = np.random.default_rng((self.seed or 0, message_seq, drops))
            u_drop, u_delay, u_dup, u_jitter = rng.random(4)
            if u_drop < mf.drop_rate:
                drops += 1
                continue
            extra = mf.delay_s * (0.5 + u_jitter) if u_delay < mf.delay_rate else 0.0
            return MessageFate(drops, extra, u_dup < mf.duplicate_rate)
        return MessageFate(drops, 0.0, False)

    def retransmit_delay(self, drops: int) -> float:
        """Total backoff delay for ``drops`` lost transmissions."""
        base = self.message_faults.retry_base_s
        return float(base * (2.0**drops - 1.0))  # sum of base * 2^k

    def slowdown_factor(self, target: int, when: float) -> float:
        """Combined slowdown multiplier for ``target`` at ``when``, in the
        consumer's clock (overlapping windows multiply)."""
        factor = 1.0
        for w in self.slowdowns:
            if w.proc == target and w.start <= when < w.end:
                factor *= w.factor
        return factor

    @property
    def has_slowdowns(self) -> bool:
        """True when any slowdown window is scheduled."""
        return bool(self.slowdowns)

    @property
    def has_message_faults(self) -> bool:
        """True when any message-fault rate is nonzero."""
        return self.message_faults is not None and self.message_faults.active

    def check_targets(self, n: int, unit: str, owner: str) -> None:
        """Refuse a fault aimed at no ``unit`` of the ``n`` the ``owner``
        has (``unit`` ``"worker"``, ``owner`` ``"pool"``, say)."""
        for fault in (*self.failures, *self.hangs, *self.slowdowns):
            if not 0 <= fault.proc < n:
                raise ValueError(
                    f"fault clause {fault.clause!r} targets {unit} "
                    f"{fault.proc}, but the {owner} has {n} {unit}s"
                )

    # ------------------------------------------------------------------ #
    def shifted(self, offset: float) -> "FaultPlan":
        """The plan in a clock that starts ``offset`` seconds later.

        Used by the multi-phase driver: each phase's scheduler clock starts
        at zero, so the global plan is re-expressed in phase-local time.
        Failures whose time has already passed are dropped (the driver
        carries the resulting dead-processor set forward explicitly).
        """
        if offset == 0.0:
            return self
        return replace(
            self,
            failures=tuple(
                ProcessorFailure(f.proc, f.time - offset)
                for f in self.failures
                if f.time - offset >= 0.0
            ),
            slowdowns=tuple(
                SlowdownWindow(w.proc, w.start - offset, w.end - offset, w.factor)
                for w in self.slowdowns
                if w.end - offset > 0.0
            ),
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI string.

        Comma-separated clauses; ``<when>`` is in the consumer's clock
        (simulated seconds, or a pool's 1-based evaluation index)::

            seed=<int>
            kill=<target>@<when>
            hang=<target>@<when>[x<seconds>]   (no x: until escalated)
            slow=<target>@<start>-<end>x<factor>
            drop=<rate>          delay=<rate>[@<seconds>]
            dup=<rate>           retry=<seconds>

        No number may be NaN or negative, and only a ``slow`` window's end
        and a ``hang``'s seconds may be ``inf``.  Example:
        ``"seed=7,kill=2@0.004,drop=0.01,delay=0.02@1e-4"``.
        """
        seed = None
        failures: list[ProcessorFailure] = []
        hangs: list[ProcessorHang] = []
        slowdowns: list[SlowdownWindow] = []
        mf: dict[str, float] = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise ValueError(f"bad fault clause {clause!r} (expected key=value)")
            key, _, value = clause.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "kill":
                    target, _, when = value.partition("@")
                    failures.append(ProcessorFailure(int(target), _number(when)))
                elif key == "hang":
                    target, _, rest = value.partition("@")
                    when, _, secs = rest.partition("x")
                    hangs.append(
                        ProcessorHang(
                            int(target),
                            _number(when),
                            _number(secs, inf=True) if secs else math.inf,
                        )
                    )
                elif key == "slow":
                    target, _, rest = value.partition("@")
                    window, _, factor = rest.partition("x")
                    start, _, end = window.partition("-")
                    slowdowns.append(
                        SlowdownWindow(
                            int(target),
                            _number(start),
                            _number(end, inf=True),
                            _number(factor),
                        )
                    )
                elif key == "drop":
                    mf["drop_rate"] = float(value)
                elif key == "delay":
                    rate, _, secs = value.partition("@")
                    mf["delay_rate"] = float(rate)
                    if secs:
                        mf["delay_s"] = _number(secs)
                elif key == "dup":
                    mf["duplicate_rate"] = float(value)
                elif key == "retry":
                    mf["retry_base_s"] = _number(value)
                else:
                    raise ValueError(f"unknown fault clause key {key!r}")
                if key in ("drop", "delay", "dup", "retry"):
                    MessageFaults(**mf)  # refuse a bad rate at its clause
            except ValueError as exc:
                raise ValueError(f"bad fault clause {clause!r}: {exc}") from None
        return cls(
            seed=seed,
            failures=tuple(failures),
            hangs=tuple(hangs),
            slowdowns=tuple(slowdowns),
            message_faults=MessageFaults(**mf) if mf else None,
        )


def _number(text: str, *, inf: bool = False) -> float:
    """``text`` as a number >= 0: never NaN, infinite only where ``inf``."""
    value = float(text)
    if math.isnan(value) or value < 0 or (math.isinf(value) and not inf):
        allowed = "a number >= 0 or inf" if inf else "a finite number >= 0"
        raise ValueError(f"{text!r} is not {allowed}")
    return value
