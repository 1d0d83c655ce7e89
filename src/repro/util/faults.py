"""The supervised pool's deterministic fault plan.

The paper motivates the adaptive runtime with machines that *misbehave*
(externally loaded workstation clusters, §2.1); a :class:`FaultPlan` adds
outright failures of the real worker processes of a supervised pool
(:mod:`repro.pool.resilience`).  It is a deterministic schedule, one type
per fault kind: fail-stop **death** (:class:`ProcessorFailure`), a
**hang** (:class:`ProcessorHang`), and **slowdown windows** that multiply a
worker's CPU time (:class:`SlowdownWindow`).

Every ``<when>`` is the pool's clock, the 1-based evaluation index: a kill
or a hang lands at a whole index (the types refuse anything else), a
slowdown window may start and end between indices.  The parser refuses a
bad clause by name, and :meth:`FaultPlan.check_targets` refuses a worker
the pool does not have.  This module imports nothing from :mod:`repro`,
so the pool reads a plan without any other layer.

Because a fault is timed by evaluation index, not by the wall clock, two
runs with the same plan see the same faults at the same steps — which is
what makes the fault-injection tests and the recovery-equivalence
invariant reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ProcessorFailure",
    "ProcessorHang",
    "SlowdownWindow",
    "FaultPlan",
]


def _check_step(time: float) -> None:
    if not (time >= 1 and float(time).is_integer()):
        raise ValueError(
            "a pool step is a 1-based evaluation index (a whole number >= 1)"
        )


@dataclass(frozen=True)
class ProcessorFailure:
    """Fail-stop death of worker ``proc`` at evaluation ``time``."""

    proc: int
    time: float

    def __post_init__(self) -> None:
        _check_step(self.time)

    @property
    def clause(self) -> str:
        return f"kill={self.proc}@{self.time:g}"


@dataclass(frozen=True)
class ProcessorHang:
    """Worker ``proc`` freezes at evaluation ``time`` for ``duration_s``
    seconds.

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
        _check_step(self.time)

    @property
    def clause(self) -> str:
        tail = "" if math.isinf(self.duration_s) else f"x{self.duration_s:g}"
        return f"hang={self.proc}@{self.time:g}{tail}"


@dataclass(frozen=True)
class SlowdownWindow:
    """CPU on worker ``proc`` runs ``factor`` times slower during
    evaluations [start, end)."""

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
class FaultPlan:
    """A complete schedule of worker faults."""

    failures: tuple[ProcessorFailure, ...] = ()
    hangs: tuple[ProcessorHang, ...] = ()
    slowdowns: tuple[SlowdownWindow, ...] = ()

    def slowdown_factor(self, target: int, when: float) -> float:
        """Combined slowdown multiplier for worker ``target`` at evaluation
        ``when`` (overlapping windows multiply)."""
        factor = 1.0
        for w in self.slowdowns:
            if w.proc == target and w.start <= when < w.end:
                factor *= w.factor
        return factor

    def check_targets(self, n_workers: int) -> None:
        """Refuse a fault aimed at no worker of a pool of ``n_workers``."""
        for fault in (*self.failures, *self.hangs, *self.slowdowns):
            if not 0 <= fault.proc < n_workers:
                raise ValueError(
                    f"fault clause {fault.clause!r} targets worker "
                    f"{fault.proc}, but the pool has {n_workers} workers"
                )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact CLI string.

        Comma-separated clauses, ``<step>`` a 1-based evaluation index::

            kill=<worker>@<step>
            hang=<worker>@<step>[x<seconds>]   (no x: until escalated)
            slow=<worker>@<start>-<end>x<factor>

        No number may be NaN or negative, and only a ``slow`` window's end
        and a ``hang``'s seconds may be ``inf``.  A bad clause is refused
        with a ``ValueError`` that names it.  Example:
        ``"kill=1@3,hang=0@5x2.5,slow=1@2-6x8"``.
        """
        failures: list[ProcessorFailure] = []
        hangs: list[ProcessorHang] = []
        slowdowns: list[SlowdownWindow] = []
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
                if key == "kill":
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
                else:
                    raise ValueError(
                        f"unknown fault clause key {key!r} (the keys are "
                        "kill, hang and slow)"
                    )
            except ValueError as exc:
                raise ValueError(f"bad fault clause {clause!r}: {exc}") from None
        return cls(
            failures=tuple(failures),
            hangs=tuple(hangs),
            slowdowns=tuple(slowdowns),
        )


def _number(text: str, *, inf: bool = False) -> float:
    """``text`` as a number >= 0: never NaN, infinite only where ``inf``."""
    value = float(text)
    if math.isnan(value) or value < 0 or (math.isinf(value) and not inf):
        allowed = "a number >= 0 or inf" if inf else "a finite number >= 0"
        raise ValueError(f"{text!r} is not {allowed}")
    return value
