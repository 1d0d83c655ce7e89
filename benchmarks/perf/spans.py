"""Spans recorded from outside the program: timing wrappers over each
layer's public entry points, as the engine and the service see them.

The wrappers live here, not in ``src/``: a traced run installs them,
runs the workload, and removes them.  Spans stay in memory until the
run ends and are then written as Chrome-trace JSON (open in Perfetto or
``chrome://tracing``).  A span's *self time* is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    tid: int
    t0: int  # perf_counter_ns
    t1: int = 0
    #: identifier shared by every span of one step or one job
    req: str | None = None
    args: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    @property
    def live(self) -> bool:
        # forked pool workers inherit the wrappers; only the measuring
        # process records
        return self.enabled and os.getpid() == self._pid

    def open(self, name: str, req: str | None = None, **args) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent else None,
            tid=threading.get_ident(),
            t0=time.perf_counter_ns(),
            req=req or (parent.req if parent else None),
            args=args,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter_ns()
        self._local.stack.pop()

    def wrap(self, name: str, fn, req_of=None, annotate=None):
        """``fn`` timed as span ``name`` while the recorder is live.

        ``req_of(args)`` names the request the call belongs to (a job's
        spans carry the job's id); ``annotate(result)`` adds counts taken
        where the work happened.
        """
        rec = self

        def traced(*a, **kw):
            if not rec.live:
                return fn(*a, **kw)
            span = rec.open(name, req_of(a) if req_of else None)
            try:
                result = fn(*a, **kw)
                if annotate is not None:
                    span.args.update(annotate(result))
                return result
            finally:
                rec.close(span)

        traced.__wrapped__ = fn
        return traced

    # -- analysis -------------------------------------------------------- #
    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.t1]

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None and s.t1:
                out.setdefault(s.parent, []).append(s)
        return out

    def self_ms(self, name: str) -> list[float]:
        kids = self.children()
        return [
            s.ms - sum(c.ms for c in kids.get(s.id, ()))
            for s in self.by_name(name)
        ]

    def write_chrome_trace(self, path) -> None:
        if not self.spans:
            events = []
        else:
            base = min(s.t0 for s in self.spans)
            events = [
                {
                    "name": s.name,
                    "ph": "X",
                    "pid": self._pid,
                    "tid": s.tid,
                    "ts": (s.t0 - base) / 1e3,
                    "dur": (s.t1 - s.t0) / 1e3,
                    "args": {
                        "id": s.id, "parent": s.parent, "req": s.req, **s.args
                    },
                }
                for s in self.spans
                if s.t1
            ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _job_id(args) -> str:
    return args[0].workdir.name


def _slice_steps(records) -> dict:
    return {"steps": sum(1 for r in records if r.get("type") == "step")}


def _pair_count(pairs) -> dict:
    return {"candidates": int(len(pairs[0]))}


#: (span name, module, attribute path, hooks) — a name may be bound in
#: several modules (``from x import f``); each binding the engine calls
#: through is wrapped
TARGETS = [
    ("nonbonded.eval", "repro.md.engine", "compute_nonbonded", {}),
    ("bonded.eval", "repro.md.engine", "compute_bonded", {}),
    ("bonded.eval", "repro.md.parallel", "compute_bonded", {}),
    ("ewald.eval", "repro.md.ewald", "compute_ewald", {}),
    ("ewald.eval", "repro.md.parallel", "compute_ewald", {}),
    ("cells.enumerate", "repro.md.cells", "candidate_pairs", {"annotate": _pair_count}),
    ("cells.enumerate", "repro.md.pairlist", "candidate_pairs", {"annotate": _pair_count}),
    ("cells.enumerate", "repro.md.nonbonded", "candidate_pairs", {"annotate": _pair_count}),
    ("pairlist.pairs", "repro.md.pairlist", "VerletPairList.pairs", {"annotate": _pair_count}),
    ("parallel.spawn", "repro.md.parallel", "ParallelEngine.__init__", {}),
    ("parallel.close", "repro.md.parallel", "ParallelEngine.close", {}),
    ("parallel.dispatch", "repro.md.parallel", "ParallelNonbonded.dispatch", {}),
    ("parallel.collect", "repro.md.parallel", "ParallelNonbonded.collect", {}),
    ("integrator.step", "repro.md.integrator", "VelocityVerlet.step", {}),
    ("checkpoint.save", "repro.runtime.checkpoint", "save_run_checkpoint", {}),
    ("checkpoint.load", "repro.runtime.checkpoint", "load_run_checkpoint", {}),
    ("checkpoint.restore", "repro.runtime.checkpoint", "restore_run_checkpoint", {}),
    ("jobs.open", "repro.md.jobs", "SimJob.open", {"req_of": _job_id}),
    ("jobs.step_slice", "repro.md.jobs", "SimJob.step_slice", {"req_of": _job_id, "annotate": _slice_steps}),
    ("jobs.suspend", "repro.md.jobs", "SimJob.suspend", {"req_of": _job_id}),
    ("jobs.close", "repro.md.jobs", "SimJob.close", {"req_of": _job_id}),
    ("service.submit", "repro.service.scheduler", "SimulationService.submit", {}),
]


class Tracing:
    """Context manager: wrappers installed on entry, removed on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Recorder:
        for name, module, path, hooks in TARGETS:
            owner = importlib.import_module(module)
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.recorder.wrap(name, original, **hooks))
        self.recorder.enabled = True
        return self.recorder

    def __exit__(self, *exc) -> None:
        self.recorder.enabled = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
