"""The executors of the real parallel engine: threads, or supervised processes.

This module is the scheduling/supervision half of the repository's real
parallel engine, split out of :mod:`repro.md.parallel` so that *what* is
computed (an MD force field, a synthetic test workload, a future
multi-job service) is decoupled from *how* it is run.  The runtime knows
nothing about molecular dynamics — it is parameterized by a
:class:`~repro.pool.protocol.TaskProvider` and schedules opaque task
ids.  Two executors run them through one per-step loop (:func:`run_step`)
behind one driver surface: :class:`InProcessExecutor`, N evaluators on N
threads of this process (or one on the calling thread), and
:class:`SupervisedPool`, worker processes over shared memory for what only
processes give — a worker that can be killed, hung and replaced.  The pool
owns:

* **Worker lifecycle** — spawn and respawn of worker processes with
  per-worker command/result pipes; a process killed mid-send can corrupt
  only its own channel, never a shared queue, and the driver waits on
  the pipes *and* the process sentinels so a SIGKILL'd worker is
  detected within milliseconds, not at the step timeout.
* **Shared-memory segments** — one :class:`~repro.pool.segments.
  SegmentRegistry` per pool gives every segment a pid+token prefixed,
  collision-free name, so any number of pools can coexist in one
  process; all segments are unlinked by the bounded teardown ladder.
* **The epoch'd step protocol** — ``("step", seq, epoch, rebuild,
  payload, assignment)`` out, ``("ok"|"error", worker, seq, epoch[,
  traceback])`` back.  The per-worker epoch lets the driver re-issue an
  in-flight evaluation to a respawned or reassigned worker and discard
  any stale ack the previous incarnation left in the pipe.
* **Per-task timing** — each task's wall time (``perf_counter_ns`` around
  ``eval_task``, or the evaluator's own per-task clock for the tasks it
  batches; slowdown-injection inclusive) lands in the shared stats segment
  next to the three provider-defined result columns.
* **The recovery ladder** (:class:`~repro.pool.resilience.
  RecoveryPolicy`) — respawn with bounded retry and exponential backoff,
  then permanent reassignment of the dead slot's tasks to survivors
  (via a client-supplied ``reassign`` hook or a deterministic built-in),
  and finally *degradation*: the pool closes and reports failure so the
  client can run the tasks on an :class:`InProcessExecutor` instead of
  raising.
* **Deterministic fault injection** — a
  :class:`~repro.util.faults.FaultPlan` read by evaluation index: its
  kills and hangs fired against the pool's own children right after each
  dispatch, its slowdown windows measured on each worker (busy-spin after
  each task, once after a batch, so injected load is visible to
  measurement like any real background load).

The driver-side client (e.g. :class:`repro.md.parallel.
ParallelNonbonded`) composes ``begin_step`` / ``dispatch`` / its own
overlapped work / ``collect`` / ``finish_step``, then reduces the shared
scratch in task order.  Nothing in this module imports :mod:`repro.md`
(enforced by the layering tests).
"""

from __future__ import annotations

import atexit
import math
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import threading
import time
import traceback
import warnings
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.pool.protocol import (
    STAT_COLS,
    STAT_TIME_NS,
    STAT_V0,
    STAT_V1,
    STAT_V2,
    TaskProvider,
)
from repro.pool.resilience import (
    FaultInjector,
    RecoveryEventLog,
    RecoveryPolicy,
    ResilienceStats,
    pool_fault_plan,
)
from repro.pool.segments import (
    HAS_SHARED_MEMORY,
    SegmentRegistry,
    attach_segment,
)
from repro.util.faults import FaultPlan

__all__ = [
    "HAS_SHARED_MEMORY",
    "InProcessExecutor",
    "SupervisedPool",
]


# --------------------------------------------------------------------------- #
# interpreter-exit safety net: one handler, weak references only
# --------------------------------------------------------------------------- #
#: pools that are live (started, not yet closed).  A WeakSet so that a pool
#: dropped without close() never keeps itself alive just for the atexit
#: sweep, and so that explicit close() leaves no dead-object callback
#: behind — the failure mode of per-instance ``atexit.register(self.close)``.
_LIVE_POOLS: "weakref.WeakSet[SupervisedPool]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _close_live_pools() -> None:  # pragma: no cover - interpreter exit
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _track_pool(pool: "SupervisedPool") -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_close_live_pools)
        _ATEXIT_REGISTERED = True
    _LIVE_POOLS.add(pool)


# --------------------------------------------------------------------------- #
# the per-step task loop, shared by pool workers and executor threads
# --------------------------------------------------------------------------- #
@dataclass
class StepState:
    """What one task executor carries from step to step."""

    worker_id: int
    assignment: np.ndarray
    #: the pool's fault plan, for its slowdown windows (None: no plan)
    faults: FaultPlan | None = None
    my_tasks: list[int] = field(default_factory=list)
    offsets: np.ndarray | None = None


def run_step(
    evaluator, state, scratch, stats, seq, rebuild, payload, new_assignment=None
) -> None:
    """One evaluation of ``state.worker_id``'s tasks into ``scratch``/``stats``.

    The calling order of :mod:`repro.pool.protocol` — ``begin_step``,
    ``rebuild`` when asked for or when the assignment changed, ``eval_batch``
    when the evaluator has one, ``eval_task`` per owned task the batch did
    not cover with its wall time.  Recorded times include slowdown
    injection: a batch's own per-task times are scaled by the factor and
    one spin after it burns the difference; a single task is spun out to
    the factor right after it.  A pool worker runs this on shared-memory
    views, :class:`InProcessExecutor` on plain arrays; nothing else differs
    between the two.
    """
    perf = time.perf_counter_ns
    evaluator.begin_step(payload)
    changed = False
    if new_assignment is not None:
        new_assignment = np.asarray(new_assignment, dtype=np.int64)
        changed = not np.array_equal(new_assignment, state.assignment)
        state.assignment = new_assignment
    if rebuild or changed or state.offsets is None:
        state.my_tasks = np.flatnonzero(
            state.assignment == state.worker_id
        ).tolist()
        state.offsets = np.asarray(
            evaluator.rebuild(state.my_tasks), dtype=np.int64
        )
    offsets = state.offsets
    factor = (
        1.0
        if state.faults is None
        else state.faults.slowdown_factor(state.worker_id, seq)
    )
    rest = state.my_tasks
    batch = getattr(evaluator, "eval_batch", None)
    if batch is not None:
        tasks, rows = batch(scratch)
        if factor > 1.0:
            # busy-spin: the CPU "runs factor times slower", so the extra
            # time is real, measurable load
            target = perf() + (factor - 1.0) * rows[:, STAT_TIME_NS].sum()
            while perf() < target:
                pass
            rows[:, STAT_TIME_NS] *= factor
        stats[tasks] = rows
        batched = set(tasks.tolist())
        rest = [t for t in rest if t not in batched]
    for t in rest:
        t0 = perf()
        block = scratch[offsets[t] : offsets[t + 1]]
        block[...] = 0.0
        v0, v1, v2 = evaluator.eval_task(t, block)
        elapsed = perf() - t0
        if factor > 1.0:
            target = t0 + elapsed * factor
            while perf() < target:
                pass
            elapsed = perf() - t0
        stats[t, STAT_V0] = v0
        stats[t, STAT_V1] = v1
        stats[t, STAT_V2] = v2
        stats[t, STAT_TIME_NS] = elapsed


#: the command that ends an executor thread's loop
_STOP = ("stop",)


class InProcessExecutor:
    """The tasks of a provider on ``n_workers`` evaluators in this process.

    The process-less twin of :class:`SupervisedPool`: the same driver
    surface (:meth:`dispatch` / :meth:`collect` / :meth:`finish_step`,
    ``scratch`` / ``stats`` / :meth:`view`, ``assignment``, ``seq``) over
    plain arrays, and the same :func:`run_step` per evaluator, so a client
    reduces either result with the same code and gets the same bits.  With
    one evaluator (the default) :meth:`collect` runs every task on the
    calling thread; with ``n_workers >= 2`` evaluator ``w`` runs the tasks
    ``assignment`` gives it on a thread of its own, which parks on its own
    condition between steps.  The threads share every array: an evaluator
    writes only its tasks' scratch blocks and stats rows, which the
    task-ordered layout keeps disjoint.

    What processes give and threads do not is recovery — a thread cannot be
    killed.  An evaluator's exception re-raises from :meth:`collect`, naming
    its thread, once every thread has finished (that evaluator rebuilds
    before its next step); a thread silent ``timeout`` seconds after the
    dispatch makes :meth:`collect` raise :class:`TimeoutError` and closes
    the executor.
    """

    _TEARDOWN_BUDGET_S = 5.0

    def __init__(
        self,
        provider: TaskProvider,
        n_workers: int = 1,
        assignment=None,
        *,
        timeout: float = 120.0,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        n_tasks = int(provider.n_tasks)
        self.n_workers = n = max(int(n_workers), 1)
        self.timeout = float(timeout)
        self.scratch = np.zeros(provider.scratch_shape(), dtype=np.float64)
        self.stats = np.zeros((n_tasks, STAT_COLS), dtype=np.float64)
        self._views = {
            label: np.zeros(shape, dtype=np.dtype(dtype))
            for label, (shape, dtype) in provider.segments().items()
        }
        if assignment is None:
            assignment = np.zeros(n_tasks, dtype=np.int64)
        self._assignment = np.asarray(assignment, dtype=np.int64).copy()
        if len(self._assignment) != n_tasks:
            raise ValueError("assignment length must equal provider.n_tasks")
        views = {**self._views, "scratch": self.scratch, "stats": self.stats}
        self._evaluators = [provider.make_evaluator(w, n, views) for w in range(n)]
        self._states = [StepState(w, self._assignment) for w in range(n)]
        self._seq = 0
        #: the ``run_step`` arguments of the evaluation awaiting collect()
        self._pending: tuple | None = None
        self._t_dispatch: float | None = None
        self._closed = False
        n_threads = n if n > 1 else 0
        #: per thread: the command it is to run next, and where it parks
        self._commands: list = [None] * n_threads
        self._wake = [threading.Condition() for _ in range(n_threads)]
        #: guards the threads' reports: who is still running, who raised
        self._done = threading.Condition()
        self._running: set[int] = set()
        self._errors: dict[int, Exception] = {}
        self._threads = [
            threading.Thread(
                target=self._serve, args=(w,), name=f"repro-executor-{w}",
                daemon=True,
            )
            for w in range(n_threads)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def active(self) -> bool:
        """True until :meth:`close` (or a timeout) stops the executor."""
        return not self._closed

    @property
    def seq(self) -> int:
        """Sequence number of the most recent (or in-flight) evaluation."""
        return self._seq

    @seq.setter
    def seq(self, value: int) -> None:
        self._seq = int(value)

    @property
    def pending(self) -> int | None:
        """Sequence number of the in-flight evaluation, if any."""
        return None if self._pending is None else self._seq

    @property
    def assignment(self) -> np.ndarray:
        """The live task→evaluator map."""
        return self._assignment

    @property
    def n_live(self) -> int:
        return self.n_workers

    @property
    def dead_workers(self) -> frozenset:
        """Always empty: a thread is never declared dead."""
        return frozenset()

    def view(self, label: str) -> np.ndarray:
        """The provider data segment ``label`` (a plain array here)."""
        return self._views[label]

    def begin_step(self) -> bool:
        return not self._closed

    def dispatch(self, rebuild: bool, payload, new_assignment=None) -> int:
        """Start one evaluation; returns its sequence number.  With threads
        it runs while the caller goes on; exactly one :meth:`collect` must
        follow."""
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._pending is not None:
            raise RuntimeError("dispatch() called with a collect() outstanding")
        self._seq += 1
        if new_assignment is not None:
            self._assignment = np.asarray(new_assignment, dtype=np.int64)
        command = (self._seq, rebuild, payload, new_assignment)
        self._pending = command
        self._t_dispatch = time.monotonic()
        with self._done:
            self._errors = {}
            self._running = set(range(len(self._threads)))
        for w, wake in enumerate(self._wake):
            with wake:
                self._commands[w] = command
                wake.notify()
        return self._seq

    def collect(self) -> bool:
        """Finish the outstanding evaluation: run it here (one evaluator)
        or wait for every thread; True when done, like the pool's.  Raises
        an evaluator's exception (the lowest worker id's, if several
        raised) or :class:`TimeoutError`."""
        command = self._pending
        if command is None:
            raise RuntimeError("collect() called without a dispatch()")
        if not self._threads:
            self._pending = None
            error = self._run(0, command)
            if error is not None:
                raise error
            return True
        remaining = self._t_dispatch + self.timeout - time.monotonic()
        with self._done:
            self._done.wait_for(lambda: not self._running, max(remaining, 0.0))
            silent = sorted(self._running)
            errors = dict(self._errors)
        if silent:
            names = ", ".join(self._threads[w].name for w in silent)
            self._stop()
            raise TimeoutError(
                f"executor thread(s) {names} silent past the "
                f"{self.timeout:g}s timeout; the executor is closed"
            )
        self._pending = None
        if errors:
            w = min(errors)
            error = errors[w]
            if hasattr(error, "add_note"):  # Python >= 3.11
                error.add_note(f"raised on executor thread {self._threads[w].name}")
            raise error
        return True

    def finish_step(self) -> float:
        """Close out a collected evaluation; returns its wall time."""
        t0, self._t_dispatch = self._t_dispatch, None
        return 0.0 if t0 is None else time.monotonic() - t0

    def run(self, rebuild: bool, payload) -> None:
        """Evaluate all tasks once; ``payload`` goes to ``begin_step``."""
        self.dispatch(rebuild, payload)
        self.collect()
        self.finish_step()

    def _run(self, w: int, command) -> Exception | None:
        """Evaluator ``w``'s part of ``command``; returns what it raised."""
        try:
            run_step(
                self._evaluators[w], self._states[w], self.scratch, self.stats,
                *command,
            )
        except Exception as exc:
            # whatever the evaluator holds may be half-built: it rebuilds
            # from the reference data before its next evaluation
            self._states[w].offsets = None
            return exc
        return None

    def _serve(self, w: int) -> None:
        """Executor thread ``w``: park on its condition, run, report."""
        wake = self._wake[w]
        try:
            while True:
                with wake:
                    wake.wait_for(lambda: self._commands[w] is not None)
                    command, self._commands[w] = self._commands[w], None
                if command is _STOP:
                    return
                error = self._run(w, command)
                with self._done:
                    if error is not None:
                        self._errors[w] = error
                    self._running.discard(w)
                    self._done.notify_all()
        finally:
            self._evaluators[w].close()

    def _stop(self) -> None:
        """Tell every thread to exit after the step it may be in."""
        if self._closed:
            return
        self._closed = True
        self._pending = None
        self._t_dispatch = None
        for w, wake in enumerate(self._wake):
            with wake:
                self._commands[w] = _STOP
                wake.notify()

    def close(self) -> None:
        """Stop and join the executor threads (idempotent; an outstanding
        evaluation is dropped).  The joins share one bounded budget: a
        thread stuck in a task is left behind as a daemon, and the next
        :meth:`close` joins it again."""
        self._stop()
        deadline = time.monotonic() + self._TEARDOWN_BUDGET_S
        for thread in self._threads:
            thread.join(max(deadline - time.monotonic(), 0.0))

    def __enter__(self) -> "InProcessExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# worker side: the generic command loop
# --------------------------------------------------------------------------- #
def _pool_worker_main(
    worker_id,
    n_workers,
    cmd_conn,
    res_conn,
    seg_names,
    seg_specs,
    scratch_shape,
    n_tasks,
    provider,
    assignment,
    faults,
):
    """Worker loop: attach shared segments, then serve step/stop commands.

    All domain work is delegated to the provider's evaluator and the step
    body to :func:`run_step`; this loop owns the protocol (epochs, acks,
    error replies).
    """
    segs = {label: attach_segment(name) for label, name in seg_names.items()}
    scratch = np.ndarray(
        scratch_shape, dtype=np.float64, buffer=segs["scratch"].buf
    )
    stats = np.ndarray(
        (n_tasks, STAT_COLS),
        dtype=np.float64,
        buffer=segs["stats"].buf,
    )
    views: dict[str, np.ndarray] = {"scratch": scratch, "stats": stats}
    for label, (shape, dtype) in seg_specs.items():
        views[label] = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=segs[label].buf
        )
    evaluator = provider.make_evaluator(worker_id, n_workers, views)
    state = StepState(worker_id, np.asarray(assignment, dtype=np.int64), faults)
    try:
        while True:
            try:
                cmd = cmd_conn.recv()
            except (EOFError, OSError):
                break  # driver gone
            if cmd[0] == "stop":
                break
            seq = epoch = -1
            try:
                _, seq, epoch, rebuild, payload, new_assignment = cmd
                run_step(
                    evaluator, state, scratch, stats,
                    seq, rebuild, payload, new_assignment,
                )
                res_conn.send(("ok", worker_id, seq, epoch))
            except Exception:
                try:
                    res_conn.send(
                        ("error", worker_id, seq, epoch, traceback.format_exc())
                    )
                except (OSError, ValueError):  # pragma: no cover
                    break
    finally:
        # evaluator views must drop their buffer exports before the mmaps
        # close; a provider that failed to build cleanly must not block
        # the unmap either
        try:
            evaluator.close()
        except Exception:  # pragma: no cover
            pass
        del views, scratch, stats, evaluator
        for seg in segs.values():
            seg.close()


# --------------------------------------------------------------------------- #
# driver side
# --------------------------------------------------------------------------- #
class SupervisedPool:
    """A persistent, supervised pool of worker processes over shared memory.

    ``provider`` describes the tasks (see :class:`~repro.pool.protocol.
    TaskProvider`); ``n_workers`` is the exact pool size (the caller
    resolves "one per CPU" and task-count clamping); ``assignment`` the
    initial task→worker map.  ``reassign(dead_worker, assignment,
    survivors)`` may return a full replacement assignment when a worker
    is declared permanently dead (the MD layer routes this through its
    measurement database and load balancers); without it, orphans are
    dealt round-robin to survivors.  ``on_recovery_note(label, n)``
    mirrors recovery counters into client-side accounting.
    ``fault_plan`` is the one source of injected faults, its times
    evaluation indices: it arms the kill/hang injector and gives each
    worker its slowdown windows; a plan aimed at a worker the pool does not
    have (:func:`~repro.pool.resilience.pool_fault_plan`) is refused before
    any worker starts.

    Driver call order per evaluation::

        pool.begin_step()            # liveness sweep; False => degraded
        pool.dispatch(rebuild, payload, new_assignment)
        ... client-side overlapped work ...
        pool.collect()               # supervised wait; False => degraded
        wall = pool.finish_step()
        ... client reduces pool.scratch / reads pool.stats ...

    The pool is idempotently closable, closes itself at interpreter exit
    through a weak-reference registry (no dead-object atexit callbacks),
    and bounds teardown latency even with hung workers.
    """

    _TEARDOWN_BUDGET_S = 5.0

    def __init__(
        self,
        provider: TaskProvider,
        n_workers: int,
        assignment,
        *,
        timeout: float = 120.0,
        policy: RecoveryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        start_method: str | None = None,
        reassign: Callable | None = None,
        on_recovery_note: Callable | None = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        if n_workers < 2:
            raise ValueError("SupervisedPool needs at least 2 workers")
        if fault_plan is not None:
            pool_fault_plan(fault_plan, n_workers)
        self.provider = provider
        self.n_tasks = int(provider.n_tasks)
        self.n_workers = int(n_workers)
        self.timeout = float(timeout)
        self.policy = policy or RecoveryPolicy()
        self.resilience = ResilienceStats()
        self._reassign_cb = reassign
        self._note_cb = on_recovery_note
        self.fault_plan = fault_plan
        self._assignment = np.asarray(assignment, dtype=np.int64).copy()
        if len(self._assignment) != self.n_tasks:
            raise ValueError("assignment length must equal provider.n_tasks")

        self._registry: SegmentRegistry | None = None
        self._views: dict[str, np.ndarray] = {}
        self._procs: list = []
        self._cmd_conns: list = []
        self._res_conns: list = []
        self._worker_epoch: list[int] = []
        self._dead_workers: set[int] = set()
        self._respawn_counts: dict[int, int] = {}
        self._acked: set[int] = set()
        self._injector: FaultInjector | None = None
        self._seq = 0
        self._pending: int | None = None
        self._payload = None
        self._t_dispatch: float | None = None
        self._deadline: float | None = None
        self._t_eval_start: float | None = None
        self._step_wall_ewma = 0.0
        #: dispatch-to-first-ack latency of the pending evaluation (0 until
        #: a worker acks): calibrates hang detection before any clean step
        self._first_ack_s = 0.0
        self._recovery_rounds = 0
        self._last_reassign_moved = 0
        self._unsent_reassignment = False
        self._degraded_reason: str | None = None
        self._closed = False

        try:
            self._start(start_method)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    def _start(self, start_method) -> None:
        provider = self.provider
        scratch_shape = tuple(int(d) for d in provider.scratch_shape())
        self._scratch_shape = scratch_shape
        self._seg_specs = {
            label: (tuple(int(d) for d in shape), str(dtype))
            for label, (shape, dtype) in provider.segments().items()
        }
        for label in ("scratch", "stats"):
            if label in self._seg_specs:
                raise ValueError(f"provider segment label {label!r} is reserved")

        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)

        registry = SegmentRegistry()
        self._registry = registry
        registry.create(
            "scratch", max(int(np.prod(scratch_shape)), 1) * 8
        )
        registry.create("stats", max(self.n_tasks, 1) * STAT_COLS * 8)
        self._views["scratch"] = np.ndarray(
            scratch_shape, dtype=np.float64, buffer=registry.get("scratch").buf
        )
        self._views["stats"] = np.ndarray(
            (self.n_tasks, STAT_COLS),
            dtype=np.float64,
            buffer=registry.get("stats").buf,
        )
        for label, (shape, dtype) in self._seg_specs.items():
            nbytes = max(int(np.prod(shape)), 1) * np.dtype(dtype).itemsize
            registry.create(label, nbytes)
            self._views[label] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=registry.get(label).buf
            )

        self._procs = [None] * self.n_workers
        self._cmd_conns = [None] * self.n_workers
        self._res_conns = [None] * self.n_workers
        self._worker_epoch = [0] * self.n_workers
        for w in range(self.n_workers):
            self._spawn_worker(w)
        if self.fault_plan is not None:
            self._injector = FaultInjector(self.fault_plan)
        _track_pool(self)

    def _spawn_worker(self, w: int) -> bool:
        """(Re)start worker ``w``: fresh pipes, fresh process, index slot.

        The child re-attaches the live shared segments and is handed the
        *current* assignment; provider state is rebuilt on the first
        command that asks for a rebuild.  Returns False — spawning
        nothing and orphaning nothing — when the pool is already closed
        (a close() racing an in-flight recovery must win).
        """
        if self._closed:
            return False
        ctx = self._ctx
        cmd_recv, cmd_send = ctx.Pipe(duplex=False)
        res_recv, res_send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_pool_worker_main,
            args=(
                w,
                self.n_workers,
                cmd_recv,
                res_send,
                self._registry.names(),
                self._seg_specs,
                self._scratch_shape,
                self.n_tasks,
                self.provider,
                self._assignment,
                self.fault_plan,
            ),
            daemon=True,
            name=f"repro-pool-worker-{w}",
        )
        proc.start()
        # close the child's pipe ends in the parent so a dead child turns
        # into EOF on its result conn instead of a silent hang
        cmd_recv.close()
        res_send.close()
        self._procs[w] = proc
        self._cmd_conns[w] = cmd_send
        self._res_conns[w] = res_recv
        if self._closed:
            # close() landed between the entry check and start(): reap the
            # half-spawned worker immediately rather than orphaning it
            self._reap_worker(w)
            return False
        return True

    def _reap_worker(self, w: int) -> None:
        proc = self._procs[w]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - terminate refused
                proc.kill()
                proc.join(timeout=1.0)
        for conn in (self._cmd_conns[w], self._res_conns[w]):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._procs[w] = None
        self._cmd_conns[w] = None
        self._res_conns[w] = None

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """True while the pool can serve evaluations (started, not closed)."""
        return not self._closed

    @property
    def seq(self) -> int:
        """Sequence number of the most recent (or in-flight) evaluation."""
        return self._seq

    @seq.setter
    def seq(self, value: int) -> None:
        # clients realign the counter on checkpoint restore so that
        # step-indexed events (remaps, fault plans) land on the same
        # absolute evaluation numbers as the run that wrote the checkpoint
        self._seq = int(value)

    @property
    def pending(self) -> int | None:
        """Sequence number of the in-flight evaluation, if any."""
        return self._pending

    @property
    def deadline(self) -> float | None:
        """Absolute monotonic deadline of the in-flight evaluation."""
        return self._deadline

    @property
    def assignment(self) -> np.ndarray:
        """The live task→worker map."""
        return self._assignment

    @property
    def procs(self) -> list:
        """Worker process handles (None for torn-down slots)."""
        return self._procs

    @property
    def scratch(self) -> np.ndarray | None:
        return self._views.get("scratch")

    @property
    def stats(self) -> np.ndarray | None:
        return self._views.get("stats")

    def view(self, label: str) -> np.ndarray:
        """Driver-side view of a provider data segment."""
        return self._views[label]

    @property
    def degraded_reason(self) -> str | None:
        """Why the pool degraded and closed (None while healthy)."""
        return self._degraded_reason

    def live_workers(self) -> list[int]:
        return [w for w in range(self.n_workers) if w not in self._dead_workers]

    @property
    def dead_workers(self) -> frozenset:
        """Workers declared permanently dead (their tasks reassigned)."""
        return frozenset(self._dead_workers)

    @property
    def n_live(self) -> int:
        """Workers still serving tasks (``n_workers`` minus permanent dead)."""
        return self.n_workers - len(self._dead_workers)

    # ------------------------------------------------------------------ #
    def begin_step(self) -> bool:
        """Between-steps liveness sweep; heal or degrade before dispatching.

        Returns False when the pool degraded (and closed) instead.
        """
        self._recovery_rounds = 0
        for w in self.live_workers():
            proc = self._procs[w]
            if proc is not None and not proc.is_alive():
                if not self._recover_worker(w, "died", "found dead at dispatch"):
                    return False
        return True

    def dispatch(self, rebuild: bool, payload, new_assignment=None) -> int:
        """Start the workers on one evaluation; returns its sequence number.

        ``payload`` is forwarded opaquely to every evaluator's
        ``begin_step``; ``new_assignment`` (when not None) becomes the
        live task→worker map and rides along in the step command.
        Exactly one :meth:`collect` + :meth:`finish_step` must follow.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._pending is not None:
            raise RuntimeError("dispatch() called with a collect() outstanding")
        self._seq += 1
        if new_assignment is not None:
            self._assignment = np.asarray(new_assignment, dtype=np.int64)
        elif self._unsent_reassignment:
            # a worker found dead between steps: the survivors that took
            # its tasks learn of them now (a changed map makes them rebuild)
            new_assignment = self._assignment
        self._unsent_reassignment = False
        self._pending = self._seq
        self._payload = payload
        self._acked = set()
        self._first_ack_s = 0.0
        # the timeout budget starts when the workers do — the client may
        # run arbitrary overlapped work before it first waits
        self._t_dispatch = time.monotonic()
        self._deadline = self._t_dispatch + self.timeout
        # ... whereas the recovery budget spans the whole evaluation: it
        # is never re-armed by a recovery, only by the next dispatch
        self._t_eval_start = self._t_dispatch
        for w in self.live_workers():
            # a failed send means the worker just died; don't recover here —
            # all original commands must be out before any re-issue, or a
            # replacement could interleave a stale command after its re-sent
            # one.  collect()'s liveness sweep picks it up immediately.
            self._command_step(w, rebuild, new_assignment)
        if self._injector is not None:
            pids = {
                w: self._procs[w].pid
                for w in self.live_workers()
                if self._procs[w] is not None
            }
            self._injector.inject(self._seq, pids)
        return self._seq

    def _command_step(self, w: int, rebuild: bool, assignment_payload) -> bool:
        cmd = (
            "step",
            self._pending,
            self._worker_epoch[w],
            rebuild,
            self._payload,
            assignment_payload,
        )
        try:
            self._cmd_conns[w].send(cmd)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

    def finish_step(self) -> float:
        """Close out a collected evaluation; returns its wall time."""
        step_wall = (
            time.monotonic() - self._t_dispatch
            if self._t_dispatch is not None
            else 0.0
        )
        self._pending = None
        self._payload = None
        self._deadline = None
        self._t_dispatch = None
        self._t_eval_start = None
        if self._recovery_rounds == 0:
            # hang detection calibrates on clean steps only — a recovered
            # step's wall time includes backoff sleeps and re-execution
            self._step_wall_ewma = (
                step_wall
                if self._step_wall_ewma <= 0.0
                else 0.2 * step_wall + 0.8 * self._step_wall_ewma
            )
        if self._dead_workers:
            self.resilience.degraded_steps += 1
        return step_wall

    # ------------------------------------------------------------------ #
    # supervision: detection, respawn, reassignment, degradation
    # ------------------------------------------------------------------ #
    def collect(self) -> bool:
        """Wait until every live worker acked the pending evaluation.

        Returns False only when the pool degraded all the way down (the
        caller then serves the evaluation by other means).
        """
        policy = self.policy
        while True:
            if self._closed:
                return False
            live = self.live_workers()
            unacked = [w for w in live if w not in self._acked]
            if not unacked:
                return True
            now = time.monotonic()
            if self._injector is not None:
                self._injector.poll()
            if self._deadline is not None and now >= self._deadline:
                if not self._recover_worker(
                    unacked[0],
                    "hung",
                    f"no ack within the {self.timeout:.0f}s timeout",
                ):
                    return False
                continue
            # before the first clean step, a peer's ack to this very
            # evaluation is the only timing there is; with no ack at all
            # only the hard timeout applies
            hang_t = policy.hang_threshold(
                self._step_wall_ewma or self._first_ack_s, self.timeout
            )
            if (
                self._t_dispatch is not None
                and now - self._t_dispatch > hang_t
                and self._procs[unacked[0]] is not None
                and self._procs[unacked[0]].is_alive()
            ):
                if not self._recover_worker(
                    unacked[0],
                    "hung",
                    f"silent for {now - self._t_dispatch:.2f}s "
                    f"(threshold {hang_t:.2f}s)",
                ):
                    return False
                continue
            wait_objs = []
            for w in unacked:
                if self._res_conns[w] is not None:
                    wait_objs.append(self._res_conns[w])
                if self._procs[w] is not None:
                    wait_objs.append(self._procs[w].sentinel)
            budget = min(
                policy.poll_interval_s,
                max(self._deadline - now, 1e-3),
                max(hang_t - (now - self._t_dispatch), 1e-3),
            )
            try:
                mp_connection.wait(wait_objs, timeout=budget)
            except OSError:  # pragma: no cover - closed handle race
                pass
            # liveness is checked on EVERY iteration: a SIGKILL'd worker is
            # detected within one poll interval, not at timeout expiry
            recovered = False
            for w in list(unacked):
                proc = self._procs[w]
                if proc is not None and not proc.is_alive():
                    if not self._recover_worker(w, "died", "process exited"):
                        return False
                    recovered = True
            if recovered:
                continue
            for w in list(unacked):
                conn = self._res_conns[w]
                if conn is None:
                    continue
                drained_dead = False
                while True:
                    try:
                        if not conn.poll():
                            break
                        msg = conn.recv()
                    except (EOFError, OSError):
                        drained_dead = True
                        break
                    if not self._handle_ack(w, msg):
                        return False
                    if self._res_conns[w] is not conn:
                        break  # worker was respawned; old conn is gone
                if drained_dead:
                    if not self._recover_worker(w, "died", "result pipe EOF"):
                        return False

    def _handle_ack(self, w: int, msg) -> bool:
        tag, wid, seq, epoch = msg[0], msg[1], msg[2], msg[3]
        if seq != self._pending or epoch != self._worker_epoch[wid]:
            return True  # stale ack from before a recovery re-issue
        if tag == "error":
            return self._recover_worker(
                wid, "error", f"worker raised:\n{msg[4]}"
            )
        if not self._first_ack_s and self._t_dispatch is not None:
            self._first_ack_s = time.monotonic() - self._t_dispatch
        self._acked.add(wid)
        return True

    def _note(self, label: str, n: int = 1) -> None:
        if self._note_cb is not None:
            self._note_cb(label, n)

    def _recover_worker(self, w: int, kind: str, detail: str = "") -> bool:
        """Heal a failed worker: respawn → reassign → degrade.

        Returns False only when the pool degraded (and closed).
        """
        if self._closed:
            return False
        t0 = time.monotonic()
        detection = (
            t0 - self._t_dispatch if self._t_dispatch is not None else 0.0
        )
        self._recovery_rounds += 1
        if self._recovery_rounds > self.policy.max_recovery_rounds:
            return self._degrade(
                f"recovery limit reached ({self.policy.max_recovery_rounds} "
                f"rounds in one evaluation); last failure: worker {w} {kind}"
            )
        if self._pending is not None and self._t_eval_start is not None:
            spent = t0 - self._t_eval_start
            budget = self.policy.recovery_budget(self.timeout)
            if spent >= budget:
                return self._degrade(
                    f"recovery budget exhausted ({spent:.1f}s >= "
                    f"{budget:.1f}s in one evaluation); last failure: "
                    f"worker {w} {kind}"
                )
        # counters live in ResilienceStats.note_event (called below); the
        # note callback mirrors them into client accounting (e.g. WorkDB)
        if kind == "died":
            self._note("kills")
        elif kind == "hung":
            self._note("hangs")
        else:
            self._note("errors")
        proc = self._procs[w]
        if proc is not None and proc.is_alive():
            # hung or errored: SIGKILL works on stopped processes too
            proc.kill()
            proc.join(timeout=5.0)
        for conn in (self._cmd_conns[w], self._res_conns[w]):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
        self._cmd_conns[w] = None
        self._res_conns[w] = None
        self._procs[w] = None
        self._acked.discard(w)

        attempts = self._respawn_counts.get(w, 0)
        action = None
        tasks_moved = 0
        if attempts < self.policy.max_respawns:
            time.sleep(self.policy.backoff(attempts))
            self._respawn_counts[w] = attempts + 1
            if self._closed:
                # close() arrived during the backoff: do not spawn into a
                # torn-down pool (the replacement would be orphaned)
                return False
            try:
                spawned = self._spawn_worker(w)
            except Exception:  # pragma: no cover - spawn failure is rare
                self.resilience.respawn_failures += 1
            else:
                if not spawned:
                    return False  # pool closed mid-spawn; nothing to heal
                self.resilience.respawns += 1
                self._note("respawns")
                action = "respawned"
                if self._pending is not None:
                    # re-issue under a fresh epoch; rebuild=True makes the
                    # replacement reconstruct its state from the shared
                    # reference data, so its task blocks are bitwise those
                    # the dead worker would have written
                    self._worker_epoch[w] += 1
                    self.resilience.steps_redone += 1
                    if not self._command_step(w, True, self._assignment):
                        # died again before the re-issue landed; next loop
                        # iteration recovers it (bounded by recovery rounds)
                        pass
        if action is None:
            degraded = not self._reassign_dead(w)
            if degraded:
                return False
            action = "reassigned"
            tasks_moved = self._last_reassign_moved
        dt = time.monotonic() - t0
        event = RecoveryEventLog(
            step=self._seq,
            worker=w,
            kind=kind,
            action=action,
            detection_s=detection,
            recovery_s=dt,
            tasks_moved=tasks_moved,
            detail=detail,
        )
        self.resilience.note_event(event)
        # a successful recovery earns a fresh wait budget: the re-issued
        # evaluation should not inherit a nearly expired deadline — but
        # never past the evaluation's total recovery budget, or a flapping
        # worker could ratchet the deadline forward indefinitely
        if self._pending is not None:
            self._t_dispatch = time.monotonic()
            self._deadline = self._t_dispatch + self.timeout
            if self._t_eval_start is not None:
                budget = self.policy.recovery_budget(self.timeout)
                if math.isfinite(budget):
                    self._deadline = min(
                        self._deadline, self._t_eval_start + budget
                    )
        return True

    def _default_reassign(self, w: int, survivors: list[int]) -> np.ndarray:
        """Deterministic round-robin of the dead slot's tasks to survivors."""
        new_assignment = self._assignment.copy()
        orphans = np.flatnonzero(new_assignment == w)
        for k, tid in enumerate(orphans.tolist()):
            new_assignment[tid] = survivors[k % len(survivors)]
        return new_assignment

    def _reassign_dead(self, w: int) -> bool:
        """Permanent death: move ``w``'s tasks to survivors.

        Returns False when no survivors remain (degraded).
        """
        self._dead_workers.add(w)
        survivors = self.live_workers()
        if not survivors:
            return self._degrade("no workers left")
        orphans = np.flatnonzero(self._assignment == w)
        if self._reassign_cb is not None:
            new_assignment = self._reassign_cb(w, self._assignment, survivors)
            if new_assignment is None:
                new_assignment = self._default_reassign(w, survivors)
            else:
                new_assignment = np.asarray(new_assignment, dtype=np.int64)
        else:
            new_assignment = self._default_reassign(w, survivors)
        # every orphan MUST leave the dead slot or its scratch block would
        # silently never be computed
        strays = [
            tid
            for tid in orphans.tolist()
            if int(new_assignment[tid]) in self._dead_workers
        ]
        for k, tid in enumerate(strays):  # pragma: no cover - safety net
            new_assignment[tid] = survivors[k % len(survivors)]
        self._assignment = new_assignment
        self.resilience.tasks_reassigned += int(len(orphans))
        self._note("reassigned", int(len(orphans)))
        self._last_reassign_moved = int(len(orphans))
        if self.resilience.mode == "full":
            self.resilience.mode = "degraded"
            self.resilience.degraded_since_step = self._seq
        if self._pending is not None:
            # survivors whose task set grew must redo the evaluation under
            # the new map; rebuild=True re-derives their state from the
            # shared reference data so the redone blocks are bitwise
            # unchanged
            gained = {
                int(new_assignment[t]) for t in orphans.tolist()
            } & set(survivors)
            for s in sorted(gained):
                self._worker_epoch[s] += 1
                self._acked.discard(s)
                self.resilience.steps_redone += 1
                self._command_step(s, True, self._assignment)
            # survivors that did not gain tasks still need the new map for
            # their *next* rebuild; it rides along at the next rebuild via
            # the normal assignment payload (their current blocks are valid)
        else:
            self._unsent_reassignment = True
        return True

    def _degrade(self, reason: str) -> bool:
        """Bottom rung of the ladder: close the pool, report failure."""
        self.resilience.mode = "sequential"
        if self.resilience.degraded_since_step is None:
            self.resilience.degraded_since_step = self._seq
        self._note("degraded")
        self.resilience.note_event(
            RecoveryEventLog(
                step=self._seq,
                worker=-1,
                kind="died",
                action="degraded",
                detection_s=0.0,
                recovery_s=0.0,
                detail=reason,
            )
        )
        self._degraded_reason = reason
        warnings.warn(
            f"worker pool degraded ({reason}); its tasks continue in-process",
            RuntimeWarning,
            stacklevel=4,
        )
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #
    def _teardown(self) -> None:
        """Best-effort release of pool state, bounded in total latency.

        All workers are joined *concurrently* against one overall deadline
        (not 5 s serially per worker), escalating ``terminate`` and then
        ``kill`` for stragglers — so shutdown of an ``n``-worker pool with
        hung members costs O(budget), not O(n × budget).
        """
        if self._injector is not None:
            # never leave SIGSTOP'd children frozen behind a dead driver
            self._injector.release_all()
        for conn in self._cmd_conns:
            if conn is None:
                continue
            try:
                conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + self._TEARDOWN_BUDGET_S
        procs = [p for p in self._procs if p is not None]
        pending = [p for p in procs if p.is_alive()]
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                mp_connection.wait(
                    [p.sentinel for p in pending],
                    timeout=min(remaining, 0.2),
                )
            except OSError:  # pragma: no cover - sentinel close race
                pass
            pending = [p for p in pending if p.is_alive()]
        for p in pending:
            p.terminate()
        if pending:
            grace = time.monotonic() + 0.5
            while any(p.is_alive() for p in pending):
                if time.monotonic() >= grace:
                    break
                time.sleep(0.01)
            for p in pending:
                if p.is_alive():  # pragma: no cover - terminate refused
                    p.kill()
        for p in procs:
            p.join(timeout=0.2)
        for conn in [*self._cmd_conns, *self._res_conns]:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._procs = []
        self._cmd_conns = []
        self._res_conns = []
        # numpy views must drop their buffer exports before the mmaps close
        self._views = {}
        if self._registry is not None:
            self._registry.unlink_all()
            self._registry = None

    def close(self) -> None:
        """Stop the workers and release shared memory (idempotent).

        Safe under double-close, close-during-dispatch (the outstanding
        evaluation is dropped), and close racing an in-flight recovery
        respawn (the half-spawned replacement is reaped, never orphaned).
        """
        if self._closed:
            return
        self._closed = True
        self._pending = None
        self._payload = None
        self._deadline = None
        self._t_dispatch = None
        self._t_eval_start = None
        _LIVE_POOLS.discard(self)
        self._teardown()

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - finalizer timing varies
        try:
            self.close()
        except Exception:
            pass
