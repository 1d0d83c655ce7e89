"""Checkpointing and recovery accounting: in-memory (simulated runtime)
and on-disk (real MD engines).

**In-memory double checkpointing** follows the Charm++ lineage: at a
quiescent point every chare serializes its state twice — once kept on its
own processor, once sent to a *buddy* (the next live processor) — so that
any single fail-stop failure leaves at least one copy of every chare
alive.  Recovery restores lost chares from buddy copies onto surviving
processors and replays from the checkpointed step.

The chare snapshot is generic: a deep copy of ``__dict__`` minus the
runtime-wiring attributes (:data:`SKIP_ATTRS`) that the driver rebuilds
when it re-creates the chare graph on the degraded machine.  That keeps
the protocol counters and round numbers — everything needed to resume —
while staying agnostic to the concrete chare class.

**Disk run checkpoints** (:class:`RunCheckpoint`) serve the real engines:
an atomic ``.npz`` snapshot of the dynamical state (positions, velocities,
forces, box, step counter) written through
:func:`repro.util.atomic_write_bytes`, so a run killed mid-write never
corrupts its restart file.  The bit-identical-resume contract: writing a
checkpoint pins a pair-list rebuild at the *next* evaluation (the engine
invalidates its ``pairlist``), and :func:`restore_run_checkpoint` pins the
same rebuild in the resumed engine — so the original run past the
checkpoint and the resumed run share the rebuild schedule step for step,
which with the engines' deterministic reductions gives bit-identical
trajectories.
"""

from __future__ import annotations

import copy
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.runtime.chare import Chare

__all__ = [
    "SKIP_ATTRS",
    "snapshot_chare",
    "restore_chare",
    "state_bytes",
    "ChareCheckpoint",
    "Checkpoint",
    "DoubleCheckpointStore",
    "UnrecoverableFailure",
    "RecoveryEvent",
    "RecoveryStats",
    "RunCheckpoint",
    "save_run_checkpoint",
    "load_run_checkpoint",
    "restore_run_checkpoint",
]

#: Attributes owned by the runtime graph, not the chare's logical state:
#: re-established by the driver when the graph is rebuilt after a failure
#: (object ids and wiring change when survivors take over lost work).
SKIP_ATTRS = frozenset(
    {
        "runtime",
        "object_id",
        "proxy_ids",
        "local_compute_ids",
        "deposit_ids",
        "home_id",
        "expected_contributions",
        "expected_deposits",
    }
)


def snapshot_chare(chare: Chare) -> dict:
    """Serializable copy of a chare's logical state (PUP analog)."""
    return {
        k: copy.deepcopy(v) for k, v in vars(chare).items() if k not in SKIP_ATTRS
    }


def restore_chare(chare: Chare, state: dict) -> None:
    """Write a snapshot back into a (freshly built) chare."""
    for k, v in state.items():
        setattr(chare, k, copy.deepcopy(v))


def state_bytes(state: dict) -> float:
    """Modeled wire size of a snapshot (what the buddy copy costs to send)."""
    total = 128.0  # envelope: ids, round counters, headers
    for v in state.values():
        if isinstance(v, np.ndarray):
            total += float(v.nbytes)
        elif isinstance(v, (int, float, bool)):
            total += 8.0
        elif isinstance(v, (list, tuple)):
            total += 8.0 * len(v)
        elif isinstance(v, dict):
            total += 16.0 * len(v)
    return total


@dataclass
class ChareCheckpoint:
    """One chare's checkpointed state and where its two copies live."""

    key: tuple  # stable identity, e.g. ("patch", 3) or ("compute", 17)
    state: dict
    owner: int  # processor holding the primary copy
    buddy: int  # processor holding the second copy

    @property
    def size_bytes(self) -> float:
        """Modeled size of the buddy copy on the wire."""
        return state_bytes(self.state)

    def survives(self, dead: set[int]) -> bool:
        """True if at least one copy is on a live processor."""
        return self.owner not in dead or self.buddy not in dead


@dataclass
class Checkpoint:
    """A consistent global cut: all chares quiescent at round ``round``."""

    round: int
    time: float
    chares: dict[tuple, ChareCheckpoint]

    def survives(self, dead: set[int]) -> bool:
        """True if every chare has a live copy."""
        return all(c.survives(dead) for c in self.chares.values())

    def bytes_sent_from(self, proc: int) -> float:
        """Checkpoint traffic originating on ``proc`` (buddy copies)."""
        return sum(
            c.size_bytes
            for c in self.chares.values()
            if c.owner == proc and c.buddy != proc
        )


class DoubleCheckpointStore:
    """Holds the two most recent global checkpoints.

    Keeping the previous checkpoint until the next one fully commits is the
    "double" in double checkpointing: a failure during checkpointing can
    always fall back to the older complete cut.  In this simulation commits
    are atomic at quiescence, so ``latest`` is always complete — but the
    previous cut is retained for the same reason real systems retain it.
    """

    def __init__(self, n_procs: int) -> None:
        self.n_procs = n_procs
        self.latest: Checkpoint | None = None
        self.previous: Checkpoint | None = None

    @staticmethod
    def buddy_of(owner: int, live: list[int]) -> int:
        """The next live processor after ``owner`` (cyclic)."""
        if len(live) < 2:
            return owner  # degenerate: no second copy possible
        order = sorted(live)
        if owner not in order:
            return order[0]
        return order[(order.index(owner) + 1) % len(order)]

    def commit(self, checkpoint: Checkpoint) -> None:
        """Atomically install a new complete checkpoint."""
        self.previous = self.latest
        self.latest = checkpoint

    def recovery_checkpoint(self, dead: set[int]) -> Checkpoint:
        """The newest checkpoint that fully survives ``dead``.

        Raises :class:`UnrecoverableFailure` when neither retained cut has a
        live copy of every chare (both buddies of some chare died).
        """
        for cp in (self.latest, self.previous):
            if cp is not None and cp.survives(dead):
                return cp
        raise UnrecoverableFailure(
            f"no retained checkpoint survives failures on processors {sorted(dead)}"
        )


class UnrecoverableFailure(RuntimeError):
    """Both copies of some chare's checkpoint were lost."""


@dataclass
class RecoveryEvent:
    """One detected-and-recovered failure episode."""

    procs: tuple[int, ...]  # processors that died in this episode
    failure_time: float  # simulated time of the (first) death
    detected_time: float  # failure_time + detection timeout
    checkpoint_round: int  # round restored from
    rounds_done_at_failure: int  # fully completed rounds when it died
    restore_cost_s: float  # modeled state-retrieval cost
    restart_time: float  # when replay resumed

    @property
    def steps_replayed(self) -> int:
        """Completed rounds whose work is redone after restore."""
        return max(0, self.rounds_done_at_failure - self.checkpoint_round)

    @property
    def detection_latency_s(self) -> float:
        return self.detected_time - self.failure_time

    @property
    def recovery_time_s(self) -> float:
        """Wall-clock from death to replay start (detection + restore)."""
        return self.restart_time - self.failure_time


@dataclass
class RecoveryStats:
    """Aggregate fault-tolerance accounting for a phase (or whole run)."""

    events: list[RecoveryEvent] = field(default_factory=list)
    checkpoints_taken: int = 0
    checkpoint_time_s: float = 0.0
    messages_dropped: int = 0
    messages_delayed: int = 0
    messages_duplicated: int = 0
    messages_lost_to_dead: int = 0

    @property
    def n_failures(self) -> int:
        return sum(len(e.procs) for e in self.events)

    @property
    def steps_replayed(self) -> int:
        return sum(e.steps_replayed for e in self.events)

    @property
    def detection_latency_s(self) -> float:
        return sum(e.detection_latency_s for e in self.events)

    @property
    def recovery_time_s(self) -> float:
        return sum(e.recovery_time_s for e in self.events)

    @property
    def dead_procs(self) -> tuple[int, ...]:
        return tuple(sorted({p for e in self.events for p in e.procs}))

    def merge(self, other: "RecoveryStats") -> "RecoveryStats":
        """Combine accounting across phases."""
        return RecoveryStats(
            events=self.events + other.events,
            checkpoints_taken=self.checkpoints_taken + other.checkpoints_taken,
            checkpoint_time_s=self.checkpoint_time_s + other.checkpoint_time_s,
            messages_dropped=self.messages_dropped + other.messages_dropped,
            messages_delayed=self.messages_delayed + other.messages_delayed,
            messages_duplicated=self.messages_duplicated + other.messages_duplicated,
            messages_lost_to_dead=self.messages_lost_to_dead
            + other.messages_lost_to_dead,
        )


# --------------------------------------------------------------------------- #
# disk run checkpoints for the real MD engines
# --------------------------------------------------------------------------- #
@dataclass
class RunCheckpoint:
    """Dynamical state of an MD engine run at a completed step.

    Captures everything the integrator needs to continue: positions,
    velocities, the post-step forces (so the resumed run skips the initial
    force evaluation, exactly like the continuing run does), the box, the
    step counter, and the parallel pool's evaluation counter ``nb_seq``
    (which pins step-indexed LB-remap points, themselves rebuild points,
    to the same absolute steps in the resumed run).  Under multiple time
    stepping the forces already hold the last reciprocal impulse, so a
    resume mid-cycle continues the trajectory; ``recip_energy`` keeps the
    energy reports of the steps before the next reciprocal evaluation.
    """

    step: int
    positions: np.ndarray
    velocities: np.ndarray
    forces: np.ndarray | None
    box: np.ndarray
    nb_seq: int = 0
    recip_energy: float = 0.0

    def to_npz_bytes(self) -> bytes:
        arrays = {
            "step": np.asarray(self.step, dtype=np.int64),
            "positions": np.asarray(self.positions, dtype=np.float64),
            "velocities": np.asarray(self.velocities, dtype=np.float64),
            "box": np.asarray(self.box, dtype=np.float64),
            "nb_seq": np.asarray(self.nb_seq, dtype=np.int64),
            "recip_energy": np.asarray(self.recip_energy, dtype=np.float64),
        }
        if self.forces is not None:
            arrays["forces"] = np.asarray(self.forces, dtype=np.float64)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    @classmethod
    def from_npz_bytes(cls, data: bytes) -> "RunCheckpoint":
        with np.load(io.BytesIO(data)) as npz:
            return cls(
                step=int(npz["step"]),
                positions=npz["positions"].copy(),
                velocities=npz["velocities"].copy(),
                forces=npz["forces"].copy() if "forces" in npz else None,
                box=npz["box"].copy(),
                nb_seq=int(npz["nb_seq"]) if "nb_seq" in npz else 0,
                recip_energy=(
                    float(npz["recip_energy"]) if "recip_energy" in npz else 0.0
                ),
            )


def save_run_checkpoint(path, engine) -> RunCheckpoint:
    """Atomically write ``engine``'s current state as a run checkpoint.

    The engine is any :class:`repro.md.engine.SequentialEngine`.  The write is atomic (same-directory temp file,
    fsync, rename), so a crash mid-checkpoint leaves the previous complete
    checkpoint in place — the disk analog of keeping the older cut in
    double checkpointing.
    """
    from repro.util import atomic_write_bytes

    cp = RunCheckpoint(
        step=int(engine.current_step),
        positions=np.asarray(engine.system.positions, dtype=np.float64).copy(),
        velocities=np.asarray(engine.system.velocities, dtype=np.float64).copy(),
        forces=(
            np.asarray(engine._forces, dtype=np.float64).copy()
            if engine._forces is not None
            else None
        ),
        box=np.asarray(engine.system.box, dtype=np.float64).copy(),
        nb_seq=engine._nb.seq,
        recip_energy=engine._nb.last_recip_energy,
    )
    atomic_write_bytes(path, cp.to_npz_bytes())
    return cp


def load_run_checkpoint(path) -> RunCheckpoint:
    """Read a checkpoint written by :func:`save_run_checkpoint`.

    Raises ``ValueError`` (naming the path) on a corrupt or truncated file.
    """
    path = Path(path)
    try:
        return RunCheckpoint.from_npz_bytes(path.read_bytes())
    except (OSError, ValueError, KeyError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise ValueError(f"corrupt run checkpoint {path}: {exc}") from exc


def restore_run_checkpoint(engine, cp: RunCheckpoint) -> None:
    """Load ``cp`` into ``engine`` so stepping continues the original run.

    Restores the dynamical state in place, resets the cached force-field
    results, and pins a pair-list rebuild at the next evaluation — the same
    rebuild the checkpoint-writing run performed right after saving — so
    the resumed trajectory is bit-identical to the original's continuation
    (see the module docstring for the argument).
    """
    system = engine.system
    pos = np.asarray(cp.positions, dtype=np.float64)
    vel = np.asarray(cp.velocities, dtype=np.float64)
    if system.positions.shape != pos.shape:
        raise ValueError(
            f"checkpoint holds {pos.shape[0]} atoms, "
            f"engine system has {system.positions.shape[0]}"
        )
    system.positions[...] = pos
    system.velocities[...] = vel
    system.box = np.asarray(cp.box, dtype=np.float64).copy()
    engine._step = int(cp.step)
    engine._forces = (
        np.asarray(cp.forces, dtype=np.float64).copy()
        if cp.forces is not None
        else None
    )
    engine._last_nonbonded = None
    engine._last_bonded = None
    # align the pool's evaluation counter so step-indexed events
    # (LB remaps force rebuilds) land on the same absolute steps
    engine._nb.seq = cp.nb_seq
    engine._nb.last_recip_energy = cp.recip_energy
    engine.pairlist.invalidate()
