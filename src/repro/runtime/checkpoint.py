"""Disk run checkpoints for the real MD engines.

A :class:`RunCheckpoint` is an atomic ``.npz`` snapshot of the dynamical
state (positions, velocities, forces, box, step counter) written through
:func:`repro.util.atomic_write_bytes`, so a run killed mid-write never
corrupts its restart file.  The bit-identical-resume contract: writing a
checkpoint pins a pair-list rebuild at the *next* evaluation (the engine
invalidates its ``pairlist``), and :func:`restore_run_checkpoint` pins the
same rebuild in the resumed engine — so the original run past the
checkpoint and the resumed run share the rebuild schedule step for step,
which with the engines' deterministic reductions gives bit-identical
trajectories.

The module shares nothing with the simulated runtime around it; it stays
at this path because the perf harness (``benchmarks/perf/spans.py``)
binds its spans to these functions by module path.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "RunCheckpoint",
    "save_run_checkpoint",
    "load_run_checkpoint",
    "restore_run_checkpoint",
]


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
    checkpoint in place.
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
