"""The MD engine.

:class:`SequentialEngine` evaluates the full force field each step and
advances with velocity Verlet.  It is the single-processor baseline the
paper's speedups are measured against ("the impressive speedups were not
attained by using a 'bad sequential algorithm'", §4.3) — and it is that
literally: every force term is the same task family the worker threads of
:class:`repro.md.parallel.ParallelEngine` run (cell tasks, bonded groups
and, under Ewald, the PME task), evaluated on the calling thread by the
same per-step loop, so trajectories are bit-identical at any worker count.

The independent ground truth is not an engine but the reference functions
:func:`~repro.md.nonbonded.compute_nonbonded`,
:func:`~repro.md.bonded.compute_bonded` and
:func:`~repro.md.ewald.compute_ewald`; tests hold every engine to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# compute_bonded and compute_nonbonded are not called here: the perf harness
# (benchmarks/perf/spans.py) binds spans to these module attributes by name.
# ROADMAP item 2(d) rebinds the spans and deletes both with the other
# kept-for-binding names.
from repro.md.bonded import BondedEnergies, compute_bonded  # noqa: F401
from repro.md.integrator import VelocityVerlet
from repro.md.nonbonded import NonbondedOptions, compute_nonbonded  # noqa: F401
from repro.md.system import MolecularSystem

__all__ = ["POOL_KEYWORDS", "SequentialEngine", "StepReport", "make_engine"]

#: The engine settings that need workers (their supervision, balancing,
#: and the task partition handed to them): ``make_engine`` refuses them at
#: ``workers == 1``, and the job spec and the CLI take their pool-only
#: subsets from this set.  ``fault_plan`` and ``recovery`` also select
#: worker processes over threads.
POOL_KEYWORDS = frozenset(
    {
        "fault_plan", "timeout", "recovery", "rebalance_every",
        "lb_strategy", "grainsize_ms",
    }
)


@dataclass
class StepReport:
    """Energies after one step (all kcal/mol)."""

    step: int
    kinetic: float
    lj: float
    elec: float
    bonded: BondedEnergies
    n_pairs: int

    @property
    def potential(self) -> float:
        """Total potential energy (kcal/mol)."""
        return self.lj + self.elec + self.bonded.total

    @property
    def total(self) -> float:
        """Total energy: kinetic + potential (kcal/mol)."""
        return self.kinetic + self.potential


class SequentialEngine:
    """Full-force-field MD with the force tasks evaluated in-process.

    Parameters
    ----------
    system:
        The molecular system; advanced in place.
    options:
        Cutoff scheme; defaults to the paper's 12 Å cutoff.
    integrator:
        Any object with the :class:`~repro.md.integrator.VelocityVerlet`
        interface; defaults to velocity Verlet with ``dt = 1`` fs.
    """

    def __init__(
        self,
        system: MolecularSystem,
        options: NonbondedOptions | None = None,
        integrator: VelocityVerlet | None = None,
        skin: float = 1.5,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        backend=None,
        ewald=None,
    ) -> None:
        """``skin`` is the Verlet margin of the pair lists (see
        :class:`repro.md.pairlist.VerletPairList`, exposed as
        :attr:`pairlist`); 0 rebuilds them at every evaluation.

        ``checkpoint_every=N`` (with ``checkpoint_path``) writes an atomic
        run checkpoint every N completed steps; a run restarted with
        :func:`repro.runtime.checkpoint.restore_run_checkpoint` continues
        the original trajectory bit-identically (each checkpoint pins a
        pair-list rebuild at the following evaluation, in the writing run
        and the resumed run alike — see
        :func:`~repro.runtime.checkpoint.save_run_checkpoint`).

        ``backend`` selects the kernel backend (``"numpy"``/``"c"``/
        ``"auto"``/instance); ``None`` uses the session default (see
        :mod:`repro.backend`).  Resolved once here so every evaluation of
        this engine runs the same kernels.

        ``ewald`` (an :class:`repro.md.ewald.EwaldOptions`) *replaces* the
        cutoff point-charge electrostatics with the full periodic Ewald sum:
        the pair kernel then evaluates the real-space ``erfc`` term in
        place of the shifted point-charge one (for 1-4 pairs too, at full
        strength — the scaled 1-4 electrostatic term is dropped), and the
        reported ``elec`` energy is the total over all Ewald components.
        With ``ewald.recip_every = n > 1`` the reciprocal part is an
        impulse every ``n`` steps, and the steps between report the
        reciprocal energy of the last step that evaluated it."""
        self._setup(
            system, options, integrator, checkpoint_every, checkpoint_path,
            backend, ewald, n_workers=1, skin=skin,
        )

    def _setup(
        self, system, options, integrator, checkpoint_every, checkpoint_path,
        backend, ewald, **nonbonded,
    ) -> None:
        """Shared constructor body; ``nonbonded`` goes to the force-task
        front end (:class:`repro.md.parallel.ParallelNonbonded`)."""
        from repro.backend import get_backend
        from repro.md.parallel import ParallelNonbonded

        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        self.system = system
        self.options = options or NonbondedOptions()
        self.integrator = integrator or VelocityVerlet(dt=1.0)
        self.backend = get_backend(backend)
        self.ewald = ewald
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_path = checkpoint_path
        self.n_checkpoints = 0
        self._step = 0
        self._forces: np.ndarray | None = None
        self._last_nonbonded = None
        self._last_bonded: BondedEnergies | None = None
        self._nb = ParallelNonbonded(
            system, self.options, backend=self.backend, ewald=ewald, **nonbonded
        )
        #: the list-lifetime object (skin, builds, reuses) of the force tasks
        self.pairlist = self._nb.pairlist

    # ------------------------------------------------------------------ #
    def compute_forces(self, step: int | None = None) -> np.ndarray:
        """Evaluate the full force field at the current positions, those of
        step ``step`` (the current step by default).  Under multiple time
        stepping the step index decides whether the reciprocal task runs
        (see :class:`repro.md.ewald.EwaldOptions`)."""
        self.system.wrap(self.backend)
        self._nb.dispatch(self._step if step is None else step)
        # bonded terms (and the k-space sum, with Ewald) arrive inside the
        # reduced task result; collect() separates their energies
        nb = self._nb.collect()
        self._last_nonbonded = nb
        self._last_bonded = self._nb.last_bonded
        return nb.forces

    def report(self) -> StepReport:
        """Energy report for the most recent force evaluation."""
        if self._last_nonbonded is None or self._last_bonded is None:
            self.compute_forces()
        nb = self._last_nonbonded
        return StepReport(
            step=self._step,
            kinetic=self.system.kinetic_energy(),
            lj=nb.energy_lj,
            elec=nb.energy_elec,
            bonded=self._last_bonded,
            n_pairs=nb.n_pairs,
        )

    def step(self) -> StepReport:
        """Advance one timestep; returns the post-step energy report."""
        if self._forces is None:
            self._forces = self.compute_forces()
        sys = self.system

        def force_fn(positions: np.ndarray) -> np.ndarray:
            # Integrators may hand back a fresh array instead of mutating
            # the one we passed in; adopt it before evaluating, so the
            # forces actually correspond to the requested positions.
            if positions is not sys.positions:
                sys.positions[...] = positions
            return self.compute_forces(self._step + 1)

        self._forces = self.integrator.step(
            sys.positions, sys.velocities, self._forces, sys.masses, force_fn
        )
        self._step += 1
        self._maybe_checkpoint()
        return self.report()

    # ------------------------------------------------------------------ #
    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_every <= 0:
            return
        if self._step % self.checkpoint_every != 0:
            return
        from repro.runtime.checkpoint import save_run_checkpoint

        # pin a list rebuild at the evaluation after the checkpoint: the
        # writing run and any run resumed from it both pass through one,
        # so their rebuild schedules — and trajectories — stay bit-identical
        self.pairlist.invalidate()
        save_run_checkpoint(self.checkpoint_path, self)
        self.n_checkpoints += 1

    def run(self, n_steps: int) -> list[StepReport]:
        """Advance ``n_steps`` and return the per-step reports."""
        return [self.step() for _ in range(n_steps)]

    @property
    def current_step(self) -> int:
        """Number of completed timesteps."""
        return self._step

    # -- the force-task front end's accounting ------------------------- #
    @property
    def parallel(self) -> bool:
        """True while the force tasks run on live workers: threads, or
        worker processes under supervision."""
        return self._nb.active

    @property
    def workers(self) -> int:
        """Live worker count, threads or processes (1 = the tasks run on
        the calling thread)."""
        return self._nb.n_live

    @property
    def resilience(self):
        """Recovery accounting: detections, respawns, reassignments, mode."""
        return self._nb.resilience

    @property
    def workdb(self):
        """The engine's measurement database (:class:`repro.instrument.WorkDB`)."""
        return self._nb.workdb

    @property
    def remap_steps(self) -> list[int]:
        """Evaluation indices at which a changed task→worker map took effect."""
        return self._nb.remap_steps

    @property
    def rebalance_log(self) -> list[dict]:
        """One record per LB decision: strategy, moves, predicted loads."""
        return self._nb.rebalance_log

    def driver_report(self) -> dict:
        """See :meth:`repro.md.parallel.ParallelNonbonded.driver_report`."""
        return self._nb.driver_report()

    def kspace_cache_stats(self) -> dict:
        """This engine's PME influence-table builds and hits; see
        :meth:`repro.md.parallel.ParallelNonbonded.kspace_cache_stats`."""
        return self._nb.kspace_cache_stats()

    def close(self) -> None:
        """Stop the workers, if any (idempotent).  The engine stays
        usable: later steps run the same tasks in-process."""
        self._nb.close()

    def __enter__(self) -> "SequentialEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_engine(
    system: MolecularSystem,
    options: NonbondedOptions | None = None,
    integrator: VelocityVerlet | None = None,
    workers: int = 1,
    distribute=None,
    **kwargs,
) -> SequentialEngine:
    """Engine factory: in-process for ``workers == 1``, on worker threads
    otherwise (worker processes under a ``fault_plan`` or ``recovery``).

    ``workers == 0`` requests one worker per CPU (respecting cgroup/affinity
    limits).  Every keyword is forwarded to the engine's constructor (see
    :class:`repro.md.parallel.ParallelEngine` for the full set).  Keywords
    that configure live workers raise ``TypeError`` when
    ``workers == 1`` instead of being silently dropped, so a config typed
    for the pool cannot quietly change meaning on a one-worker run.
    Either engine is a context manager, so callers need no engine-specific
    cleanup logic.
    """
    # ``distribute`` has no effect (bonded groups and the PME task are
    # always force tasks); accepted because benchmarks/perf/workloads.py
    # still passes it — ROADMAP item 2(d) deletes it with the harness's use
    if workers == 1:
        pool_only = sorted(POOL_KEYWORDS.intersection(kwargs))
        if pool_only:
            raise TypeError(
                "make_engine(workers=1) got keyword argument(s) that need "
                f"workers: {', '.join(pool_only)}"
            )
        return SequentialEngine(system, options, integrator, **kwargs)
    from repro.md.parallel import ParallelEngine

    return ParallelEngine(system, options, integrator, workers=workers, **kwargs)
