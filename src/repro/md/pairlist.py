"""Verlet list lifetime: a skin margin, a reference snapshot, a staleness test.

NAMD (and every production MD code) avoids re-enumerating pairs each step:
pairs within ``cutoff + skin`` are listed once and reused until an atom has
moved more than ``skin/2``, which bounds the error exactly (two atoms can
close the gap at most by twice the max displacement).

:class:`VerletPairList` is that reuse logic and nothing else.  What is
listed is its owner's business: the engines' force-task front end
(:class:`repro.md.parallel.ParallelNonbonded`) hands in
:meth:`repro.md.tasks.ForceTaskProvider.layout`, which bins the reference
positions into the task-ordered reduction layout, while the per-task pair
lists themselves live with whoever evaluates the tasks — pool workers or
the in-process executor — and are rebuilt from the same snapshot.  Raw cell candidates (:func:`repro.md.cells.candidate_pairs`)
never outlive a rebuild.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# not used here: the perf harness (benchmarks/perf/spans.py) binds its
# ``cells.enumerate`` span to this module attribute by name
from repro.md.cells import candidate_pairs  # noqa: F401
from repro.util.pbc import minimum_image

__all__ = ["VerletPairList"]


class VerletPairList:
    """One list's lifetime for one system.

    Parameters
    ----------
    cutoff:
        Interaction cutoff (Å).
    skin:
        Extra margin (Å); larger skin = fewer rebuilds but more listed
        pairs per evaluation.  0 rebuilds whenever anything moved.
    build:
        ``build(positions, box)`` makes the list; called by :meth:`pairs`
        on a stale list only, with the positions that become the new
        reference snapshot.
    """

    def __init__(self, cutoff: float, skin: float, build: Callable) -> None:
        if cutoff <= 0 or skin < 0:
            raise ValueError("cutoff must be positive and skin non-negative")
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self._build = build
        self._pairs = None
        self.ref_positions: np.ndarray | None = None
        self.ref_box: np.ndarray | None = None
        self.n_builds = 0
        self.n_reuses = 0

    # ------------------------------------------------------------------ #
    def needs_rebuild(self, positions: np.ndarray, box: np.ndarray) -> bool:
        """True when the box changed or any atom moved more than ``skin/2``.

        The box comparison matters for builder-resized systems: a list
        built in the old box is geometrically meaningless in the new one,
        even if no atom "moved" in fractional terms.
        """
        if self.ref_positions is None:
            return True
        if not np.array_equal(np.asarray(box, dtype=np.float64), self.ref_box):
            return True
        if len(positions) != len(self.ref_positions):
            return True
        delta = minimum_image(positions - self.ref_positions, box)
        max_disp2 = float(np.einsum("ij,ij->i", delta, delta).max())
        return max_disp2 > (0.5 * self.skin) ** 2

    def pairs(self, positions: np.ndarray, box: np.ndarray):
        """The list valid at ``positions``: rebuilt when stale (and the
        snapshot re-anchored there), otherwise the one built last."""
        if self.needs_rebuild(positions, box):
            self._pairs = self._build(positions, box)
            self.ref_positions = positions.copy()
            self.ref_box = np.asarray(box, dtype=np.float64).copy()
            self.n_builds += 1
        else:
            self.n_reuses += 1
        return self._pairs

    def invalidate(self) -> None:
        """Make the next :meth:`pairs` rebuild (checkpoints pin rebuilds
        with this; so does a changed task→worker map)."""
        self._pairs = None
        self.ref_positions = None
        self.ref_box = None

    @property
    def reuse_fraction(self) -> float:
        """Fraction of queries served without a rebuild."""
        total = self.n_builds + self.n_reuses
        return self.n_reuses / total if total else 0.0
