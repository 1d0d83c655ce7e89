"""Execution-cost model calibrated to the paper's published numbers.

The decisive property for reproducing the paper's scaling curves is the
*relative* cost of every schedulable piece of work: non-bonded pair blocks,
bonded term groups, per-patch integration, and messaging (the machine model
covers the last).  We anchor absolute scale to the paper's own
single-processor audit (Table 1, "Ideal" row, ApoA-I on ASCI-Red):

=============  ============  =============================
Component      Time (s)      Our unit cost derivation
=============  ============  =============================
Non-bonded     52.44         / exact in-cutoff pair count (+ candidate checks)
Bonds          3.16          / weighted bonded-term count
Integration    1.44          / atom count
=============  ============  =============================

All costs are in *reference seconds* (one ASCI-Red CPU); the scheduler
multiplies by each machine's ``cpu_factor``.

Every in-cutoff count here is a :func:`block_pair_counts` count — the count
mode of ``block_pairs``, the kernel that builds the engines' pair lists.
A system's :class:`WorkCounts` are the sums over its compute descriptors
(:attr:`repro.core.problem.DecomposedProblem.counts`): every in-cutoff pair
lies in exactly one self or neighbour patch block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import get_backend

__all__ = [
    "WorkCounts",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "block_pair_counts",
    "estimate_block_costs",
    "PAPER_APOA1_SECONDS",
]

#: Table 1 "Ideal" single-processor decomposition for ApoA-I (seconds/step).
PAPER_APOA1_SECONDS = {"nonbonded": 52.44, "bonded": 3.16, "integration": 1.44}

#: Relative cost weights of the four bonded-term kinds (a dihedral costs
#: roughly four bonds; consistent with kernel arithmetic counts).
_BOND_WEIGHTS = {"bond": 1.0, "angle": 2.0, "dihedral": 4.0, "improper": 3.5}

#: Ratio of the cost of one in-cutoff pair to one out-of-cutoff candidate
#: check (distance computation + compare only).
_CANDIDATE_RATIO = 8.0


@dataclass(frozen=True)
class WorkCounts:
    """Exact per-step work for one system under one decomposition."""

    atoms: int
    nonbonded_pairs: int
    candidate_pairs: int
    bonds: int
    angles: int
    dihedrals: int
    impropers: int

    @property
    def weighted_bonded(self) -> float:
        """Bonded term count weighted by per-kind relative cost."""
        return (
            _BOND_WEIGHTS["bond"] * self.bonds
            + _BOND_WEIGHTS["angle"] * self.angles
            + _BOND_WEIGHTS["dihedral"] * self.dihedrals
            + _BOND_WEIGHTS["improper"] * self.impropers
        )


@dataclass(frozen=True)
class CostModel:
    """Unit costs in reference-machine seconds."""

    t_pair: float
    t_candidate: float
    t_bonded_unit: float  # per weighted bonded-term unit
    t_atom_integration: float

    @classmethod
    def calibrated(
        cls,
        counts: WorkCounts,
        nonbonded_s: float = PAPER_APOA1_SECONDS["nonbonded"],
        bonded_s: float = PAPER_APOA1_SECONDS["bonded"],
        integration_s: float = PAPER_APOA1_SECONDS["integration"],
    ) -> "CostModel":
        """Fit unit costs so one full step costs the published seconds."""
        if counts.nonbonded_pairs <= 0:
            raise ValueError("cannot calibrate on a system with no pairs")
        denom = counts.nonbonded_pairs + counts.candidate_pairs / _CANDIDATE_RATIO
        t_pair = nonbonded_s / denom
        weighted = max(counts.weighted_bonded, 1.0)
        return cls(
            t_pair=t_pair,
            t_candidate=t_pair / _CANDIDATE_RATIO,
            t_bonded_unit=bonded_s / weighted,
            t_atom_integration=integration_s / max(counts.atoms, 1),
        )

    # ------------------------------------------------------------------ #
    def nonbonded_cost(self, n_pairs: float, n_candidates: float) -> float:
        """Cost of one non-bonded compute execution."""
        return self.t_pair * n_pairs + self.t_candidate * n_candidates

    def bonded_cost(
        self, bonds: float, angles: float, dihedrals: float, impropers: float
    ) -> float:
        """Cost of one bonded compute execution."""
        weighted = (
            _BOND_WEIGHTS["bond"] * bonds
            + _BOND_WEIGHTS["angle"] * angles
            + _BOND_WEIGHTS["dihedral"] * dihedrals
            + _BOND_WEIGHTS["improper"] * impropers
        )
        return self.t_bonded_unit * weighted

    def integration_cost(self, n_atoms: float) -> float:
        """Cost of one patch integration (per step)."""
        return self.t_atom_integration * n_atoms

    def sequential_step_cost(self, counts: WorkCounts) -> float:
        """Modeled single-processor step time (reference seconds)."""
        return (
            self.nonbonded_cost(counts.nonbonded_pairs, counts.candidate_pairs)
            + self.bonded_cost(
                counts.bonds, counts.angles, counts.dihedrals, counts.impropers
            )
            + self.integration_cost(counts.atoms)
        )


#: Cost model calibrated on the ApoA-I benchmark against the paper's Table 1
#: single-processor decomposition (see ``CostModel.calibrated`` and the
#: regression test ``tests/test_costmodel/test_calibration.py``).  Frozen
#: here so every simulation shares one set of physical unit costs without
#: rebuilding the 92,224-atom system.
DEFAULT_COST_MODEL = CostModel(
    t_pair=5.642e-07,
    t_candidate=7.053e-08,
    t_bonded_unit=1.579e-05,
    t_atom_integration=1.561e-05,
)


def block_pair_counts(
    positions: np.ndarray,
    box: np.ndarray,
    cutoff: float,
    atoms_a: np.ndarray,
    atoms_b: np.ndarray | None = None,
    backend=None,
) -> tuple[int, int]:
    """``(in_cutoff_pairs, candidate_pairs)`` of one compute block.

    The single pair-counting path every cost estimate routes through:
    ``atoms_b=None`` means the self block of ``atoms_a`` (``m(m-1)/2``
    candidates), otherwise the ``a``×``b`` cross block.  Keeping this in one
    place is what guarantees :func:`estimate_block_costs` (the parallel
    engine's WorkDB priors) and the simulator's compute descriptors
    (:func:`repro.core.computes.build_nonbonded_computes`, whose sums are
    :attr:`repro.core.problem.DecomposedProblem.counts`) can never disagree
    on what a block costs.
    """
    if atoms_b is None:
        m = len(atoms_a)
        n_cand = m * (m - 1) // 2
    else:
        n_cand = len(atoms_a) * len(atoms_b)
    # the count mode of the kernel that builds the engines' pair lists, on
    # the very block a cell task lists: prior and lists cannot disagree
    n_pairs = get_backend(backend).block_pairs(
        positions, box, atoms_a, atoms_b, 0, 1, cutoff
    )
    return int(n_pairs), int(n_cand)


def estimate_block_costs(
    positions: np.ndarray,
    box: np.ndarray,
    cutoff: float,
    buckets: list[np.ndarray],
    tasks,
    model: CostModel | None = None,
    backend=None,
) -> np.ndarray:
    """Measured relative cost of each self/pair compute block.

    ``tasks`` is a sequence of ``(a, b)`` bucket indices (``a == b`` marks a
    self block); ``buckets`` maps bucket index to atom indices.  Each task's
    cost combines its exact in-cutoff pair count — the measurement-based
    seeding of the paper's load balancing (§2.2) — with its candidate-check
    count at the model's pair/candidate cost ratio.  With no ``model`` the
    unit is one in-cutoff pair.

    The real-parallel engine (:mod:`repro.md.parallel`) uses these estimates
    for its static block assignment: contiguous runs of tasks with near-equal
    summed cost, one per worker.
    """
    if model is not None:
        t_pair, t_cand = model.t_pair, model.t_candidate
    else:
        t_pair, t_cand = 1.0, 1.0 / _CANDIDATE_RATIO
    costs = np.zeros(len(tasks), dtype=np.float64)
    for t, (a, b) in enumerate(tasks):
        n_pairs, n_cand = block_pair_counts(
            positions, box, cutoff, buckets[a], None if a == b else buckets[b],
            backend,
        )
        costs[t] = t_pair * n_pairs + t_cand * n_cand
    return costs
