"""Cost model: calibration algebra and work counting."""

import numpy as np
import pytest

from repro.costmodel.grainsize import GrainsizeConfig
from repro.core.problem import DecomposedProblem
from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.costmodel.model import PAPER_APOA1_SECONDS, CostModel, WorkCounts
from repro.util.pbc import minimum_image


def make_counts(**overrides):
    base = dict(
        atoms=1000,
        nonbonded_pairs=100_000,
        candidate_pairs=1_000_000,
        bonds=800,
        angles=500,
        dihedrals=200,
        impropers=20,
    )
    base.update(overrides)
    return WorkCounts(**base)


def brute_pairs(pos, box, cutoff, a=None, b=None):
    """Pairs within ``cutoff`` (minimum image), one dense row at a time:
    unordered pairs of the atoms ``a`` (all atoms by default), or the
    ``a``×``b`` cross pairs."""
    a = np.arange(len(pos)) if a is None else a
    n = 0
    for k, i in enumerate(a):
        partners = a[k + 1:] if b is None else b
        delta = minimum_image(pos[partners] - pos[i], box)
        n += int(np.count_nonzero(np.einsum("ij,ij->i", delta, delta) < cutoff**2))
    return n


def patch_candidates(d):
    """Candidate pairs of every self and neighbour patch block: arithmetic
    over the patch sizes."""
    sizes = [len(x) for x in d.patch_atoms]
    return sum(m * (m - 1) // 2 for m in sizes) + sum(
        sizes[pa] * sizes[pb] for pa, pb in d.neighbor_pairs()
    )


class TestCalibration:
    def test_calibrated_reproduces_target_times(self):
        counts = make_counts()
        cm = CostModel.calibrated(counts, nonbonded_s=10.0, bonded_s=2.0,
                                  integration_s=1.0)
        nb = cm.nonbonded_cost(counts.nonbonded_pairs, counts.candidate_pairs)
        bd = cm.bonded_cost(counts.bonds, counts.angles, counts.dihedrals,
                            counts.impropers)
        integ = cm.integration_cost(counts.atoms)
        assert nb == pytest.approx(10.0)
        assert bd == pytest.approx(2.0)
        assert integ == pytest.approx(1.0)
        assert cm.sequential_step_cost(counts) == pytest.approx(13.0)

    def test_calibration_defaults_are_paper_numbers(self):
        counts = make_counts()
        cm = CostModel.calibrated(counts)
        assert cm.sequential_step_cost(counts) == pytest.approx(
            sum(PAPER_APOA1_SECONDS.values())
        )

    def test_rejects_zero_pairs(self):
        with pytest.raises(ValueError):
            CostModel.calibrated(make_counts(nonbonded_pairs=0))

    def test_costs_scale_linearly(self):
        cm = CostModel.calibrated(make_counts())
        assert cm.nonbonded_cost(200, 0) == pytest.approx(2 * cm.nonbonded_cost(100, 0))
        assert cm.integration_cost(50) == pytest.approx(50 * cm.t_atom_integration)

    def test_weighted_bonded(self):
        c = make_counts(bonds=10, angles=10, dihedrals=10, impropers=10)
        assert c.weighted_bonded == pytest.approx(10 * (1 + 2 + 4 + 3.5))


class TestWorkCounts:
    """``DecomposedProblem.build(...).counts`` — the sums over the
    simulator's compute descriptors — is the one ``WorkCounts`` producer."""

    def test_counts_on_assembly(self, assembly):
        w = DecomposedProblem.build(assembly, DEFAULT_COST_MODEL).counts
        assert w.atoms == assembly.n_atoms
        assert w.bonds == assembly.topology.n_bonds
        assert w.nonbonded_pairs > 0
        assert w.candidate_pairs >= w.nonbonded_pairs

    @pytest.mark.parametrize(
        "grainsize",
        [
            GrainsizeConfig(split_self=False, split_pairs=False),
            GrainsizeConfig(),
            GrainsizeConfig(target_load_s=2e-5),
        ],
        ids=["unsplit", "default", "splitting"],
    )
    @pytest.mark.parametrize("name", ["water64", "assembly"])
    def test_counts_match_brute_force(self, request, name, grainsize):
        """Every in-cutoff pair lies in exactly one self or neighbour patch
        block, and a split block's slices partition its pairs: the count
        is the whole system's at any grainsize."""
        system = request.getfixturevalue(name)
        kwargs = {"cutoff": 6.0, "dims": (2, 2, 2)} if name == "water64" else {}
        problem = DecomposedProblem.build(
            system, DEFAULT_COST_MODEL, grainsize=grainsize, **kwargs
        )
        w = problem.counts
        cutoff = problem.cutoff
        assert w.nonbonded_pairs == brute_pairs(system.positions, system.box, cutoff)
        assert w.nonbonded_pairs == sum(x.n_pairs for x in problem.nb_descriptors)
        if not (grainsize.split_self or grainsize.split_pairs):
            assert w.candidate_pairs == patch_candidates(problem.decomposition)

    def test_block_pair_counts_matches_direct_counting(self, water64):
        """The shared helper must equal a brute-force count for both self
        and cross blocks, candidates included."""
        from repro.costmodel.model import block_pair_counts

        pos, box = water64.positions, water64.box
        rng = np.random.default_rng(0)
        a = rng.choice(water64.n_atoms, size=40, replace=False)
        b = np.setdiff1d(np.arange(water64.n_atoms), a)[:50]

        n_pairs, n_cand = block_pair_counts(pos, box, 6.0, a)
        assert n_cand == len(a) * (len(a) - 1) // 2
        assert n_pairs == brute_pairs(pos, box, 6.0, a)

        n_pairs, n_cand = block_pair_counts(pos, box, 6.0, a, b)
        assert n_cand == len(a) * len(b)
        assert n_pairs == brute_pairs(pos, box, 6.0, a, b)

    def test_estimate_block_costs_routes_through_shared_helper(self, water64):
        """estimate_block_costs (WorkDB priors) and block_pair_counts (the
        simulator's descriptors) must agree on every block's pair count:
        summed over the half-shell task list they reproduce the global
        count."""
        from repro.md.cells import bin_atoms
        from repro.costmodel.model import block_pair_counts, estimate_block_costs
        from repro.md.cells import CellGrid

        pos, box = water64.positions, water64.box
        cutoff = 6.0
        grid = CellGrid.build(pos, box, cutoff)
        _, _, buckets = bin_atoms(pos, box, grid.dims)
        a_arr, b_arr = grid.neighbor_cell_pair_arrays()
        tasks = list(zip(a_arr.tolist(), b_arr.tolist()))

        per_block = [
            block_pair_counts(
                pos, box, cutoff, buckets[a], None if a == b else buckets[b]
            )
            for a, b in tasks
        ]
        total_pairs = sum(p for p, _ in per_block)
        assert total_pairs == brute_pairs(pos, box, cutoff)

        # unit cost model: cost == n_pairs + n_cand, block for block
        costs = estimate_block_costs(
            pos, box, cutoff, buckets, tasks, model=CostModel(
                t_pair=1.0, t_candidate=1.0, t_bonded_unit=0.0,
                t_atom_integration=0.0,
            )
        )
        np.testing.assert_allclose(
            costs, [p + c for p, c in per_block], rtol=0, atol=0
        )
