"""The numpy pair kernel against the formulas it is arranged from.

``reference.nb_pairs`` gathers, folds, selects and updates in place for
speed; ``reference.pair_terms`` + ``segment_add`` written out the slow way
(fancy gathers, boolean masks, whole-array temporaries) is its oracle.
Agreement is held to 1e-12 relative — the two differ only in the order of
a few multiplications — except for the Ewald real-space term, which the
kernel reads from the shared table (``repro.backend.ewald_table``) and the
formulas take from ``scipy``: that term is held to the table's stated bound,
1e-9 of itself pair by pair.
"""

import numpy as np
import pytest

from repro.backend import reference
from repro.util.pbc import minimum_image

CUTOFF, SWITCH = 6.0, 5.1
ALPHA = 0.4
RTOL = 1e-12
#: the Ewald table's bound against the term it tabulates
TABLE_RTOL = 1e-9

#: electrostatics modes: cutoff, and Ewald with the erfc cutoff below and
#: above the LJ cutoff
MODES = [(), (ALPHA, 5.0), (ALPHA, 7.5)]
MODE_IDS = ["cutoff", "ewald-below", "ewald-above"]


def problem(m=400, n=60, seed=0, r_lo=2.6, r_hi=8.5, n_rows=None):
    """``m`` pairs at distances spread over ``[r_lo, r_hi]`` across the
    periodic faces of a non-cubic box, scattered at duplicate-heavy rows."""
    rng = np.random.default_rng(seed)
    box = np.array([17.0, 19.5, 23.0])
    pos = np.zeros((2 * m, 3))
    pos[:m] = rng.uniform(0.0, 1.0, (m, 3)) * box
    u = rng.normal(size=(m, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    pos[m:] = np.mod(pos[:m] + u * rng.uniform(r_lo, r_hi, m)[:, None], box)
    i_idx = np.arange(m, dtype=np.int32)
    j_idx = i_idx + m
    eps = rng.uniform(0.05, 0.25, m)
    rmin = rng.uniform(2.5, 3.6, m)
    qq = rng.normal(0.0, 0.2, m)
    n_rows = n if n_rows is None else n_rows
    si = rng.integers(0, n, m)
    sj = rng.integers(0, n, m)
    return pos, box, i_idx, j_idx, eps, rmin, qq, np.zeros((n_rows, 3)), si, sj


def slow(pos, box, i_idx, j_idx, eps, rmin, qq, cutoff, switch, forces, si, sj, *mode):
    """``nb_pairs``' contract evaluated with ``pair_terms``; a fourth value
    is what the table's bound allows in Ewald mode, per unit of
    ``TABLE_RTOL``: the pairs' summed ``|e_el|`` and largest electrostatic
    force."""
    delta = minimum_image(pos[j_idx] - pos[i_idx], box)
    r2 = np.einsum("ij,ij->i", delta, delta)
    reach = max(cutoff, mode[1]) if mode else cutoff
    w = r2 < reach * reach
    e_lj, e_el, fvec = reference.pair_terms(
        delta[w], r2[w], eps[w], rmin[w], qq[w], cutoff, switch, *mode
    )
    for k, p in enumerate(np.flatnonzero(w)):  # one pair at a time
        forces[si[p]] += fvec[k]
        forces[sj[p]] -= fvec[k]
    table_scale = (0.0, 0.0)
    if mode:
        _, _, f_el = reference.pair_terms(
            delta[w], r2[w], 0.0 * eps[w], rmin[w], qq[w], cutoff, switch, *mode
        )
        table_scale = np.abs(e_el).sum(), np.abs(f_el).max(initial=0.0)
    n_pairs = int(np.count_nonzero(r2 < cutoff * cutoff))
    return e_lj.sum(), e_el.sum(), n_pairs, table_scale


def evaluate(fn, args, mode, cutoff=CUTOFF, switch=SWITCH):
    pos, box, i_idx, j_idx, eps, rmin, qq, forces, si, sj = args
    forces = forces.copy()
    out = fn(
        pos, box, i_idx, j_idx, eps, rmin, qq, cutoff, switch, forces, si, sj, *mode
    )
    return out, forces


def assert_kernel_matches_formulas(args, mode):
    (e_lj, e_el, n), forces = evaluate(reference.nb_pairs, args, mode)
    (r_lj, r_el, r_n, (el_sum, f_el_max)), r_forces = evaluate(slow, args, mode)
    assert n == r_n
    assert e_lj == pytest.approx(r_lj, rel=RTOL, abs=1e-300)
    assert e_el == pytest.approx(r_el, rel=RTOL, abs=TABLE_RTOL * el_sum + 1e-300)
    scale = max(np.abs(r_forces).max(), 1e-300)
    assert np.abs(forces - r_forces).max() <= RTOL * scale + TABLE_RTOL * f_el_max
    return n, forces


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
class TestKernelAgainstFormulas:
    def test_mixed_list_with_duplicate_rows(self, mode):
        # 400 pairs onto 60 rows: the bincount branch, every row hit often;
        # distances straddle the switch, both cutoffs and the list's skin
        n, _ = assert_kernel_matches_formulas(problem(), mode)
        assert 0 < n < 400

    def test_sparse_scatter_branch(self, mode):
        # 12 pairs onto a 200-row block: below the bincount fill ratio
        args = problem(m=12, n=200, seed=1, r_hi=5.5)
        assert len(args[8]) < reference._BINCOUNT_MIN_FILL * len(args[7])
        n, forces = assert_kernel_matches_formulas(args, mode)
        assert n == 12 and np.count_nonzero(forces.any(axis=1)) <= 24

    def test_no_pair_in_the_switching_band(self, mode):
        n, _ = assert_kernel_matches_formulas(
            problem(seed=2, r_hi=SWITCH - 0.05), mode
        )
        assert n == 400

    def test_every_pair_in_the_switching_band(self, mode):
        n, _ = assert_kernel_matches_formulas(
            problem(seed=3, r_lo=SWITCH + 0.01, r_hi=CUTOFF - 0.01), mode
        )
        assert n == 400

    def test_newtons_third_law(self, mode):
        args = problem(seed=4)
        _, forces = evaluate(reference.nb_pairs, args, mode)
        assert np.abs(forces.sum(axis=0)).max() <= 1e-12 * np.abs(forces).max()

    def test_no_pair_in_range(self, mode):
        args = problem(seed=5, r_lo=8.0, r_hi=8.4)
        out, forces = evaluate(reference.nb_pairs, args, mode)
        assert out == (0.0, 0.0, 0) and not forces.any()

    def test_empty_list(self, mode):
        args = problem(m=0, seed=6, n_rows=4)
        out, forces = evaluate(reference.nb_pairs, args, mode)
        assert out == (0.0, 0.0, 0) and not forces.any()


def test_count_stays_inside_the_lj_cutoff():
    """With the longer erfc reach, pairs between the cutoffs carry
    electrostatics but no LJ and are not counted."""
    args = problem(seed=7, r_lo=CUTOFF + 0.1, r_hi=7.4)
    (e_lj, e_el, n), forces = evaluate(reference.nb_pairs, args, (ALPHA, 7.5))
    assert n == 0 and e_lj == 0.0
    assert e_el != 0.0 and forces.any()


def test_subtracting_scatter_is_the_negated_scatter_bit_for_bit():
    rng = np.random.default_rng(8)
    for m, n in ((500, 40), (5, 40)):  # bincount branch, add.at branch
        idx = rng.integers(0, n, m)
        contrib = rng.normal(size=(m, 3))
        a = rng.normal(size=(n, 3))
        b = a.copy()
        reference.segment_add(a, idx, contrib, subtract=True)
        reference.segment_add(b, idx, -contrib)
        assert np.array_equal(a, b)
