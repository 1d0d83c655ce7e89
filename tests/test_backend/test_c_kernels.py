"""The C kernels at their edges: what the parity sweep's builder systems do
not reach.  Held to the numpy reference at 1e-9 (the registry's tolerance)
and to themselves bit for bit.
"""

import re
import threading
from importlib import resources

import numpy as np
import pytest

from repro.backend import available_backends, get_backend
from tests.test_backend.test_pair_kernel import MODE_IDS, MODES, evaluate, problem
from tests.test_md.test_ewald import rock_salt

pytestmark = pytest.mark.skipif(
    "c" not in available_backends(), reason="no C compiler on this host"
)

NUMPY = get_backend("numpy")
RTOL = 1e-9
#: pairs the pair kernel takes per pass
CHUNK = int(
    re.search(
        r"^#define NB_CHUNK (\d+)$",
        resources.files("repro.backend").joinpath("kernels.c").read_text(),
        re.MULTILINE,
    ).group(1)
)


@pytest.fixture(scope="module")
def c():
    return get_backend("c")


def run(backend, args, mode, **distances):
    return evaluate(backend.nb_pairs, args, mode, **distances)


def assert_close(got, expected):
    (e_lj, e_el, n), forces = got
    (r_lj, r_el, r_n), r_forces = expected
    assert n == r_n
    assert e_lj == pytest.approx(r_lj, rel=RTOL, abs=1e-12)
    assert e_el == pytest.approx(r_el, rel=RTOL, abs=1e-12)
    assert np.abs(forces - r_forces).max() <= RTOL * max(np.abs(r_forces).max(), 1.0)


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
class TestPairKernel:
    def test_matches_reference_across_the_periodic_faces(self, c, mode):
        args = problem()
        got = run(c, args, mode)
        assert got[0][2] > 0
        assert_close(got, run(NUMPY, args, mode))

    def test_empty_list(self, c, mode):
        args = list(problem(m=4))
        for k in (2, 3, 4, 5, 6, 8, 9):
            args[k] = args[k][:0]
        out, forces = run(c, args, mode)
        assert out == (0.0, 0.0, 0) and not forces.any()

    def test_index_width_does_not_change_the_bits(self, c, mode):
        """int32 and int64 are read as stored; anything else is converted."""
        args = problem()
        base = run(c, args, mode)
        for idx_type, row_type in [
            (np.int64, np.int64), (np.int32, np.int32), (np.int64, np.int32),
            (np.int16, np.uint8),
        ]:
            cast = list(args)
            cast[2], cast[3] = args[2].astype(idx_type), args[3].astype(idx_type)
            cast[8], cast[9] = args[8].astype(row_type), args[9].astype(row_type)
            out, forces = run(c, cast, mode)
            assert out == base[0] and np.array_equal(forces, base[1])

    def test_strided_force_block(self, c, mode):
        args = list(problem())
        wide = np.zeros((len(args[7]), 6))
        args[7] = wide[:, ::2]  # not contiguous: accumulated through a copy
        assert_close(run(c, args, mode), run(NUMPY, args, mode))

    @pytest.mark.parametrize("slot", [2, 3, 8, 9], ids=["i", "j", "si", "sj"])
    @pytest.mark.parametrize("bad", [-1, 10**6])
    def test_index_out_of_range_is_an_error_not_a_wild_write(self, c, mode, slot, bad):
        """Where numpy's gather raises, the kernel checks before it follows."""
        args = list(problem())
        args[slot] = args[slot].copy()
        args[slot][17] = bad
        with pytest.raises(IndexError, match="out of range"):
            run(c, args, mode)

    @pytest.mark.parametrize(
        "m", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7],
        ids=["one", "chunk-1", "chunk", "chunk+1", "3chunks+7"],
    )
    def test_list_lengths_around_the_chunk(self, c, mode, m):
        args = problem(m=m, seed=m)
        assert_close(run(c, args, mode), run(NUMPY, args, mode))

    def test_no_pair_in_range(self, c, mode):
        args = problem(m=CHUNK + 9, r_lo=8.0, r_hi=8.4)
        out, forces = run(c, args, mode)
        assert out == (0.0, 0.0, 0) and not forces.any()

    def test_every_pair_in_range(self, c, mode):
        args = problem(m=2 * CHUNK + 9, r_hi=4.9)
        got = run(c, args, mode)
        assert got[0][2] == 2 * CHUNK + 9
        assert_close(got, run(NUMPY, args, mode))

    @pytest.mark.parametrize("slot", [2, 3, 8, 9], ids=["i", "j", "si", "sj"])
    @pytest.mark.parametrize("far", [False, True], ids=["last-chunk", "far-pair"])
    def test_bad_index_late_in_the_list_or_on_a_pair_out_of_range(
        self, c, mode, slot, far
    ):
        """Every index is checked, not only those of the pairs that are
        evaluated, and a chunk's are checked before any of it is."""
        m = 3 * CHUNK + 7
        args = list(problem(m=m, r_lo=8.0, r_hi=8.4) if far else problem(m=m))
        args[slot] = args[slot].copy()
        args[slot][m - 3] = 10**6
        with pytest.raises(IndexError, match="out of range"):
            run(c, args, mode)

    @pytest.mark.parametrize(
        "rows", ["never-repeat", "row-major", "shuffled", "own-row"]
    )
    def test_any_row_order_matches_the_reference(self, c, mode, rows):
        """The force on ``si`` is summed per run of equal ``si``: runs of
        one, whole rows, rows met again later, and an ``sj`` that names the
        row being summed."""
        m = CHUNK + 40
        args = list(problem(m=m, n=m if rows == "never-repeat" else 12, r_hi=5.9))
        if rows == "never-repeat":
            args[8] = np.random.default_rng(1).permutation(m)
        elif rows != "shuffled":
            args[8] = np.sort(args[8])
        if rows == "own-row":
            run_of = np.flatnonzero(args[8] == args[8][m // 2])
            assert len(run_of) > 4
            args[9] = args[9].copy()
            args[9][run_of[2:-1:2]] = args[8][m // 2]
        got = run(c, args, mode)
        assert got[0][2] == m
        assert_close(got, run(NUMPY, args, mode))

    def test_unwrapped_coordinates_take_the_general_fold(self, c, mode):
        """More than 1.5 box lengths apart on some axis: no sign select
        folds that; the three edges differ."""
        args = list(problem(m=CHUNK + 40))
        m = len(args[2])
        shift = np.random.default_rng(2).integers(-3, 4, (m, 3))
        shift[::7] = 0  # and pairs that need no more than the select
        args[0] = args[0].copy()
        args[0][m:] += shift * args[1]
        assert np.abs(args[0][m:] - args[0][:m]).max() > 2.5 * args[1].max()
        got = run(c, args, mode)
        assert 0 < got[0][2] < m
        assert_close(got, run(NUMPY, args, mode))

    @pytest.mark.parametrize("switch", [5.0, 5.999], ids=["band", "sliver"])
    def test_switching_band(self, c, mode, switch):
        """Distances bunched around the cutoff: most in-range pairs inside
        a one-angstrom band, or a band so thin its polynomial's denominator
        is 1e-6."""
        args = problem(r_lo=4.9, r_hi=6.2)
        got = run(c, args, mode, cutoff=6.0, switch=switch)
        assert got[0][2] > 0.5 * len(args[2])
        assert_close(got, run(NUMPY, args, mode, cutoff=6.0, switch=switch))

    def test_pair_exactly_at_the_switch_distance(self, c, mode):
        """3-4-5: ``r2 == switch**2`` to the bit, where S is 1 and S' is 0."""
        args = list(problem(m=1))
        args[0] = np.array([[1.0, 1.0, 1.0], [4.0, 5.0, 1.0]])
        got = run(c, args, mode, cutoff=6.0, switch=5.0)
        assert got[0][2] == 1
        assert_close(got, run(NUMPY, args, mode, cutoff=6.0, switch=5.0))

    def test_n_pairs_counts_inside_the_lj_cutoff_in_every_mode(self, c, mode):
        args = problem(m=CHUNK + 40)
        assert run(c, args, mode)[0][2] == run(c, args, ())[0][2]

    def test_list_arrays_of_different_lengths(self, c, mode):
        args = list(problem())
        args[5] = args[5][:-1]
        with pytest.raises(ValueError, match="differ in length"):
            run(c, args, mode)

    def test_half_box_ties_fold_like_the_reference(self, c, mode):
        """Rock salt puts pairs at exactly half a box: round-half-to-even
        leaves them unfolded, round-half-up would flip the force."""
        system = rock_salt(ncell=2)
        pos, box = system.positions, system.box
        i_idx, j_idx = np.triu_indices(len(pos), k=1)
        delta = np.abs(pos[j_idx] - pos[i_idx])
        assert np.any(delta == box / 2)
        m = len(i_idx)
        args = (
            pos, box, i_idx, j_idx, np.full(m, 0.1), np.full(m, 2.5),
            system.charges[i_idx] * system.charges[j_idx],
            np.zeros_like(pos), i_idx, j_idx,
        )
        # the lattice's net forces vanish by symmetry: compare the per-pair
        # scatter through distinct rows as well
        rows = list(args)
        rows[7] = np.zeros((2 * m, 3))
        rows[8], rows[9] = np.arange(m), np.arange(m) + m
        assert_close(run(c, rows, mode), run(NUMPY, rows, mode))
        assert_close(run(c, args, mode), run(NUMPY, args, mode))

    def test_threads_on_disjoint_blocks_reproduce_the_serial_bits(self, c, mode):
        """The kernel keeps no state between calls: ctypes drops the GIL,
        and the service steps several jobs from threads."""
        args = problem(m=4000, n=50)
        parts = np.array_split(np.arange(4000), 4)

        def evaluate(part, out):
            sub = list(args)
            for k in (2, 3, 4, 5, 6, 8, 9):
                sub[k] = args[k][part]
            for _ in range(20):
                out[:] = [run(c, sub, mode)]

        serial = [[None] for _ in parts]
        for part, out in zip(parts, serial):
            evaluate(part, out)
        threaded = [[None] for _ in parts]
        threads = [
            threading.Thread(target=evaluate, args=(part, out))
            for part, out in zip(parts, threaded)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for (got,), (expected,) in zip(threaded, serial):
            assert got[0] == expected[0] and np.array_equal(got[1], expected[1])


class TestReciprocalSum:
    def tables(self, kmax=4):
        from repro.builder import small_water_box
        from repro.md.ewald import _kspace_tables

        system = small_water_box(40, seed=6, relax=False)
        system.box = system.box * np.array([1.0, 1.1, 1.25])  # three edges
        k, _k2, ak, m = _kspace_tables(system.box, kmax, 0.35)
        return system, k, ak, m

    def recip(self, backend, system, k, ak, m=None):
        forces = np.zeros_like(system.positions)
        extra = () if m is None else (m,)
        energy = backend.ewald_recip_shard(
            system.positions, system.charges, k, ak, 1.7, forces, *extra
        )
        return energy, forces

    def assert_same(self, got, expected, rtol):
        assert got[0] == pytest.approx(expected[0], rel=rtol)
        assert np.abs(got[1] - expected[1]).max() <= rtol * np.abs(expected[1]).max()

    def test_triplets_given_or_not_agree(self, c):
        """Factorised (C) against direct (no triplets: the reference's)."""
        system, k, ak, m = self.tables()
        direct = self.recip(c, system, k, ak)
        assert direct[0] == self.recip(NUMPY, system, k, ak)[0]
        self.assert_same(self.recip(c, system, k, ak, m), direct, 1e-12)

    def test_every_shard_is_factorised(self, c):
        """A shard's smallest component is no common divisor of its own
        vectors; with the table's triplets no shard needs one."""
        from repro.md.tasks import kspace_shards

        system, k, ak, m = self.tables()
        shards = kspace_shards(len(k))
        assert len(shards) > 1
        total = np.zeros_like(system.positions)
        energy = 0.0
        for _, lo, hi in shards:
            part = self.recip(c, system, k[lo:hi], ak[lo:hi], m[lo:hi])
            self.assert_same(
                part, self.recip(NUMPY, system, k[lo:hi], ak[lo:hi]), 1e-12
            )
            energy += part[0]
            total += part[1]
        self.assert_same((energy, total), self.recip(NUMPY, system, k, ak), 1e-12)

    def test_triplets_beyond_the_tables_take_the_direct_sum(self, c):
        system, _, _, _ = self.tables(kmax=1)
        m = np.array([[65, 0, 1], [0, -3, 2]], dtype=np.int32)
        k = 2.0 * np.pi * m / system.box
        ak = np.array([0.5, 0.25])
        assert self.recip(c, system, k, ak, m)[0] == self.recip(NUMPY, system, k, ak)[0]

    def test_tables_of_different_lengths(self, c):
        system, k, ak, m = self.tables(kmax=1)
        with pytest.raises(ValueError, match="differ in length"):
            self.recip(c, system, k, ak[:-1], m)
        with pytest.raises(ValueError, match="differ in length"):
            self.recip(c, system, k, ak, m[:-1])

    def test_empty_shard(self, c):
        system, k, ak, m = self.tables(kmax=1)
        energy, forces = self.recip(c, system, k[:0], ak[:0], m[:0])
        assert energy == 0.0 and not forces.any()


KIND_IDS = ["bond", "angle", "dihedral", "improper"]


@pytest.mark.parametrize("kind", range(4), ids=KIND_IDS)
class TestBondedTerms:
    """``bonded_terms`` in C: the reference's formulas term by term, summed
    in list order instead of by BLAS dots and per-slot scatters — 1e-9."""

    def terms(self, kind):
        from repro.backend.base import bonded_cases, synthetic_problem

        p = synthetic_problem()
        return (p["pos"], p["box"], *bonded_cases(p)[kind])

    def run(self, backend, terms, sidx=None, n_rows=None):
        pos, box, kind, idx, kpar, p1, p2 = terms
        forces = np.zeros((len(pos) if n_rows is None else n_rows, 3))
        energy = backend.bonded_terms(
            pos, box, kind, idx, kpar, p1, p2, forces, idx if sidx is None else sidx
        )
        return energy, forces

    def assert_same(self, got, expected):
        assert got[0] == pytest.approx(expected[0], rel=RTOL, abs=1e-12)
        scale = max(np.abs(expected[1]).max(), 1.0)
        assert np.abs(got[1] - expected[1]).max() <= RTOL * scale

    def test_matches_reference_on_the_synthetic_terms(self, c, kind):
        terms = self.terms(kind)
        got = self.run(c, terms)
        assert got[0] != 0.0 and got[1].any()
        self.assert_same(got, self.run(NUMPY, terms))
        # deterministic: one reduction order
        again = self.run(c, terms)
        assert again[0] == got[0] and np.array_equal(again[1], got[1])

    def test_matches_reference_on_an_assembly_across_the_periodic_faces(self, c, kind):
        """Real topology, wrapped coordinates: bonded atoms sit on opposite
        faces of the box and every displacement folds."""
        from repro.builder import mini_assembly
        from repro.md.bonded import bonded_term_arrays

        system = mini_assembly(seed=1)
        idx, kpar, p1, p2 = bonded_term_arrays(system, kind)
        assert len(idx) > 0
        # the first term's second atom to the box corner, then wrap
        system.positions = system.positions - system.positions[idx[0, 1]]
        system.wrap()
        spans = np.abs(system.positions[idx[:, 0]] - system.positions[idx[:, 1]])
        assert np.any(spans > 0.5 * system.box)
        terms = (system.positions, system.box, kind, idx, kpar, p1, p2)
        self.assert_same(self.run(c, terms), self.run(NUMPY, terms))

    def test_block_local_scatter_through_sidx(self, c, kind):
        """The engines' form: block row ``r`` of a group holds atom
        ``idx.ravel()[r]``; summing the block by atom gives the in-place
        forces."""
        terms = self.terms(kind)
        idx = terms[3]
        sidx = np.arange(idx.size, dtype=np.int64).reshape(idx.shape)
        energy, block = self.run(c, terms, sidx=sidx, n_rows=idx.size)
        want = self.run(c, terms)
        assert energy == want[0]
        summed = np.zeros_like(want[1])
        np.add.at(summed, idx.ravel(), block)
        assert np.abs(summed - want[1]).max() <= 1e-12 * np.abs(want[1]).max()
        self.assert_same((energy, block), self.run(NUMPY, terms, sidx, idx.size))

    def test_empty_group_and_strided_forces(self, c, kind):
        pos, box, _, idx, kpar, p1, p2 = self.terms(kind)
        none = (pos, box, kind, idx[:0], kpar[:0], p1[:0], p2[:0])
        energy, forces = self.run(c, none)
        assert energy == 0.0 and not forces.any()
        wide = np.zeros((len(pos), 6))
        energy = c.bonded_terms(pos, box, kind, idx, kpar, p1, p2, wide[:, ::2], idx)
        want = self.run(c, self.terms(kind))
        assert energy == want[0] and np.array_equal(wide[:, ::2], want[1])
        assert not wide[:, 1::2].any()

    @pytest.mark.parametrize("bad", [-1, 10**6])
    @pytest.mark.parametrize("slot", ["idx", "sidx"])
    def test_index_out_of_range_is_an_error_not_a_wild_write(self, c, kind, slot, bad):
        pos, box, _, idx, kpar, p1, p2 = self.terms(kind)
        broken = idx.copy()
        broken[-1, -1] = bad
        args = (broken, idx) if slot == "idx" else (idx, broken)
        forces = np.zeros((len(pos) + 2, 3))  # guard rows past the atoms
        with pytest.raises(IndexError):
            c.bonded_terms(pos, box, kind, args[0], kpar, p1, p2, forces[:-2], args[1])
        assert not forces[-2:].any()

    def test_mismatched_arrays_are_rejected(self, c, kind):
        pos, box, _, idx, kpar, p1, p2 = self.terms(kind)
        forces = np.zeros_like(pos)
        with pytest.raises(ValueError, match="arity"):
            c.bonded_terms(pos, box, kind, idx[:, :-1], kpar, p1, p2, forces, idx)
        with pytest.raises(ValueError, match="arity"):
            c.bonded_terms(pos, box, kind, idx, kpar, p1, p2, forces, idx[:-1])
        with pytest.raises(ValueError, match="differ in length"):
            c.bonded_terms(pos, box, kind, idx, kpar[:-1], p1, p2, forces, idx)


def test_a_bonded_kind_the_kernel_does_not_cover_is_the_references_to_refuse(c):
    pos = np.zeros((4, 3))
    idx = np.arange(4).reshape(1, 4)
    one = np.ones(1)
    with pytest.raises(ValueError, match="unknown bonded term kind"):
        c.bonded_terms(pos, np.ones(3), 7, idx, one, one, one, np.zeros((4, 3)), idx)


def test_collinear_angle_and_degenerate_torsion_take_the_references_guards(c):
    """A straight angle (sin 0) and a torsion with a zero-length normal: the
    guards, not a division by zero — and the reference's numbers."""
    box = np.array([30.0, 30.0, 30.0])
    pos = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [3.0, 1.0, 1.0], [4.0, 1.0, 1.0]])
    one, zero = np.ones(1), np.zeros(1)
    for kind, idx, p1 in (
        (1, np.array([[0, 1, 2]]), np.array([2.0])),
        (2, np.array([[0, 1, 2, 3]]), np.array([2.0])),
        (3, np.array([[0, 1, 2, 3]]), np.array([0.3])),
    ):
        got, want = np.zeros_like(pos), np.zeros_like(pos)
        e_c = c.bonded_terms(pos, box, kind, idx, one, p1, zero, got, idx)
        e_r = NUMPY.bonded_terms(pos, box, kind, idx, one, p1, zero, want, idx)
        assert np.isfinite(got).all() and np.isfinite(e_c)
        assert e_c == pytest.approx(e_r, rel=RTOL, abs=1e-12)
        assert np.abs(got - want).max() <= RTOL * max(np.abs(want).max(), 1.0)
