"""The driver's three passes of a step — the task-ordered reduction
(``segment_add``), the wrap into the primary cell (``wrap_positions``) and the
pair list's staleness test (``max_displacement2``) — held to the numpy
reference bit for bit (``np.array_equal``, not a tolerance): the engines
reduce, wrap and decide rebuilds through them, and the golden digests are the
reference's bits.
"""

import ctypes
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.backend import available_backends, c_backend, get_backend, reference
from repro.md.pairlist import VerletPairList
from repro.util.pbc import wrap_positions

NUMPY = get_backend("numpy")
BACKENDS = ["numpy", "c"]
BOX = np.array([10.0, 12.5, 31.0])


@pytest.fixture(params=BACKENDS)
def backend(request):
    if request.param not in available_backends():
        pytest.skip("no C compiler on this host")
    return get_backend(request.param)


@pytest.fixture(scope="module")
def c():
    if "c" not in available_backends():
        pytest.skip("no C compiler on this host")
    return get_backend("c")


def scatter(n=40, m=200, seed=5):
    rng = np.random.default_rng(seed)
    out = rng.normal(size=(n, 3))
    idx = rng.integers(0, n, size=m)  # duplicates throughout
    return out, idx, rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-8, 8, size=(m, 1))


class TestSegmentAdd:
    @pytest.mark.parametrize("subtract", [False, True])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_bits_on_both_sides_of_the_fill(self, c, side, subtract):
        """``m`` one under, at and one over ``_BINCOUNT_MIN_FILL * n``: the
        in-order path below it, the zero-started sums from it on."""
        n = 40
        m = int(reference._BINCOUNT_MIN_FILL * n) + side
        out, idx, contrib = scatter(n, m)
        expected = out.copy()
        NUMPY.segment_add(expected, idx, contrib, subtract)
        c.segment_add(out, idx, contrib, subtract)
        np.testing.assert_array_equal(out, expected)

    def test_the_two_orders_round_differently(self, backend):
        """From zero, ``1e16 + 1`` rounds back to ``1e16`` and the row's sum is
        0, leaving 1 in ``out``; element by element, ``1 + 1e16`` loses the 1
        and the row ends at 0.  Which one a call gets is fixed by the fill."""
        contrib = np.array([[1e16], [1.0], [-1e16]])
        out = np.ones((4, 1))  # fill 3/4: the sums
        backend.segment_add(out, np.zeros(3, dtype=np.int64), contrib)
        assert out[:, 0].tolist() == [1.0, 1.0, 1.0, 1.0]
        out = np.ones((13, 1))  # fill 3/13: in order
        backend.segment_add(out, np.zeros(3, dtype=np.int64), contrib)
        assert out[0, 0] == 0.0

    def test_subtract_is_adding_the_negation(self, backend):
        out, idx, contrib = scatter()
        negated = out.copy()
        backend.segment_add(out, idx, contrib, subtract=True)
        backend.segment_add(negated, idx, -contrib)
        np.testing.assert_array_equal(out, negated)

    def test_no_indices_writes_nothing(self, backend):
        out, _, _ = scatter()
        before = out.copy()
        backend.segment_add(out, np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
        np.testing.assert_array_equal(out, before)

    @pytest.mark.parametrize("m", [5, 200], ids=["in-order", "sums"])
    @pytest.mark.parametrize("bad", [-1, 40, 2**40])
    def test_out_of_range_index_raises_and_writes_nothing(self, backend, m, bad):
        out, idx, contrib = scatter(m=m)
        idx[-1] = bad
        before = out.copy()
        with pytest.raises(IndexError, match=r"outside \[0, 40\)"):
            backend.segment_add(out, idx, contrib)
        np.testing.assert_array_equal(out, before)

    def test_any_output_array_takes_the_reference_path(self, c):
        """A strided ``out`` is written in place all the same."""
        wide = np.zeros((40, 6))
        out, idx, contrib = scatter()
        expected = wide[:, ::2] + out
        NUMPY.segment_add(expected, idx, contrib)
        view = wide[:, ::2]
        view += out
        c.segment_add(view, idx, contrib)
        np.testing.assert_array_equal(wide[:, ::2], expected)


def edge_coordinates(length):
    return np.array([
        -0.0, 0.0, length, np.nextafter(length, 0.0), -1e-300, 2.5 * length,
        -3.2 * length, np.nan, -np.inf, 1e300, -np.nextafter(length, 0.0),
    ])


class TestWrapPositions:
    @pytest.mark.filterwarnings("ignore:invalid value encountered in remainder")
    def test_edges_against_np_mod_and_the_fold(self, backend):
        column = [edge_coordinates(length) for length in BOX]
        pos = np.stack(column, axis=1)
        expected = np.mod(pos, BOX)
        expected[expected >= BOX] = 0.0
        backend.wrap_positions(pos, BOX)
        # array_equal with equal_nan compares values; the signs of the zeros
        # too (-0.0 becomes +0.0), through the bytes
        np.testing.assert_array_equal(pos, expected)
        assert pos.tobytes() == expected.tobytes()
        assert not np.signbit(pos[:2]).any()

    def test_random_coordinates_match_the_util_fold(self, backend):
        rng = np.random.default_rng(2)
        pos = rng.normal(0.0, 40.0, size=(500, 3))
        pos[::7] = rng.uniform(0.0, 1.0, size=pos[::7].shape) * BOX  # inside
        expected = wrap_positions(pos, BOX)
        backend.wrap_positions(pos, BOX)
        assert pos.tobytes() == expected.tobytes()


def staleness(backend, skin=2.0):
    """A list of skin 2 built at ``ref``: atom 7 at x = 4, atom 3 half an
    Angstrom inside the top z face."""
    pl = VerletPairList(6.0, skin, lambda positions, box: None, backend=backend)
    ref = np.random.default_rng(4).uniform(0.0, 1.0, size=(30, 3)) * BOX
    ref[7, 0] = 4.0
    ref[3, 2] = BOX[2] - 0.5
    pl.pairs(ref, BOX)
    return pl, ref


class TestMaxDisplacement2:
    def test_random_displacements_match(self, c):
        rng = np.random.default_rng(3)
        ref = rng.uniform(0.0, 1.0, size=(300, 3)) * BOX
        for scale in (1e-3, 0.5, 7.0, 40.0):
            pos = ref + rng.normal(0.0, scale, size=ref.shape)
            assert c.max_displacement2(pos, ref, BOX) == NUMPY.max_displacement2(
                pos, ref, BOX
            )

    def test_decision_at_exactly_half_the_skin(self, backend):
        """Moved exactly ``skin/2`` along x: not stale; one ulp more: stale."""
        pl, ref = staleness(backend)
        pos = ref.copy()
        pos[7, 0] = 5.0
        assert backend.max_displacement2(pos, ref, BOX) == 1.0 == (0.5 * pl.skin) ** 2
        assert not pl.needs_rebuild(pos, BOX)
        pos[7, 0] = np.nextafter(pos[7, 0], np.inf)
        assert backend.max_displacement2(pos, ref, BOX) > 1.0
        assert pl.needs_rebuild(pos, BOX)

    def test_across_a_box_face(self, backend):
        """An atom that left through a face and came back in wrapped moved by
        its minimum image, not by the box edge."""
        pl, ref = staleness(backend)
        pos = ref.copy()
        pos[3, 2] = 0.25
        d2 = backend.max_displacement2(pos, ref, BOX)
        assert d2 == NUMPY.max_displacement2(pos, ref, BOX) == 0.75**2
        assert not pl.needs_rebuild(pos, BOX)
        pos[3, 2] = 1.0  # 1.5 across the face: stale
        assert pl.needs_rebuild(pos, BOX)

    def test_nan_propagates_as_max_does(self, backend):
        pl, ref = staleness(backend)
        pos = ref.copy()
        pos[0, 0] += 50.0  # the largest, before the NaN
        pos[11, 1] = np.nan
        assert np.isnan(backend.max_displacement2(pos, ref, BOX))
        # NaN > (skin/2)^2 is false: the reference decides so, and so must c
        assert pl.needs_rebuild(pos, BOX) is False

    def test_empty_raises_as_the_reference(self, backend):
        empty = np.zeros((0, 3))
        with pytest.raises(ValueError):
            backend.max_displacement2(empty, empty, BOX)


def test_driver_passes_hold_the_gil_and_the_task_kernels_release_it(c):
    """The three are functions of a ``PyDLL`` handle (the call keeps the
    GIL); every other kernel is the ``CDLL``'s (the call drops it)."""
    lib = c_backend._load(Path(c_backend.build_info["cache_file"]))
    held = ctypes._FUNCFLAG_PYTHONAPI  # what PyDLL sets on its functions
    assert all(getattr(lib, name)._flags_ & held for name in c_backend.GIL_HELD)
    assert not any(
        getattr(lib, name)._flags_ & held for name in c_backend.GIL_RELEASED
    )
    kernels = c_backend.build_info["kernels"]
    assert {name for name, k in kernels.items() if k["gil"] == "held"} == set(
        c_backend.GIL_HELD
    )


def test_reductions_on_two_threads_keep_their_solo_bits(backend):
    """Two threads reducing into outputs of one size at once: each call's
    zero-started sums are its own, so every result is its solo result."""
    n, m, calls = 648, 4000, 300
    problems = [scatter(n, m, seed) for seed in (1, 2)]
    solo = []
    for out, idx, contrib in problems:
        out = out.copy()
        backend.segment_add(out, idx, contrib)
        solo.append(out)
    start = threading.Barrier(2)
    wrong = [0, 0]

    def hammer(k):
        out0, idx, contrib = problems[k]
        start.wait()
        for _ in range(calls):
            out = out0.copy()
            backend.segment_add(out, idx, contrib)
            wrong[k] += not np.array_equal(out, solo[k])

    threads = [threading.Thread(target=hammer, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert wrong == [0, 0]
