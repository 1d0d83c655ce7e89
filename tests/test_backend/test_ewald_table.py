"""The Ewald real-space table (``repro.backend.ewald_table``), as both pair
kernels read it, against ``scipy``.

Every value below comes out of a backend's ``nb_rows`` — one listed pair a
task, unit charges, LJ off — so a task's electrostatic energy is ``C E(r²)``
and the force on its first row ``−C F(r²) r``: what is measured is the
kernel's lookup, Horner order and below-the-first-node branch, not a Python
re-statement of them.  The bounds are the ones DESIGN.md states: 1e-9 of the
term itself while ``alpha * cutoff <= 3.3``, 1e-11 of the bare Coulomb term
(``1/r``, ``1/r³``) whatever ``alpha``.  No timing anywhere.
"""

import numpy as np
import pytest
from scipy.special import erfc

from repro.backend import available_backends, c_backend, get_backend, reference
from repro.backend.ewald_table import (
    R2_FIRST, ewald_table, interval_nodes, interval_of,
)
from repro.backend.reference import COULOMB_CONSTANT
from repro.md.ewald import EwaldOptions
from tests.test_backend.test_pair_kernel import MODE_IDS, MODES

BACKENDS = [get_backend(name) for name in available_backends()]
OF_TERM, OF_COULOMB = 1e-9, 1e-11
#: LJ cutoff of every call here; ``MODES`` put the erfc cutoff on both sides
CUTOFF, SWITCH = 6.0, 5.1

DEFAULT = (EwaldOptions().alpha_value(), EwaldOptions().cutoff)
#: (alpha, ewald_cutoff): the default pairing, the two of ``MODES`` (erfc
#: cutoff below and above the LJ cutoff), the perf harness's row, the golden
#: run's, and the edge of the stated range — alpha * cutoff = 3.3 with
#: cutoff² just past a power of two, where the last intervals are at their
#: widest for their r²
CONFIGS = [DEFAULT, *MODES[1:], (0.375, 8.0), (0.5, 6.0), (3.3 / 8.01, 8.01)]
CONFIG_IDS = ["default", *MODE_IDS[1:], "harness", "golden", "edge-of-range"]


@pytest.fixture(params=BACKENDS, ids=lambda b: b.name)
def backend(request):
    return request.param


def exact(alpha, r2):
    """``E`` and ``F`` written out from ``scipy.special.erfc``."""
    r = np.sqrt(r2)
    e = erfc(alpha * r) / r
    return e, (e + 2.0 * alpha / np.sqrt(np.pi) * np.exp(-(alpha * r) ** 2)) / r2


def through(backend, alpha, cutoff, x):
    """``(r2, E, F)`` of pairs ``x`` apart along the first axis, read back
    from one ``nb_rows`` call: task ``t`` is atoms ``2t`` and ``2t + 1``, its
    first row listing the second."""
    m = len(x)
    pos = np.zeros((2 * m, 3))
    pos[1::2, 0] = x
    box = np.array([1e3, 1e3, 1e3])
    tables = (
        np.zeros(2 * m, dtype=np.int64), np.ones(2 * m),
        np.zeros((1, 1)), np.ones((1, 1)),
    )
    lists = (
        np.ones(m, dtype=np.int32),
        (np.arange(m)[:, None] + np.array([0, 1, 1])).ravel().astype(np.int64),
        np.arange(2 * m, dtype=np.int64),
        2 * np.arange(m + 1, dtype=np.int64),
    )
    scratch = np.full((2 * m, 3), np.nan)
    out = np.full((m, 4), np.nan)
    backend.nb_rows(
        pos, box, tables, lists, CUTOFF, SWITCH, scratch, lists[3][:-1].copy(), out,
        alpha, cutoff,
    )
    assert np.array_equal(scratch[0::2], -scratch[1::2])  # Newton's third law
    assert not scratch[:, 1:].any() and not out[:, 0].any()
    return x * x, out[:, 1] / COULOMB_CONSTANT, -scratch[0::2, 0] / (COULOMB_CONSTANT * x)


def assert_within_bounds(alpha, r2, e, f, of_term=OF_TERM):
    want_e, want_f = exact(alpha, r2)
    r = np.sqrt(r2)
    assert np.max(np.abs(e - want_e) / want_e) <= of_term
    assert np.max(np.abs(f - want_f) / want_f) <= of_term
    assert np.max(np.abs(e - want_e) * r) <= OF_COULOMB
    assert np.max(np.abs(f - want_f) * r**3) <= OF_COULOMB


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_every_interval_at_its_node_its_midpoint_and_random_points(backend, config):
    alpha, cutoff = config
    assert alpha * cutoff <= 3.3 + 1e-12
    table = ewald_table(alpha, cutoff)
    nodes = interval_nodes(len(table))
    rng = np.random.default_rng(len(table))
    inside = np.concatenate(
        [[0.0, 0.5], rng.uniform(0.0, 1.0, 2)]
    )  # fractions of an interval
    r2 = (nodes[:-1, None] + inside * np.diff(nodes)[:, None]).ravel()
    r2 = r2[r2 < cutoff * cutoff]
    got_r2, e, f = through(backend, alpha, cutoff, np.sqrt(r2))
    # x * x lands within an ulp of the r2 asked for: on the node or in the
    # last place of the interval before it.  The table's last interval holds
    # cutoff² and may hold nothing inside it; the next test reads its ends.
    at = interval_of(got_r2)
    assert at.min() == 0 and len(np.unique(at)) >= len(table) - 1
    assert_within_bounds(alpha, got_r2, e, f)


def test_beyond_the_stated_range_only_the_coulomb_bound_is_promised(backend):
    """``alpha * cutoff = 5``: the term is 1e-12 of ``1/r`` at the cutoff and
    the table follows it there to parts in 1e-8 of itself — and still to
    1e-11 of the Coulomb term."""
    alpha, cutoff = 0.625, 8.0
    nodes = interval_nodes(len(ewald_table(alpha, cutoff)))
    r2 = (nodes[:-1] + 0.5 * np.diff(nodes))[nodes[:-1] < cutoff * cutoff - 0.5]
    got_r2, e, f = through(backend, alpha, cutoff, np.sqrt(r2))
    assert_within_bounds(alpha, got_r2, e, f, of_term=1e-7)


@pytest.mark.parametrize("mode", MODES[1:], ids=MODE_IDS[1:])
def test_squared_distances_exactly_on_a_node(backend, mode):
    """A node's value is the table's first coefficient, ``scipy``'s own
    number: the first node (the table's first entry), perfect squares up the
    octaves, and the last node inside the cutoff."""
    alpha, cutoff = mode
    x = np.array([1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 7.0])
    x = x[x < cutoff]
    r2, e, f = through(backend, alpha, cutoff, x)
    at = interval_of(r2)
    assert at[0] == 0 and np.array_equal(interval_nodes(at.max())[at], r2)
    want_e, want_f = exact(alpha, r2)
    # the Coulomb constant is multiplied in by the kernel and divided out here
    assert np.allclose(e, want_e, rtol=1e-15, atol=0.0)
    assert np.allclose(f, want_f, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "mode", [*MODES[1:], CONFIGS[-1]], ids=[*MODE_IDS[1:], CONFIG_IDS[-1]]
)
def test_first_and_last_interval_and_both_sides_of_each_end(backend, mode):
    alpha, cutoff = mode
    just_inside = np.nextafter(cutoff, 0.0)
    # the last interval with anything inside the cutoff: the table's last,
    # or the one before it when cutoff² is itself a node (both occur here)
    last = int(interval_of(just_inside * just_inside))
    assert len(ewald_table(alpha, cutoff)) - last in (1, 2)
    x = np.array([
        1.0, np.sqrt(np.nextafter(interval_nodes(1)[1], 0.0)),  # the first interval's ends
        np.sqrt(interval_nodes(last)[-1]) * (1 + 1e-15), just_inside,  # the last one's
        np.nextafter(1.0, 0.0), 0.9, 0.5,  # under the first node: the expressions
    ])
    r2, e, f = through(backend, alpha, cutoff, x)
    assert list(interval_of(r2[:4])) == [0, 0, last, last]
    assert np.all(r2[4:] < R2_FIRST)
    assert_within_bounds(alpha, r2[:4], e[:4], f[:4])
    want_e, want_f = exact(alpha, r2[4:])
    assert np.allclose(e[4:], want_e, rtol=1e-14, atol=0.0)
    assert np.allclose(f[4:], want_f, rtol=1e-14, atol=0.0)
    # at the cutoff and beyond it - inside the LJ cutoff or not - no term
    beyond = np.array([cutoff, np.nextafter(cutoff, 9.0), cutoff + 0.4, cutoff + 3.0])
    _, e, f = through(backend, alpha, cutoff, beyond)
    assert not e.any() and not f.any()


def test_the_table_is_shared_read_only_and_line_aligned():
    table = ewald_table(*DEFAULT)
    assert table is ewald_table(*DEFAULT)
    assert table.shape == (int(interval_of(DEFAULT[1] ** 2)) + 1, 8)
    assert table.ctypes.data % 64 == 0 and table.flags.c_contiguous
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        ewald_table(0.3, 0.9)  # a cutoff under the first node


@pytest.mark.parametrize("keep", [0, 1, -1], ids=["empty", "one", "all-but-last"])
def test_a_table_short_of_the_reach_is_an_error_not_a_read(backend, monkeypatch, keep):
    """Both kernels find their table through their module's ``ewald_table``;
    handed one that stops short of the cutoff's interval, ``c`` refuses
    before it evaluates anything and numpy at the first interval past the
    end — and the canary line behind the short table is never a result."""
    alpha, cutoff = 0.4, 7.3  # cutoff² inside the table's last interval
    full = ewald_table(alpha, cutoff)
    n = keep % len(full)
    short = np.full((n + 1, 8), np.nan)
    short[:n] = full[:n]
    module = c_backend if backend.name == "c" else reference
    monkeypatch.setattr(module, "ewald_table", lambda a, c: short[:n])
    x = np.array([np.sqrt(interval_nodes(n)[-1]) + 1e-3])  # in the first missing interval
    with pytest.raises((ValueError, IndexError)):
        through(backend, alpha, cutoff, x)
    if backend.name == "c":  # and refuses whatever the pairs are
        with pytest.raises(ValueError, match="short of the real-space cutoff"):
            through(backend, alpha, cutoff, np.array([1.5]))
        forces = np.zeros((2, 3))
        with pytest.raises(ValueError, match="short of the real-space cutoff"):
            backend.nb_pairs(
                np.array([[0.0, 0, 0], [1.5, 0, 0]]), np.full(3, 50.0), np.array([0]),
                np.array([1]), np.zeros(1), np.ones(1), np.ones(1), CUTOFF, SWITCH,
                forces, np.array([0]), np.array([1]), alpha, cutoff,
            )
        assert not forces.any()
