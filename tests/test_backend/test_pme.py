"""Smooth PME: the reciprocal sum the engines evaluate, on both backends.

``pme_spread`` / ``pme_gather`` around one FFT pair (``repro.md.ewald.
pme_reciprocal``) approximate the classic reciprocal sum of
``compute_ewald`` over the same k-set.  Held here: that approximation at the
oracle's bound (``tests/test_md/oracle.py``) on every system the engines
are used on and at every kmax up to 8, with atoms on grid planes, on box
faces and outside the box; each term of the grid rule doing its part; the
two backends to each other at 1e-9; threads; and the kernels' refusals.
"""

import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.md.ewald as ewald_module
from repro.backend import available_backends, get_backend
from repro.backend.reference import PME_MAX_ORDER
from repro.builder import small_water_box
from repro.md.ewald import (
    MAX_KMAX,
    PME_ORDER,
    EwaldOptions,
    _pme_influence,
    pme_error,
    pme_grid_shape,
    pme_reciprocal,
)
from tests.test_md.oracle import PME_ENERGY_RTOL, PME_FORCE_RTOL, assert_pme_matches_classic
from tests.test_md.test_ewald import random_charges, rock_salt

BACKENDS = available_backends()
HAS_C = "c" in BACKENDS
RTOL = 1e-9


def non_cubic():
    system = small_water_box(216, seed=5, relax=False)
    stretch = np.array([1.0, 1.1, 1.25])
    system.positions = system.positions * stretch
    system.box = system.box * stretch
    return system


def charged():
    """A random charge set with a net charge of +10 e."""
    system = random_charges(40, 14.0, seed=2)
    system.charges = system.charges + 0.25
    return system


def off_lattice_salt():
    system = rock_salt(ncell=2)
    rng = np.random.default_rng(1)
    system.positions = system.positions + rng.normal(0.0, 0.2, system.positions.shape)
    return system


#: name -> (system factory, real-space cutoff): the harness's Ewald row,
#: two more water boxes, the assembly, a vacuum peptide in a 60 A box, rock
#: salt, a non-cubic box, and neutral and charged random charge sets
SYSTEMS = {
    "water343": (lambda: small_water_box(343, seed=11, relax=False), 8.0),
    "water216": (lambda: small_water_box(216, seed=3, relax=False), 6.0),
    "water729": (lambda: small_water_box(729, seed=2, relax=False), 8.0),
    "assembly": (None, 8.0),  # the session fixture
    "peptide": (None, 10.0),  # the session fixture
    "nacl": (off_lattice_salt, 5.6),
    "non-cubic": (non_cubic, 6.0),
    "neutral": (lambda: random_charges(40, 14.0, seed=2), 6.0),
    "charged": (charged, 6.0),
}


@pytest.fixture(scope="module")
def systems(assembly, peptide):
    fixtures = {"assembly": assembly, "peptide": peptide}
    return {
        name: fixtures[name] if factory is None else factory()
        for name, (factory, _) in SYSTEMS.items()
    }


def influence_of(system, options):
    return _pme_influence(system.box, options.kmax, options.alpha_value())


def evaluate(system, options, backend):
    forces = np.zeros((system.n_atoms, 3))
    energy, _ = pme_reciprocal(
        system.positions, system.charges, system.box,
        influence_of(system, options), forces, backend,
    )
    return energy, forces


def assert_close(got, expected, rtol=RTOL):
    assert got[0] == pytest.approx(expected[0], rel=rtol, abs=1e-12)
    scale = max(np.abs(expected[1]).max(), 1e-12)
    assert np.abs(got[1] - expected[1]).max() <= rtol * scale


@pytest.mark.parametrize("kmax", range(1, 9))
@pytest.mark.parametrize("name", list(SYSTEMS))
def test_within_the_bound_of_the_classic_sum_on_both_backends(systems, name, kmax):
    """The stated bound, measured: energy within 1e-5 relative, RMS force
    error within 1e-4 of the RMS force; and ``c`` against numpy at 1e-9."""
    system = systems[name]
    options = EwaldOptions(cutoff=SYSTEMS[name][1], kmax=kmax)
    results = {name: evaluate(system, options, get_backend(name)) for name in BACKENDS}
    for energy, forces in results.values():
        assert_pme_matches_classic(system, options, energy, forces, get_backend())
    if HAS_C:
        assert_close(results["c"], results["numpy"])


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("where", ["grid-planes", "box-faces", "outside"])
def test_atoms_on_planes_faces_and_outside_the_box(systems, backend, where):
    """An atom exactly on a grid plane (its spline fraction 0), on a box face
    (``x = L`` is ``x = 0``) or outside ``[0, L)`` is its periodic image:
    the same result as the wrapped system, and the classic sum's."""
    system = systems["neutral"].copy()
    options = EwaldOptions(cutoff=6.0, kmax=4)
    shape = np.array(pme_grid_shape(system.box, options.kmax))
    rng = np.random.default_rng(3)
    pos = system.positions
    if where == "grid-planes":
        pos[:] = rng.integers(0, shape, pos.shape) * (system.box / shape)
        pos[:, 2] = pos[:, 2] + rng.uniform(0.0, 1.0, len(pos))  # distinct atoms
    elif where == "box-faces":
        pos[::2, 0] = 0.0
        pos[1::2, 0] = system.box[0]
        pos[::3, 1] = system.box[1]
    else:
        pos += rng.integers(-3, 4, pos.shape) * system.box
        pos[0] = -1e-17  # rounds to the face from below
    be = get_backend(backend)
    got = evaluate(system, options, be)
    wrapped = system.copy()
    wrapped.wrap()
    assert_close(got, evaluate(wrapped, options, be))
    error = pme_error(system, options, be)
    assert error["energy"] <= PME_ENERGY_RTOL and error["force"] <= PME_FORCE_RTOL


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    kmax=st.integers(1, 6),
    edges=st.tuples(*[st.floats(8.0, 30.0)] * 3),
    neutral=st.booleans(),
)
def test_backends_agree_on_any_charge_set(n, seed, kmax, edges, neutral):
    """Arbitrary boxes and charges, atoms anywhere (a third of them outside
    the box): ``c`` against numpy at 1e-9, and the spread grid holds the
    total charge."""
    rng = np.random.default_rng(seed)
    box = np.array(edges)
    pos = rng.uniform(-1.0, 2.0, (n, 3)) * box
    q = rng.normal(0.0, 1.0, n)
    if neutral and n > 1:
        q -= q.mean()
    shape = pme_grid_shape(box, kmax)
    potential = rng.normal(0.0, 1.0, shape)
    results = {}
    for name in BACKENDS:
        be = get_backend(name)
        grid = np.empty(shape)
        be.pme_spread(pos, q, box, grid, PME_ORDER)
        assert grid.sum() == pytest.approx(q.sum(), abs=1e-9 * np.abs(q).sum())
        forces = np.zeros((n, 3))
        energy = be.pme_gather(pos, q, box, potential, PME_ORDER, forces)
        results[name] = (grid, energy, forces)
    if HAS_C:
        (g_c, e_c, f_c), (g_n, e_n, f_n) = results["c"], results["numpy"]
        # the spread is the same weights summed in the same order: same bits
        assert np.array_equal(g_c, g_n)
        assert_close((e_c, f_c), (e_n, f_n))


@pytest.mark.parametrize(
    "rule, name, kmax, bound",
    [
        # 8 points a wavelength alone: 16 points at kmax 2
        ({"PME_MIN_POINTS": 0, "PME_MAX_SPACING": 1e9}, "water343", 2, "force"),
        # the floor at 24 instead of 32: 24 points at kmax 3
        ({"PME_MIN_POINTS": 24}, "water343", 3, "energy"),
        # no spacing term: 32 points across the peptide's 60 A at kmax 4
        ({"PME_MAX_SPACING": 1e9}, "peptide", 4, "energy"),
    ],
    ids=["eight-a-wavelength-alone", "floor-24", "no-spacing"],
)
def test_each_term_of_the_grid_rule_is_needed(systems, monkeypatch, rule, name, kmax, bound):
    """Without it the bound breaks on some system of the matrix, where with
    it (the test above) it holds."""
    system = systems[name]
    options = EwaldOptions(cutoff=SYSTEMS[name][1], kmax=kmax)
    limit = {"energy": PME_ENERGY_RTOL, "force": PME_FORCE_RTOL}[bound]
    assert pme_error(system, options)[bound] <= limit
    for constant, value in rule.items():
        monkeypatch.setattr(ewald_module, constant, value)
    assert pme_error(system, options)[bound] > limit


@pytest.mark.parametrize("backend", BACKENDS)
def test_kmax_zero_is_no_task_and_no_energy(backend):
    from repro.md.engine import SequentialEngine
    from repro.md.nonbonded import NonbondedOptions

    system = small_water_box(64, seed=3, relax=False)
    ewald = EwaldOptions(cutoff=6.0, kmax=0)
    engine = SequentialEngine(system, NonbondedOptions(cutoff=6.0), ewald=ewald, backend=backend)
    engine.compute_forces()
    assert len(engine._nb._kspace_ids) == 0
    assert engine._nb.last_ewald.energy_recip == 0.0
    assert engine.kspace_cache_stats() == {"builds": 0, "hits": 0}


@pytest.mark.parametrize("kmax", [0, -1, MAX_KMAX + 1])
def test_the_table_builder_refuses_kmax_outside_its_range(kmax):
    with pytest.raises(ValueError, match="kmax"):
        _pme_influence(np.full(3, 20.0), kmax, 0.3)


def test_the_largest_kmax_is_a_128_point_grid():
    assert pme_grid_shape(np.full(3, 20.0), MAX_KMAX) == (128, 128, 128)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "order, shape",
    [(PME_ORDER, (5, 32, 32)), (PME_ORDER, (32, 32, 5)), (PME_MAX_ORDER + 1, (32,) * 3),
     (1, (32,) * 3)],
    ids=["K0-below-order", "K2-below-order", "order-above-max", "order-below-2"],
)
def test_refusals_write_nothing(backend, order, shape):
    """An axis shorter than the order, or an order outside [2, max], is an
    error before anything is written."""
    be = get_backend(backend)
    pos = np.random.default_rng(0).uniform(0.0, 10.0, (6, 3))
    q = np.ones(6)
    box = np.full(3, 10.0)
    grid = np.full(shape, 7.0)
    with pytest.raises(ValueError, match="order"):
        be.pme_spread(pos, q, box, grid, order)
    assert np.all(grid == 7.0)
    forces = np.full((6, 3), 7.0)
    with pytest.raises(ValueError, match="order"):
        be.pme_gather(pos, q, box, grid, order, forces)
    assert np.all(forces == 7.0)


@pytest.mark.parametrize("order", [2, PME_ORDER, PME_MAX_ORDER])
def test_every_order_up_to_the_maximum_is_served_alike(order):
    """The kernels' shared maximum: each backend takes it, and they agree."""
    system = small_water_box(27, seed=1, relax=False)
    atoms = (system.positions, system.charges, system.box)
    grids, gathered = [], []
    for name in BACKENDS:
        be = get_backend(name)
        grid = np.empty((12, 13, 14))
        be.pme_spread(*atoms, grid, order)
        forces = np.zeros((system.n_atoms, 3))
        gathered.append((be.pme_gather(*atoms, grid, order, forces), forces))
        grids.append(grid)
    assert grids[0].sum() == pytest.approx(system.charges.sum(), abs=1e-12)
    for grid, result in zip(grids[1:], gathered[1:]):
        assert np.array_equal(grid, grids[0])
        assert_close(result, gathered[0])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("backend", BACKENDS)
def test_non_finite_coordinates_give_nan_not_a_wild_index(backend):
    """A blown-up coordinate reads grid point 0 with NaN weights, as the
    classic sum gives NaN: no index leaves the grid."""
    be = get_backend(backend)
    pos = np.array([[1.0, 2.0, 3.0], [np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0]])
    grid = np.empty((32, 32, 32))
    be.pme_spread(pos, np.ones(3), np.full(3, 10.0), grid, PME_ORDER)
    assert np.isnan(grid).any()
    forces = np.zeros((3, 3))
    energy = be.pme_gather(pos, np.ones(3), np.full(3, 10.0), np.ones_like(grid), PME_ORDER, forces)
    assert np.isnan(energy)


@pytest.mark.parametrize("backend", BACKENDS)
def test_four_threads_on_disjoint_systems_reproduce_the_serial_bits(backend):
    """The kernels keep no state and release the GIL (``c``); each thread
    builds its own table."""
    be = get_backend(backend)
    options = EwaldOptions(cutoff=6.0, kmax=4)
    parts = [small_water_box(64, seed=seed, relax=False) for seed in range(4)]

    def run(system, out):
        grid, influence = None, influence_of(system, options)
        for _ in range(10):
            forces = np.zeros((system.n_atoms, 3))
            energy, grid = pme_reciprocal(
                system.positions, system.charges, system.box, influence,
                forces, be, grid,
            )
            out[:] = [(energy, forces)]

    serial = [[None] for _ in parts]
    for system, out in zip(parts, serial):
        run(system, out)
    threaded = [[None] for _ in parts]
    threads = [
        threading.Thread(target=run, args=(system, out))
        for system, out in zip(parts, threaded)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for (got,), (expected,) in zip(threaded, serial):
        assert got[0] == expected[0] and np.array_equal(got[1], expected[1])


def test_cutoff_mode_never_imports_the_fft():
    """Only the Ewald path pays for ``scipy.fft`` (imported by the driver,
    before a pool forks)."""
    code = (
        "import sys\n"
        "from repro.builder import small_water_box\n"
        "from repro.md.engine import make_engine\n"
        "from repro.md.nonbonded import NonbondedOptions\n"
        "with make_engine(small_water_box(64, seed=1, relax=False),"
        " NonbondedOptions(cutoff=6.0)) as engine:\n"
        "    engine.run(2)\n"
        "print('scipy.fft' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**__import__("os").environ, "PYTHONPATH": ":".join(sys.path)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
