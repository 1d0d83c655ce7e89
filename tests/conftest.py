"""Shared fixtures: small systems that build in well under a second.

The giant paper benchmarks (92k/206k atoms) are exercised only by the
benchmark harness, not the unit tests; tests use miniature systems with the
same structure.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import threading

import numpy as np
import pytest

from repro.builder import skewed_water_box, small_water_box, tiny_peptide
from repro.builder.benchmarks import mini_assembly

#: ``REPRO_TEST_SEED=<seed>`` runs the suite in a shuffled order, the same
#: for the same seed: to prove no test depends on another having run first
SHUFFLE_SEED = os.environ.get("REPRO_TEST_SEED")


def pytest_report_header(config):
    if SHUFFLE_SEED:
        return f"test order: shuffled with REPRO_TEST_SEED={SHUFFLE_SEED}"


def pytest_collection_modifyitems(config, items):
    """Shuffle modules, then the classes of each module, then the tests of
    each class: every order is reachable that keeps a module's (or a
    class's) tests together, so each module fixture is still built once."""
    if not SHUFFLE_SEED:
        return
    rng = random.Random(SHUFFLE_SEED)

    def shuffled_groups(group, key):
        groups: dict = {}
        for item in group:
            groups.setdefault(key(item), []).append(item)
        order = list(groups.values())
        rng.shuffle(order)
        return order

    shuffled = []
    for module in shuffled_groups(items, lambda item: item.nodeid.split("::")[0]):
        for cls in shuffled_groups(module, lambda item: getattr(item, "cls", None)):
            rng.shuffle(cls)
            shuffled += cls
    items[:] = shuffled


@pytest.fixture(scope="session", autouse=True)
def no_worker_outlives_the_session():
    """Fail the session when an engine's executor thread or worker process
    is still alive at its end: something was neither closed nor collected."""
    yield
    gc.collect()  # an engine dropped without close() closes when collected
    left = [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-executor-")
    ] + [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith("repro-pool-worker-")
    ]
    assert not left, f"workers outlived the test session: {left}"


@pytest.fixture(scope="session")
def water64():
    """A relaxed 64-molecule water box (192 atoms)."""
    return small_water_box(64, seed=3)


@pytest.fixture(scope="session")
def water100():
    """A relaxed 100-molecule water box (300 atoms)."""
    return small_water_box(100, seed=4)


@pytest.fixture(scope="session")
def peptide():
    """A 5-residue vacuum peptide."""
    return tiny_peptide(5, seed=11)


@pytest.fixture(scope="session")
def assembly():
    """The 3,100-atom protein+lipid+water mini assembly (2x2x2 patches)."""
    return mini_assembly()


@pytest.fixture(scope="session")
def water150():
    """A relaxed 150-molecule water box (450 atoms)."""
    return small_water_box(150, seed=3)


@pytest.fixture(scope="session")
def water216():
    """An unrelaxed 216-molecule water box (648 atoms, 18.6 Å): 2x2x2 task
    cells at any list radius from 6.3 to 9.3 Å."""
    return small_water_box(216, seed=3, relax=False)


@pytest.fixture(scope="session")
def skewed300():
    """300 unrelaxed waters, three times denser in one half of the box."""
    return skewed_water_box(300, seed=3, skew=3.0, relax=False)


@pytest.fixture(scope="session")
def water400():
    """An unrelaxed 400-molecule water box (1,200 atoms)."""
    return small_water_box(400, seed=11, relax=False)


@pytest.fixture(scope="session")
def water600():
    """An unrelaxed 600-molecule water box (1,800 atoms): 2x2x2 task cells
    at 8 + 1.5 Å."""
    return small_water_box(600, seed=7, relax=False)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
