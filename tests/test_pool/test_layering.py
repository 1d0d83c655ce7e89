"""The import contract: ``repro.pool`` is a cycle-free, MD-free layer, and
the other layering rules of ``tools/check_layering.py``."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO / "tools" / "check_layering.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_pool_package_imports_no_domain_layer():
    # static AST sweep over every repro.pool module (catches lazy imports)
    mod = load_checker()
    assert mod.check() == []


def plant_step_path(mod, tmp_path, monkeypatch, module, source):
    """A source tree whose step-path modules (and the minimizer) only
    import the reference force functions, but for ``module``, which is
    ``source``."""
    md = tmp_path / "repro" / "md"
    md.mkdir(parents=True)
    for name in ("engine", "parallel", "tasks", "jobs", "minimize"):
        (md / f"{name}.py").write_text(
            "from repro.md.ewald import compute_ewald  # noqa: F401\n"
        )
    (md / f"{module}.py").write_text(source)
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "FORBIDDEN", {})


def test_checker_catches_a_driver_side_force_call(tmp_path, monkeypatch):
    mod = load_checker()
    plant_step_path(
        mod, tmp_path, monkeypatch, "engine",
        "from repro.md.bonded import compute_bonded  # noqa: F401\n"
        "def compute_forces(system):\n"
        "    return compute_bonded(system)\n",
    )
    (violation,) = mod.check()
    assert "engine.py:3" in violation and "compute_bonded" in violation


@pytest.mark.parametrize("module", ["parallel", "tasks", "jobs", "minimize"])
def test_checker_catches_a_force_call_on_the_step_path(tmp_path, monkeypatch, module):
    """A driver-side branch below the engine — the front end, the tasks or
    the job adapter evaluating a reference force function — is caught too,
    and so is a minimizer that evaluates its trials off the engine."""
    mod = load_checker()
    plant_step_path(
        mod, tmp_path, monkeypatch, module,
        "import repro.md.ewald as ewald\n"
        "def slow_forces(system):\n"
        "    return ewald.compute_ewald(system).forces\n",
    )
    (violation,) = mod.check()
    assert f"{module}.py:3" in violation and "compute_ewald" in violation


def test_checker_catches_a_backend_reaching_into_md(tmp_path, monkeypatch):
    """Exclusions and LJ tables cross the kernel contract as arrays: a
    kernel that imports the md types instead — lazily included — is a
    violation."""
    mod = load_checker()
    kernel = tmp_path / "repro" / "backend" / "reference.py"
    kernel.parent.mkdir(parents=True)
    kernel.write_text(
        "import numpy as np\n"
        "from repro.util.pbc import minimum_image  # noqa: F401\n"
        "def block_pairs(system):\n"
        "    from repro.md.topology import Exclusions  # noqa: F401\n"
        "    import repro.costmodel.model  # noqa: F401\n"
    )
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    first, second = mod.check()
    assert "reference.py:4" in first and "repro.md.topology" in first
    assert "reference.py:5" in second and "repro.costmodel.model" in second


def test_checker_catches_the_service_placing_jobs_with_a_balancer(
    tmp_path, monkeypatch
):
    """The service runs slices from one queue: a scheduler that reaches
    for the balancer, the WorkDB or the simulator again is a violation."""
    mod = load_checker()
    scheduler = tmp_path / "repro" / "service" / "scheduler.py"
    scheduler.parent.mkdir(parents=True)
    scheduler.write_text(
        "from repro.md.jobs import SimJob  # noqa: F401\n"
        "from repro.pool.lease import WorkerBudget  # noqa: F401\n"
        "def plan(jobs):\n"
        "    from repro.instrument.workdb import WorkDB  # noqa: F401\n"
        "    import repro.balancer.strategies  # noqa: F401\n"
        "    from repro.core import simulation  # noqa: F401\n"
    )
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    found = mod.check()
    assert len(found) == 3
    for line, name in zip(
        (4, 5, 6), ("repro.instrument.workdb", "repro.balancer", "repro.core")
    ):
        assert any(f"scheduler.py:{line}" in v and name in v for v in found), found


def test_checker_catches_the_pool_reading_the_simulated_runtime(
    tmp_path, monkeypatch
):
    """The pool reads the one fault plan from ``repro.util``: a pool module
    that reaches into the simulated runtime or the simulation driver for
    it again — lazily too — is a violation."""
    mod = load_checker()
    resilience = tmp_path / "repro" / "pool" / "resilience.py"
    resilience.parent.mkdir(parents=True)
    resilience.write_text(
        "from repro.util.faults import FaultPlan  # noqa: F401\n"
        "def parse(spec):\n"
        "    from repro.runtime.faults import SlowdownWindow  # noqa: F401\n"
        "    import repro.core.simulation  # noqa: F401\n"
    )
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    first, second = mod.check()
    assert "resilience.py:3" in first and "repro.runtime.faults" in first
    assert "resilience.py:4" in second and "repro.core.simulation" in second


def test_checker_catches_a_builder_reaching_above_md(tmp_path, monkeypatch):
    """A builder imports only ``repro.md`` and ``repro.util``: one that
    reaches for the pool, the service, the simulated machine or the cost
    model — lazily too — is a violation."""
    mod = load_checker()
    water = tmp_path / "repro" / "builder" / "water.py"
    water.parent.mkdir(parents=True)
    banned = (
        "repro.pool.runtime", "repro.service.api", "repro.runtime.machine",
        "repro.core.simulation", "repro.balancer.strategies",
        "repro.instrument.workdb", "repro.costmodel.model",
    )
    water.write_text(
        "from repro.md.topology import Topology  # noqa: F401\n"
        "from repro.util.rng import make_rng  # noqa: F401\n"
        "def fill_water(asm):\n"
        + "".join(f"    import {name}  # noqa: F401\n" for name in banned)
    )
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    found = mod.check()
    assert len(found) == len(banned)
    for line, (violation, name) in enumerate(zip(found, banned), start=4):
        assert f"water.py:{line}" in violation and name in violation


def test_pool_package_imports_standalone():
    # dynamic confirmation: importing the package, reading a plan with every
    # clause a pool honours and running a 2-worker pool on it must pull no
    # domain layer — and not the simulated runtime — into sys.modules
    code = (
        "import sys\n"
        "from repro.pool import SupervisedPool, pool_fault_plan\n"
        "from tests.test_pool.synthetic import SyntheticProvider\n"
        "plan = pool_fault_plan('kill=1@5,hang=0@6x0.1,slow=0@1-3x2', 2)\n"
        "with SupervisedPool(SyntheticProvider(4), 2, [0, 0, 1, 1],"
        " fault_plan=plan):\n"
        "    pass\n"
        "bad = sorted(m for m in sys.modules if m.startswith(('repro.runtime',"
        " 'repro.core', 'repro.balancer', 'repro.instrument', 'repro.md')))\n"
        "assert not bad, bad\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr


def test_checker_script_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_layering.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
