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
    """The service runs slices from one queue on its own lane threads: a
    scheduler that reaches for the balancer, the WorkDB, the simulator or
    the pool again — or regrows an event loop or an executor — is a
    violation; the engine adapter stays allowed."""
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
        "import asyncio  # noqa: F401\n"
        "from concurrent.futures import ThreadPoolExecutor  # noqa: F401\n"
        "import repro.pool  # noqa: F401\n"
    )
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    found = mod.check()
    expected = {
        2: "repro.pool.lease",
        4: "repro.instrument.workdb",
        5: "repro.balancer",
        6: "repro.core",
        7: "asyncio",
        8: "concurrent.futures",
        9: "repro.pool",
    }
    assert len(found) == len(expected), found
    for line, name in expected.items():
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


@pytest.mark.parametrize(
    "module",
    ["repro.md.system", "repro.md.engine", "repro.md.lb_driver", "repro.costmodel"],
)
def test_engine_loads_no_simulator(module):
    # dynamic confirmation of "repro/md imports no repro.core": the engine,
    # its balancing driver and the cost model both runtimes share load the
    # simulated machine's driver neither directly nor through a package
    # __init__
    code = (
        "import sys\n"
        f"import {module}\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.core'))\n"
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


def test_checker_catches_the_engine_importing_the_simulator(
    tmp_path, monkeypatch
):
    """The engine shares only what lives below both runtimes (binning in
    ``repro.md.cells``, grainsize and costs in ``repro.costmodel``): an md
    module that reaches into ``repro.core`` for them again — lazily too —
    is a violation."""
    mod = load_checker()
    tasks = tmp_path / "repro" / "md" / "tasks.py"
    tasks.parent.mkdir(parents=True)
    tasks.write_text(
        "from repro.md.cells import bin_atoms  # noqa: F401\n"
        "from repro.costmodel.grainsize import GrainsizeConfig  # noqa: F401\n"
        "from repro.core.grainsize import stripe_candidate_counts  # noqa: F401\n"
        "def build(system):\n"
        "    from repro.core.simulation import DEFAULT_COST_MODEL  # noqa: F401\n"
    )
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    first, second = mod.check()
    assert "tasks.py:3" in first and "repro.core.grainsize" in first
    assert "tasks.py:5" in second and "repro.core.simulation" in second


def test_checker_catches_the_simulator_and_the_workdb_reaching_across(
    tmp_path, monkeypatch
):
    """The simulator sums its own loads and the WorkDB serves the real
    engine alone: a simulator module that reads the WorkDB again, or a
    measurement module that reaches into the simulator, the engine, the
    pool or the service — lazily too — is a violation."""
    mod = load_checker()
    planted = {
        "runtime/scheduler.py": ("repro.instrument.workdb",),
        "core/simulation.py": ("repro.instrument",),
        "instrument/workdb.py": (
            "repro.runtime.scheduler", "repro.core.simulation",
            "repro.md.parallel", "repro.pool.runtime", "repro.service.api",
        ),
    }
    for module, banned in planted.items():
        path = tmp_path / "repro" / module
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "from repro.balancer.problem import LBProblem  # noqa: F401\n"
            "def measure():\n"
            + "".join(f"    import {name}  # noqa: F401\n" for name in banned)
        )
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    found = mod.check()
    expected = [
        (module, line, name)
        for module, banned in planted.items()
        for line, name in enumerate(banned, start=3)
    ]
    assert len(found) == len(expected), found
    for module, line, name in expected:
        assert any(
            f"{module}:{line}" in v and name in v for v in found
        ), (module, name, found)


def test_checker_catches_a_simulated_fault_path_and_upward_imports(
    tmp_path, monkeypatch
):
    """The fault plan is the supervised pool's alone: a simulator, driver or
    analysis module that reads it again is a violation, and so are a
    utility that imports any other ``repro`` package and a cost model that
    reaches above itself — lazily too."""
    mod = load_checker()
    planted = {
        "runtime/scheduler.py": ("repro.util.faults",),
        "core/simulation.py": ("repro.util.faults",),
        "analysis/audit.py": ("repro.util.faults",),
        "util/faults.py": (
            "repro.analysis", "repro.backend.base", "repro.balancer",
            "repro.baselines", "repro.builder", "repro.cli", "repro.core",
            "repro.costmodel.model", "repro.instrument", "repro.md.system",
            "repro.pool.resilience", "repro.runtime", "repro.service",
        ),
        "costmodel/model.py": (
            "repro.md.cells", "repro.pool", "repro.service.jobs",
            "repro.core.problem", "repro.runtime.machine",
            "repro.instrument.workdb", "repro.balancer.problem",
        ),
    }
    for module, banned in planted.items():
        path = tmp_path / "repro" / module
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "import math  # noqa: F401\n"
            "def helper():\n"
            + "".join(f"    import {name}  # noqa: F401\n" for name in banned)
        )
    # what stays allowed: the pool reads the plan, a utility its siblings,
    # the cost model the kernels
    allowed = {
        "pool/resilience.py": "repro.util.faults",
        "util/__init__.py": "repro.util.pbc",
        "costmodel/grainsize.py": "repro.backend",
    }
    for module, name in allowed.items():
        path = tmp_path / "repro" / module
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"import {name}  # noqa: F401\n")
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    found = mod.check()
    expected = [
        (module, line, name)
        for module, banned in planted.items()
        for line, name in enumerate(banned, start=3)
    ]
    assert len(found) == len(expected), found
    for module, line, name in expected:
        assert any(
            f"{module}:{line}" in v and name in v for v in found
        ), (module, name, found)


def test_checker_catches_the_cli_building_a_run_itself(tmp_path, monkeypatch):
    """``repro md`` builds its run through ``repro.md.jobs`` alone: a CLI
    that constructs an engine, an integrator or nonbonded options, restores
    a run checkpoint or parses a fault plan with the pool again — lazily
    too — is a violation; the job adapter and the rest stay allowed."""
    mod = load_checker()
    cli = tmp_path / "repro" / "cli.py"
    cli.parent.mkdir(parents=True)
    banned = (
        "repro.md.engine", "repro.md.integrator", "repro.md.nonbonded",
        "repro.runtime.checkpoint", "repro.pool",
    )
    cli.write_text(
        "from repro.md.jobs import SimJob, SimSpec  # noqa: F401\n"
        "from repro.runtime.machine import MACHINES  # noqa: F401\n"
        "def cmd_md(args):\n"
        + "".join(f"    import {name}  # noqa: F401\n" for name in banned)
    )
    monkeypatch.setattr(mod, "SRC", tmp_path)
    monkeypatch.setattr(mod, "UNUSED", {})
    found = mod.check()
    assert len(found) == len(banned), found
    for line, (violation, name) in enumerate(zip(found, banned), start=4):
        assert f"cli.py:{line}" in violation and name in violation
