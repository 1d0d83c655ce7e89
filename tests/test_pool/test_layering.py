"""The import contract: ``repro.pool`` is a cycle-free, MD-free layer."""

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
    """A source tree whose step-path modules only import the reference
    force functions, but for ``module``, which is ``source``."""
    md = tmp_path / "repro" / "md"
    md.mkdir(parents=True)
    for name in ("engine", "parallel", "tasks", "jobs"):
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


@pytest.mark.parametrize("module", ["parallel", "tasks", "jobs"])
def test_checker_catches_a_force_call_on_the_step_path(tmp_path, monkeypatch, module):
    """A driver-side branch below the engine — the front end, the tasks or
    the job adapter evaluating a reference force function — is caught too."""
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


def test_pool_package_imports_standalone():
    # dynamic confirmation: importing the package must not pull repro.md
    # (or the balancer/instrument layers) into sys.modules
    code = (
        "import sys, repro.pool; "
        "bad = [m for m in sys.modules if m.startswith("
        "('repro.md', 'repro.balancer', 'repro.instrument'))]; "
        "assert not bad, bad"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_checker_script_runs_clean():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_layering.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
