"""Example scripts stay runnable (smoke tests via subprocess).

Only the fast examples run here; the heavyweight ones (full LB demos,
timeline traces) are exercised manually and via the benchmark suite, which
covers the same code paths.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    ("grainsize_study.py", "Amdahl corollary"),
    ("decomposition_comparison.py", "Communication / computation ratio"),
    ("ewald_electrostatics.py", "Madelung constant"),
    ("fault_tolerance_demo.py", "All fault-tolerance invariants hold."),
]


@pytest.mark.parametrize("script,marker", FAST_EXAMPLES)
def test_example_runs_and_produces_output(script, marker):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert marker in result.stdout


def test_all_examples_importable_as_scripts():
    """Every example compiles (syntax) without executing."""
    import py_compile

    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 9
    for script in scripts:
        py_compile.compile(str(script), doraise=True)
