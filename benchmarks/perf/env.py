"""Environment pinning and the host fingerprint every record carries."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: scratch space inside the checkout (job work dirs, child results, traces)
WORK = ROOT / ".perf_work"

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread per process; call before numpy is first imported.

    Driver-side BLAS threads would compete with the two pool workers for
    the two cores, and a multi-threaded OpenBLAS matmul on one service
    lane while another lane forks pool workers can spin forever (README,
    "Known defects").
    """
    for var in _BLAS_VARS:
        os.environ[var] = "1"


def add_src_to_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int) -> dict:
    """Where and with what a record was measured (needs ``repro`` importable)."""
    import numpy

    from repro.backend import get_backend
    from repro.util.cpus import available_cpu_count

    return {
        "git_sha": _git_sha(),
        "usable_cores": available_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in _BLAS_VARS},
        "numba_present": importlib.util.find_spec("numba") is not None,
        "backend": get_backend(None).name,
        "seed": seed,
    }
