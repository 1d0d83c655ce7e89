"""Benchmark fixtures: the paper's systems, decomposed once and disk-cached.

Building a :class:`DecomposedProblem` for ApoA-I / BC1 requires exact pair
counting over every patch pair (tens of seconds), but is deterministic per
seed — so it is pickled under ``.bench_cache/`` (untracked) and reused
across the benchmark session and across runs.  Delete the directory to
force a rebuild; a file that fails to load is rebuilt and overwritten.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.builder.benchmarks import apoa1_like, bc1_like, br_like
from repro.core.problem import DecomposedProblem
from repro.core.simulation import DEFAULT_COST_MODEL

CACHE_DIR = Path(__file__).parent / ".bench_cache"
RESULTS_DIR = Path(__file__).parent / "results"


def _cached_problem(
    name: str, build_system, cache_tag: str = "", **build_kwargs
) -> DecomposedProblem:
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{name}{'_' + cache_tag if cache_tag else ''}.pkl"
    if path.exists():
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError):
            # a truncated or stale pickle (classes moved since it was
            # written) is rebuilt and overwritten, never an error
            pass
    system = build_system()
    problem = DecomposedProblem.build(system, DEFAULT_COST_MODEL, **build_kwargs)
    with path.open("wb") as fh:
        pickle.dump(problem, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return problem


@pytest.fixture(scope="session")
def apoa1_problem() -> DecomposedProblem:
    """ApoA-I (92,224 atoms), default grainsize, split bonded."""
    return _cached_problem("apoa1", apoa1_like)


@pytest.fixture(scope="session")
def apoa1_problem_noselfsplit() -> DecomposedProblem:
    """ApoA-I with pair splitting disabled (the Figure 1 configuration)."""
    from repro.core.computes import GrainsizeConfig

    return _cached_problem(
        "apoa1",
        apoa1_like,
        cache_tag="nopairsplit",
        grainsize=GrainsizeConfig(split_self=True, split_pairs=False),
    )


@pytest.fixture(scope="session")
def apoa1_problem_merged_bonded() -> DecomposedProblem:
    """ApoA-I with the pre-§4.2.2 merged bonded objects (ablation A3)."""
    return _cached_problem(
        "apoa1", apoa1_like, cache_tag="mergedbonded", split_bonded=False
    )


@pytest.fixture(scope="session")
def bc1_problem() -> DecomposedProblem:
    """BC1 (206,617 atoms)."""
    return _cached_problem("bc1", bc1_like)


@pytest.fixture(scope="session")
def br_problem() -> DecomposedProblem:
    """bR (3,762 atoms)."""
    return _cached_problem("br", br_like)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(results_dir: Path, name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to the log."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
