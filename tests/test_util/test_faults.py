"""The supervised pool's fault-plan grammar.

One row per spec: what ``pool_fault_plan`` for 4 workers (``<when>`` an
evaluation index) accepts, field by field, or the refusal it raises, which
names the clause.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pool import pool_fault_plan
from repro.util.faults import (
    FaultPlan,
    ProcessorFailure,
    ProcessorHang,
    SlowdownWindow,
)

INF = math.inf


def fields(plan: FaultPlan) -> dict:
    """Every field a clause can set, the unset ones left out."""
    return {
        key: [astuple(f) for f in faults]
        for key, faults in (
            ("kill", plan.failures), ("hang", plan.hangs),
            ("slow", plan.slowdowns),
        )
        if faults
    }


NOT_A_STEP = "a pool step is a 1-based evaluation index"
BAD = "bad fault clause"
UNKNOWN = "unknown fault clause key"

#: spec -> the fields the pool reads, or a substring of the ValueError it
#: raises
TABLE = [
    ("", {}),
    # the full grammar
    (
        "kill=1@3,hang=0@5x2.5,slow=1@2-6x8",
        {"kill": [(1, 3)], "hang": [(0, 5, 2.5)], "slow": [(1, 2, 6, 8)]},
    ),
    (",kill=0@1,,", {"kill": [(0, 1)]}),
    ("hang=2@4", {"hang": [(2, 4, INF)]}),
    ("hang=2@4x", {"hang": [(2, 4, INF)]}),
    ("slow=0@0-infx3", {"slow": [(0, 0, INF, 3)]}),
    ("slow=0@1.5-3.5x2", {"slow": [(0, 1.5, 3.5, 2)]}),
    # steps: whole evaluation indices from 1 (3.0 reads as 3)
    ("kill=1@3.0", {"kill": [(1, 3)]}),
    ("kill=1@3.5", "'kill=1@3.5': " + NOT_A_STEP),
    ("kill=0@0", "'kill=0@0': " + NOT_A_STEP),
    ("hang=0@0.5x1", "'hang=0@0.5x1': " + NOT_A_STEP),
    # no seed and no message faults: a pool's workers exchange no
    # messages a plan could drop, delay or duplicate
    (
        "seed=7, kill=2@0.004, slow=1@0.1-0.2x3.0, "
        "drop=0.01, delay=0.02@1e-4, dup=0.005, retry=2e-5",
        "fault clause 'seed=7': " + UNKNOWN + " 'seed'",
    ),
    ("seed=3,,kill=0@1.0,", "fault clause 'seed=3'"),
    ("seed=0", "fault clause 'seed=0'"),
    ("drop=0.1", "fault clause 'drop=0.1': " + UNKNOWN + " 'drop'"),
    ("drop=0", "'drop=0': " + UNKNOWN),
    ("delay=0.02", "'delay=0.02': " + UNKNOWN),
    ("dup=0.5", "'dup=0.5'"),
    ("retry=1e-5,drop=0.1", "'retry=1e-5': " + UNKNOWN),
    # targets outside the pool
    ("kill=9@1", "targets worker 9, but the pool has 4 workers"),
    ("kill=-1@3", "targets worker -1"),
    ("slow=4@1-2x2", "'slow=4@1-2x2' targets worker 4"),
    ("hang=5@1", "'hang=5@1' targets worker 5"),
    # malformed
    ("kill", BAD + " 'kill' (expected key=value)"),
    ("1@2", BAD + " '1@2'"),
    ("explode=1", UNKNOWN + " 'explode'"),
    ("frob=1@2", UNKNOWN + " 'frob'"),
    ("kill=x@2", BAD + " 'kill=x@2'"),
    ("kill=1", BAD + " 'kill=1'"),
    ("slow=1@3x2", BAD + " 'slow=1@3x2'"),
    ("slow=0@1-0.5x2", "positive length"),
    ("slow=0@0-1x0", "factor must be positive"),
    ("hang=0@1x0", "duration must be positive"),
    ("drop=1.5", "'drop=1.5': " + UNKNOWN),
    ("delay=-0.1", "'delay=-0.1': " + UNKNOWN),
    ("dup=2.0", "'dup=2.0': " + UNKNOWN),
    ("seed=x", BAD + " 'seed=x'"),
    # numbers no pool can honour
    ("seed=1,drop=0.3,retry=-0.01", "'seed=1'"),
    ("delay=0.5@-1", "'delay=0.5@-1'"),
    ("slow=0@1-3xinf", "'slow=0@1-3xinf'"),
    ("hang=0@2xnan", "'hang=0@2xnan'"),
    ("slow=1@nan-4x2", "'slow=1@nan-4x2'"),
    ("slow=0@-1-2x2", "'slow=0@-1-2x2'"),
    ("slow=0@1-2xnan", "'slow=0@1-2xnan'"),
    ("kill=0@nan", "'kill=0@nan'"),
    ("kill=0@inf", "'kill=0@inf'"),
    ("kill=0@-0.5", "'kill=0@-0.5'"),
    ("hang=0@-2", "'hang=0@-2'"),
    ("delay=0.5@inf", "'delay=0.5@inf'"),
    ("retry=nan", "'retry=nan'"),
    ("drop=nan", "'drop=nan'"),
]


@pytest.mark.parametrize(
    "spec, on_pool", TABLE, ids=[row[0] or "<empty>" for row in TABLE]
)
def test_grammar_table(spec, on_pool):
    if isinstance(on_pool, str):
        with pytest.raises(ValueError, match=re.escape(on_pool)):
            pool_fault_plan(spec, n_workers=4)
    else:
        assert fields(pool_fault_plan(spec, n_workers=4)) == on_pool


def test_a_pool_of_unknown_size_checks_no_targets():
    """``SimSpec(workers=0)`` is one worker per CPU: no count to check."""
    assert pool_fault_plan("kill=9@1").failures == (ProcessorFailure(9, 1.0),)


def test_clauses_name_themselves():
    plan = FaultPlan.parse("kill=1@3,hang=0@5x2.5,hang=2@4,slow=0@0-infx3")
    clauses = [f.clause for f in (*plan.failures, *plan.hangs, *plan.slowdowns)]
    assert clauses == ["kill=1@3", "hang=0@5x2.5", "hang=2@4", "slow=0@0-infx3"]
    assert FaultPlan.parse(",".join(clauses)) == plan


#: quarters print exactly under ``:g``, so a clause names its fault exactly
QUARTERS = st.integers(0, 400).map(lambda q: q / 4)

FAULTS = st.one_of(
    st.builds(ProcessorFailure, st.integers(0, 7), st.integers(1, 10**6)),
    st.builds(
        ProcessorHang, st.integers(0, 7), st.integers(1, 10**6),
        st.one_of(st.just(INF), QUARTERS.filter(lambda q: q > 0)),
    ),
    QUARTERS.flatmap(
        lambda start: st.builds(
            SlowdownWindow, st.integers(0, 7), st.just(start),
            st.one_of(st.just(INF), QUARTERS.map(lambda q: start + 0.25 + q)),
            QUARTERS.filter(lambda q: q > 0),
        )
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(FAULTS, max_size=6))
def test_any_plan_parses_back_from_its_clauses(faults):
    """A plan built in code, written out clause by clause, parses to the
    same plan: the parser reads every value the types accept."""
    plan = FaultPlan(
        failures=tuple(f for f in faults if isinstance(f, ProcessorFailure)),
        hangs=tuple(f for f in faults if isinstance(f, ProcessorHang)),
        slowdowns=tuple(f for f in faults if isinstance(f, SlowdownWindow)),
    )
    spec = ",".join(f.clause for f in faults)
    assert FaultPlan.parse(spec) == plan


def test_built_faults_validate():
    for build in (
        lambda: SlowdownWindow(0, 1.0, 0.5, 2.0),  # end before start
        lambda: SlowdownWindow(0, 0.0, 1.0, 0.0),  # factor must be positive
        lambda: ProcessorHang(0, 1.0, 0.0),
        lambda: ProcessorHang(0, 0.5),  # not an evaluation index
        lambda: ProcessorFailure(0, 2.5),
        lambda: ProcessorFailure(0, 0.0),
    ):
        with pytest.raises(ValueError):
            build()


def test_slowdown_factor_multiplies_overlaps():
    plan = FaultPlan(
        slowdowns=(
            SlowdownWindow(0, 0.0, 1.0, 2.0),
            SlowdownWindow(0, 0.5, 1.5, 3.0),
            SlowdownWindow(1, 0.0, 1.0, 10.0),
        )
    )
    assert plan.slowdown_factor(0, 0.25) == 2.0
    assert plan.slowdown_factor(0, 0.75) == 6.0
    assert plan.slowdown_factor(0, 1.25) == 3.0
    assert plan.slowdown_factor(0, 2.0) == 1.0
    assert plan.slowdown_factor(2, 0.5) == 1.0


#: one window on worker 0 over evaluations [2, 4), one open-ended from 3
WINDOWS = FaultPlan(
    slowdowns=(SlowdownWindow(0, 2.0, 4.0, 2.0), SlowdownWindow(0, 3.0, INF, 5.0))
)


@pytest.mark.parametrize(
    "when, factor",
    [(1.0, 1.0), (1.999, 1.0), (2.0, 2.0), (3.0, 10.0), (3.999, 10.0),
     (4.0, 5.0), (1e12, 5.0)],
)
def test_slowdown_window_is_half_open(when, factor):
    """A window slows the evaluations from its start up to, not including,
    its end; one that never ends slows every later evaluation."""
    assert WINDOWS.slowdown_factor(0, when) == factor
    assert WINDOWS.slowdown_factor(1, when) == 1.0


@pytest.mark.parametrize("clause", ["kill={w}@1", "hang={w}@1", "slow={w}@1-2x2"])
def test_targets_run_from_worker_zero_to_the_last(clause):
    """Of a pool of 4, worker 3 is the last a clause may aim at and 4 the
    first it may not, for every kind of fault."""
    plan = pool_fault_plan(clause.format(w=3), n_workers=4)
    assert [f.proc for f in (*plan.failures, *plan.hangs, *plan.slowdowns)] == [3]
    bad = clause.format(w=4)
    with pytest.raises(ValueError, match=re.escape(f"{bad!r} targets worker 4")):
        pool_fault_plan(bad, n_workers=4)
