"""The one fault-plan grammar, and what each runtime makes of a spec.

One row per spec: what the simulated machine (``SimulationConfig`` on 4
processors, ``<when>`` in simulated seconds) and the supervised pool
(``pool_fault_plan`` for 4 workers, ``<when>`` an evaluation index) accept,
field by field, or the refusal each raises, which names the clause.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple

import pytest

from repro.core.simulation import SimulationConfig
from repro.pool import pool_fault_plan
from repro.util.faults import (
    FaultPlan,
    MessageFaults,
    ProcessorFailure,
    ProcessorHang,
    SlowdownWindow,
)

INF = math.inf


def simulated(spec: str) -> FaultPlan:
    return SimulationConfig(n_procs=4, fault_plan=FaultPlan.parse(spec)).fault_plan


def pooled(spec: str) -> FaultPlan:
    return pool_fault_plan(spec, n_workers=4)


def fields(plan: FaultPlan) -> dict:
    """Every field a clause can set, the unset ones left out."""
    out = {}
    if plan.seed is not None:
        out["seed"] = plan.seed
    for key, faults in (
        ("kill", plan.failures), ("hang", plan.hangs), ("slow", plan.slowdowns)
    ):
        if faults:
            out[key] = [astuple(f) for f in faults]
    mf = plan.message_faults
    if mf is not None:
        out["messages"] = (
            mf.drop_rate, mf.delay_rate, mf.delay_s, mf.duplicate_rate,
            mf.retry_base_s,
        )
    return out


def messages(drop=0.0, delay=0.0, delay_s=1e-4, dup=0.0, retry=5e-5):
    return {"messages": (drop, delay, delay_s, dup, retry)}


NO_SEED = "fault clause 'seed="
NOT_A_STEP = "a pool step is a 1-based evaluation index"
BAD = "bad fault clause"

#: spec -> (simulated machine, supervised pool): the fields it reads, or a
#: substring of the ValueError it raises
TABLE = [
    # the full simulated grammar
    (
        "seed=7, kill=2@0.004, slow=1@0.1-0.2x3.0, "
        "drop=0.01, delay=0.02@1e-4, dup=0.005, retry=2e-5",
        {
            "seed": 7, "kill": [(2, 0.004)], "slow": [(1, 0.1, 0.2, 3.0)],
            **messages(0.01, 0.02, 1e-4, 0.005, 2e-5),
        },
        NO_SEED + "7'",
    ),
    ("seed=3,,kill=0@1.0,", {"seed": 3, "kill": [(0, 1.0)]}, NO_SEED + "3'"),
    ("seed=0", {"seed": 0}, NO_SEED + "0'"),
    ("", {}, {}),
    # the full pool grammar
    (
        "kill=1@3,hang=0@5x2.5,slow=1@2-6x8",
        "fault clause 'hang=0@5x2.5': the simulated machine",
        {"kill": [(1, 3)], "hang": [(0, 5, 2.5)], "slow": [(1, 2, 6, 8)]},
    ),
    ("hang=2@4", "'hang=2@4'", {"hang": [(2, 4, INF)]}),
    ("hang=2@4x", "'hang=2@4'", {"hang": [(2, 4, INF)]}),
    ("slow=0@0-infx3", {"slow": [(0, 0, INF, 3)]}, {"slow": [(0, 0, INF, 3)]}),
    (
        "slow=0@1.5-3.5x2",
        {"slow": [(0, 1.5, 3.5, 2)]},
        {"slow": [(0, 1.5, 3.5, 2)]},
    ),
    # steps: whole evaluation indices from 1 (3.0 reads as 3)
    ("kill=1@3.0", {"kill": [(1, 3)]}, {"kill": [(1, 3)]}),
    ("kill=1@3.5", {"kill": [(1, 3.5)]}, "'kill=1@3.5': " + NOT_A_STEP),
    ("kill=0@0", {"kill": [(0, 0)]}, "'kill=0@0': " + NOT_A_STEP),
    ("hang=0@0.5x1", "'hang=0@0.5x1'", "'hang=0@0.5x1': " + NOT_A_STEP),
    # message faults: the simulated machine's alone
    ("drop=0.1", messages(drop=0.1), "fault clause 'drop=0.1': the supervised"),
    ("drop=0", messages(), "'drop/delay/dup/retry'"),
    ("delay=0.02", messages(delay=0.02), "'delay=0.02@0.0001'"),
    ("dup=0.5", messages(dup=0.5), "'dup=0.5'"),
    (
        "retry=1e-5,drop=0.1",
        messages(drop=0.1, retry=1e-5),
        "'drop=0.1,retry=1e-05'",
    ),
    # targets outside the machine / the pool
    ("kill=9@1", "targets processor 9, but the machine has 4", "targets worker 9"),
    ("kill=-1@3", "targets processor -1", "targets worker -1"),
    ("slow=4@1-2x2", "'slow=4@1-2x2' targets processor 4", "targets worker 4"),
    ("hang=5@1", "'hang=5@1'", "'hang=5@1' targets worker 5"),
    # malformed
    ("kill", BAD + " 'kill' (expected key=value)", BAD + " 'kill'"),
    ("1@2", BAD + " '1@2'", BAD + " '1@2'"),
    ("explode=1", "unknown fault clause key 'explode'", "unknown fault clause"),
    ("frob=1@2", "unknown fault clause key 'frob'", "unknown fault clause"),
    ("kill=x@2", BAD + " 'kill=x@2'", BAD + " 'kill=x@2'"),
    ("kill=1", BAD + " 'kill=1'", BAD + " 'kill=1'"),
    ("slow=1@3x2", BAD + " 'slow=1@3x2'", BAD + " 'slow=1@3x2'"),
    ("slow=0@1-0.5x2", "positive length", "positive length"),
    ("slow=0@0-1x0", "factor must be positive", "factor must be positive"),
    ("hang=0@1x0", "duration must be positive", "duration must be positive"),
    ("drop=1.5", "drop_rate must be in [0, 1]", "drop_rate must be in [0, 1]"),
    ("delay=-0.1", "delay_rate must be in [0, 1]", "delay_rate must be"),
    ("dup=2.0", "duplicate_rate must be in [0, 1]", "duplicate_rate must be"),
    ("seed=x", BAD + " 'seed=x'", BAD + " 'seed=x'"),
    # numbers no runtime can honour
    ("seed=1,drop=0.3,retry=-0.01", "'retry=-0.01'", "'retry=-0.01'"),
    ("delay=0.5@-1", "'delay=0.5@-1'", "'delay=0.5@-1'"),
    ("slow=0@1-3xinf", "'slow=0@1-3xinf'", "'slow=0@1-3xinf'"),
    ("hang=0@2xnan", "'hang=0@2xnan'", "'hang=0@2xnan'"),
    ("slow=1@nan-4x2", "'slow=1@nan-4x2'", "'slow=1@nan-4x2'"),
    ("slow=0@-1-2x2", "'slow=0@-1-2x2'", "'slow=0@-1-2x2'"),
    ("slow=0@1-2xnan", "'slow=0@1-2xnan'", "'slow=0@1-2xnan'"),
    ("kill=0@nan", "'kill=0@nan'", "'kill=0@nan'"),
    ("kill=0@inf", "'kill=0@inf'", "'kill=0@inf'"),
    ("kill=0@-0.5", "'kill=0@-0.5'", "'kill=0@-0.5'"),
    ("hang=0@-2", "'hang=0@-2'", "'hang=0@-2'"),
    ("delay=0.5@inf", "'delay=0.5@inf'", "'delay=0.5@inf'"),
    ("retry=nan", "'retry=nan'", "'retry=nan'"),
    ("drop=nan", "drop_rate must be in [0, 1]", "drop_rate must be"),
]


@pytest.mark.parametrize(
    "spec, on_machine, on_pool", TABLE, ids=[row[0] or "<empty>" for row in TABLE]
)
def test_grammar_table(spec, on_machine, on_pool):
    for read, expect in ((simulated, on_machine), (pooled, on_pool)):
        if isinstance(expect, str):
            with pytest.raises(ValueError, match=re.escape(expect)):
                read(spec)
        else:
            assert fields(read(spec)) == expect, read.__name__


def test_a_pool_of_unknown_size_checks_no_targets():
    """``SimSpec(workers=0)`` is one worker per CPU: no count to check."""
    assert pool_fault_plan("kill=9@1").failures == (ProcessorFailure(9, 1.0),)


def test_clauses_name_themselves():
    plan = FaultPlan.parse("kill=1@3,hang=0@5x2.5,hang=2@4,slow=0@0-infx3")
    clauses = [f.clause for f in (*plan.failures, *plan.hangs, *plan.slowdowns)]
    assert clauses == ["kill=1@3", "hang=0@5x2.5", "hang=2@4", "slow=0@0-infx3"]
    assert FaultPlan.parse(",".join(clauses)) == plan


def test_parse_roundtrips_through_behavior():
    a = FaultPlan.parse("seed=5,drop=0.5")
    b = FaultPlan(seed=5, message_faults=MessageFaults(drop_rate=0.5))
    assert a == b
    for seq in range(50):
        assert a.message_fate(seq) == b.message_fate(seq)


def test_built_faults_validate():
    for build in (
        lambda: MessageFaults(drop_rate=1.5),
        lambda: MessageFaults(delay_rate=-0.1),
        lambda: MessageFaults(duplicate_rate=2.0),
        lambda: SlowdownWindow(0, 1.0, 0.5, 2.0),  # end before start
        lambda: SlowdownWindow(0, 0.0, 1.0, 0.0),  # factor must be positive
        lambda: ProcessorHang(0, 1.0, 0.0),
    ):
        with pytest.raises(ValueError):
            build()


def test_active_flag():
    assert not MessageFaults().active
    assert MessageFaults(drop_rate=0.1).active
    assert MessageFaults(delay_rate=0.1).active
    assert MessageFaults(duplicate_rate=0.1).active
    assert not FaultPlan(message_faults=MessageFaults()).has_message_faults
