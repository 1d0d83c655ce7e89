"""Regression: the frozen DEFAULT_COST_MODEL matches calibration.

``DEFAULT_COST_MODEL`` in :mod:`repro.costmodel.model` hardcodes the unit
costs obtained by calibrating against the ApoA-I system (seed 2000) and the
paper's Table 1 single-processor decomposition.  The builder is
deterministic, so the exact work counts below are stable; if either the
builder or the calibration math changes, this test flags the stale frozen
constants.

(The counts themselves are re-derived from the real 92,224-atom build in the
benchmark suite; see ``benchmarks/test_table2_apoa1_asci.py``'s single-
processor anchor.)
"""

import pytest

from repro.costmodel.model import DEFAULT_COST_MODEL
from repro.costmodel.model import PAPER_APOA1_SECONDS, CostModel, WorkCounts

#: Work counts of apoa1_like(seed=2000) under the default decomposition,
#: measured once and fixed by determinism.
APOA1_COUNTS = WorkCounts(
    atoms=92_224,
    nonbonded_pairs=34_136_210,
    candidate_pairs=470_422_030,
    bonds=67_418,
    angles=42_243,
    dihedrals=11_272,
    impropers=880,
)


class TestFrozenConstants:
    def test_default_matches_fresh_calibration(self):
        fresh = CostModel.calibrated(APOA1_COUNTS)
        assert DEFAULT_COST_MODEL.t_pair == pytest.approx(fresh.t_pair, rel=1e-3)
        assert DEFAULT_COST_MODEL.t_candidate == pytest.approx(
            fresh.t_candidate, rel=1e-3
        )
        assert DEFAULT_COST_MODEL.t_bonded_unit == pytest.approx(
            fresh.t_bonded_unit, rel=1e-3
        )
        assert DEFAULT_COST_MODEL.t_atom_integration == pytest.approx(
            fresh.t_atom_integration, rel=1e-3
        )

    def test_default_reproduces_paper_single_processor_time(self):
        total = DEFAULT_COST_MODEL.sequential_step_cost(APOA1_COUNTS)
        assert total == pytest.approx(sum(PAPER_APOA1_SECONDS.values()), rel=2e-3)

    def test_component_breakdown_matches_table1_ideal(self):
        cm = DEFAULT_COST_MODEL
        nb = cm.nonbonded_cost(
            APOA1_COUNTS.nonbonded_pairs, APOA1_COUNTS.candidate_pairs
        )
        bd = cm.bonded_cost(
            APOA1_COUNTS.bonds,
            APOA1_COUNTS.angles,
            APOA1_COUNTS.dihedrals,
            APOA1_COUNTS.impropers,
        )
        integ = cm.integration_cost(APOA1_COUNTS.atoms)
        assert nb == pytest.approx(PAPER_APOA1_SECONDS["nonbonded"], rel=2e-3)
        assert bd == pytest.approx(PAPER_APOA1_SECONDS["bonded"], rel=2e-3)
        assert integ == pytest.approx(PAPER_APOA1_SECONDS["integration"], rel=2e-3)
