"""Cost and flop models for the simulated parallel runs.

Object execution costs (reference-machine seconds) are derived from the
paper's own single-processor decomposition (Table 1 "Ideal": 52.44 s
non-bonded, 3.16 s bonds, 1.44 s integration for ApoA-I on one ASCI-Red
processor) divided by exact work counts measured on the synthetic systems —
see DESIGN.md §2 for why this anchoring preserves the published scaling
shape.
"""

from repro.costmodel.model import CostModel, WorkCounts
from repro.costmodel.flops import FlopModel, DEFAULT_FLOPS

__all__ = ["CostModel", "WorkCounts", "FlopModel", "DEFAULT_FLOPS"]
