"""The paper's primary contribution: hybrid force/spatial decomposition
molecular dynamics with measurement-based load balancing.

Layer map (bottom of DESIGN.md §3):

* :mod:`repro.core.decomposition` — cutoff-sized patches, neighbor/upstream
  relations, bonded-term ownership (§3),
* :mod:`repro.core.computes` — compute-object descriptors with exact
  cost-model loads, grainsize splitting (§4.2.1) and the bonded
  intra/inter split (§4.2.2),
* :mod:`repro.core.chares` — the message-driven patch / proxy / compute
  objects (§3.1),
* :mod:`repro.core.simulation` — the driver: placement, timestep protocol,
  the three-stage load-balancing cycle (§3.2), and step timing.
"""

from repro.core.decomposition import SpatialDecomposition, BondedAssignment
from repro.core.computes import (
    ComputeDescriptor,
    build_nonbonded_computes,
    build_bonded_computes,
)
from repro.core.simulation import ParallelSimulation, SimulationConfig, StepTimings

__all__ = [
    "SpatialDecomposition",
    "BondedAssignment",
    "ComputeDescriptor",
    "build_nonbonded_computes",
    "build_bonded_computes",
    "ParallelSimulation",
    "SimulationConfig",
    "StepTimings",
]
