"""The performance audit of Table 1.

"Table 1 shows a snapshot of the audit at an intermediate stage ... The
audit compares ideal and actual 1024 processor data, where the ideal
performance is computed by assuming that the single processor performance
could scale perfectly."

Columns (all milliseconds per step, averaged over processors):

* Total — measured time per step (Actual) or sequential/P (Ideal)
* Non-bonded / Bonds / Integration — per-processor average work by category
* Overhead — CPU spent initiating/packing sends ("extra work one had to do
  only in a parallel setting")
* Receives — CPU spent receiving/dispatching messages
* Imbalance — max processor busy time minus average busy time
* Idle — the remainder of the step (waiting that is not attributable to
  imbalance)

Our columns satisfy the same accounting identity as the paper's:
``Total = Non-bonded + Bonds + Integration + Overhead + Receives +
Imbalance + Idle`` exactly, because Idle is defined as the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.simulation import PhaseResult, SimulationResult
from repro.runtime.checkpoint import RecoveryStats

__all__ = ["PerformanceAudit", "performance_audit"]


@dataclass
class AuditRow:
    """One row of the audit, seconds per step."""

    total: float
    nonbonded: float
    bonds: float
    integration: float
    overhead: float
    imbalance: float
    idle: float
    receives: float

    def as_ms(self) -> dict[str, float]:
        """The row's columns converted to milliseconds."""
        return {
            "total": self.total * 1e3,
            "nonbonded": self.nonbonded * 1e3,
            "bonds": self.bonds * 1e3,
            "integration": self.integration * 1e3,
            "overhead": self.overhead * 1e3,
            "imbalance": self.imbalance * 1e3,
            "idle": self.idle * 1e3,
            "receives": self.receives * 1e3,
        }


@dataclass
class PerformanceAudit:
    """Ideal vs. actual decomposition of one run's step time."""

    n_procs: int
    ideal: AuditRow
    actual: AuditRow
    #: fault-tolerance accounting; None when the run had no resilience layer
    recovery: "RecoveryStats | None" = None
    #: processors lost by the end of the run
    dead_procs: tuple[int, ...] = ()

    def format(self) -> str:
        """Text rendering in the layout of the paper's Table 1."""
        cols = [
            "Total",
            "Non-bonded",
            "Bonds",
            "Integration",
            "Overhead",
            "Imbalance",
            "Idle",
            "Receives",
        ]
        keys = [
            "total",
            "nonbonded",
            "bonds",
            "integration",
            "overhead",
            "imbalance",
            "idle",
            "receives",
        ]
        header = "        " + "".join(f"{c:>12}" for c in cols)
        lines = [f"Performance audit on {self.n_procs} processors (ms/step)", header]
        for name, row in (("Ideal", self.ideal), ("Actual", self.actual)):
            ms = row.as_ms()
            lines.append(f"{name:8}" + "".join(f"{ms[k]:12.2f}" for k in keys))
        if self.recovery is not None:
            lines.append("")
            lines.extend(self._format_recovery())
        return "\n".join(lines)

    def _format_recovery(self) -> list[str]:
        rec = self.recovery
        lines = ["Recovery overhead"]
        lines.append(
            f"  checkpoints taken      {rec.checkpoints_taken:6d}"
            f"   ({rec.checkpoint_time_s * 1e3:10.3f} ms modeled)"
        )
        lines.append(
            f"  processor failures     {rec.n_failures:6d}"
            + (f"   (procs {list(self.dead_procs)})" if self.dead_procs else "")
        )
        if rec.n_failures:
            lines.append(
                f"  detection latency      {rec.detection_latency_s * 1e3:10.3f} ms"
            )
            lines.append(f"  steps replayed         {rec.steps_replayed:6d}")
            lines.append(
                f"  recovery wall-clock    {rec.recovery_time_s * 1e3:10.3f} ms"
            )
            lines.append(
                f"  messages lost to dead  {rec.messages_lost_to_dead:6d}"
            )
        if rec.messages_dropped or rec.messages_delayed or rec.messages_duplicated:
            lines.append(
                f"  messages dropped/delayed/duplicated  "
                f"{rec.messages_dropped}/{rec.messages_delayed}"
                f"/{rec.messages_duplicated}"
            )
        return lines


def performance_audit(
    result: SimulationResult, phase: PhaseResult | None = None
) -> PerformanceAudit:
    """Build the audit from a finished run (uses the final phase by default)."""
    phase = phase or result.final
    cfg = result.config
    P = cfg.n_procs
    steps = cfg.steps_per_phase  # instrumentation covers every round
    summary = phase.summary

    per_cat = {k: v / steps / P for k, v in summary.time_per_category.items()}
    nonbonded = per_cat.get("nonbonded", 0.0)
    bonds = per_cat.get("bonded", 0.0)
    integration = per_cat.get("integration", 0.0) + per_cat.get("proxy", 0.0)
    overhead = float(summary.send_overhead_per_proc.sum()) / steps / P
    receives = float(summary.recv_overhead_per_proc.sum()) / steps / P
    busy = summary.busy_time_per_proc / steps
    imbalance = float(busy.max() - busy.mean()) if len(busy) else 0.0
    total = phase.timings.time_per_step
    idle = total - (nonbonded + bonds + integration + overhead + receives + imbalance)

    actual = AuditRow(
        total=total,
        nonbonded=nonbonded,
        bonds=bonds,
        integration=integration,
        overhead=overhead,
        imbalance=imbalance,
        idle=idle,
        receives=receives,
    )

    cm = None
    counts = result.counts
    cpu = cfg.machine.cpu_factor
    # ideal: the single-processor decomposition divided by P
    from repro.costmodel.model import DEFAULT_COST_MODEL

    cm = DEFAULT_COST_MODEL
    nb_seq = cm.nonbonded_cost(counts.nonbonded_pairs, counts.candidate_pairs) * cpu
    bd_seq = cm.bonded_cost(
        counts.bonds, counts.angles, counts.dihedrals, counts.impropers
    ) * cpu
    in_seq = cm.integration_cost(counts.atoms) * cpu
    ideal = AuditRow(
        total=(nb_seq + bd_seq + in_seq) / P,
        nonbonded=nb_seq / P,
        bonds=bd_seq / P,
        integration=in_seq / P,
        overhead=0.0,
        imbalance=0.0,
        idle=0.0,
        receives=0.0,
    )
    recovery = (
        result.recovery
        if any(ph.recovery is not None for ph in result.phases)
        else None
    )
    return PerformanceAudit(
        n_procs=P,
        ideal=ideal,
        actual=actual,
        recovery=recovery,
        dead_procs=result.dead_procs,
    )
