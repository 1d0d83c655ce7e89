"""Grainsize control shared by the simulated and real runtimes (§4.2.1–2).

The paper's headline instrumentation-driven optimization: when one compute
object's execution time exceeds a target grainsize, split it into slices so
no single object caps the achievable load balance.  The simulated layer
(:mod:`repro.core.computes`) applies this to compute *descriptors*; the real
engine (:mod:`repro.md.parallel`) applies the same policy to its half-shell
cell tasks.  Both take the number of parts from
:meth:`GrainsizeConfig.parts_for`, and both list or count a part's pairs
with ``block_pairs`` on its stripe (``part, n_parts``) — the simulator's
descriptors with the kernel's count mode, the engine's tasks with its list
mode — so which rows land in which part, and so what each part costs,
can never drift between the two runtimes.

A split is always a *row stripe*: part ``p`` of ``n`` owns the rows
``p::n`` of the object's first patch/cell.  Striping (rather than chunking)
keeps every part's load close to the mean even when the per-row pair counts
trend across the block, and it makes the parts an exact partition of the
parent's pair set:

* self blocks: pair ``(i, j)`` with ``i < j`` belongs to the part owning
  row ``i``;
* pair blocks: pair ``(i, j)`` belongs to the part owning row ``i`` of the
  first cell (every row pairs with the whole second cell).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrainsizeConfig",
    "stripe_candidate_counts",
]


@dataclass(frozen=True)
class GrainsizeConfig:
    """Grainsize-control switches (§4.2.1 and §5 lesson 2).

    ``target_load_s`` is the desired maximum object execution time in
    reference seconds; the paper recommends "around 5 ms" of computation per
    message.  ``split_self``/``split_pairs`` correspond to the two stages of
    the paper's optimization: Figure 1 was measured with self splitting only,
    Figure 2 with pair splitting added.
    """

    target_load_s: float = 0.005
    split_self: bool = True
    split_pairs: bool = True
    max_parts: int = 64

    def parts_for(self, load: float, enabled: bool) -> int:
        """Number of grainsize slices for an object of ``load`` seconds."""
        if not enabled or load <= self.target_load_s:
            return 1
        return min(int(np.ceil(load / self.target_load_s)), self.max_parts)


def stripe_candidate_counts(
    na: int, nb: int | None, n_parts: int
) -> np.ndarray:
    """Candidate-pair count of each stripe of a self (``nb=None``) or
    ``na``×``nb`` pair block.

    This is the pro-rata weight used to hand a parent task's cost-model
    prior down to its grainsize slices when per-row pair counts are not
    available (the real engine's startup, before any measurement): self
    block row ``i`` contributes ``na - 1 - i`` candidates (pairs ``i < j``),
    a pair block row contributes ``nb``.  The counts sum exactly to the
    parent's candidate count.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    out = np.zeros(n_parts, dtype=np.int64)
    if nb is None:
        per_row = np.arange(na - 1, -1, -1, dtype=np.int64)
    else:
        per_row = np.full(na, int(nb), dtype=np.int64)
    for part in range(n_parts):
        out[part] = int(per_row[part::n_parts].sum())
    return out
