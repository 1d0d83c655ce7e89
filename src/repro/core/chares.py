"""The message-driven objects of the NAMD design (paper §3.1).

"The cubes described above are represented in NAMD by objects called *home
patches*.  Each home patch is responsible for distributing coordinate data,
retrieving forces, and integrating the equations of motion for all of the
atoms in the cube of space owned by the patch.  The forces used by the
patches are computed by a variety of *compute objects*. ... When running in
parallel, some compute objects require data from patches not on the compute
object's processor.  In this case, a *proxy patch* takes the place of the
home patch on the compute object's processor."

Per-round message flow (one MD timestep):

1. ``HomePatchChare.advance`` — integrate (except round 0), then multicast
   positions to proxy patches and notify co-located computes.
2. ``ProxyPatchChare.recv_positions`` — notify the computes on its
   processor that depend on this patch.
3. ``ComputeChare.patch_ready`` — when all of its patches are ready,
   charge the compute's modeled cost and deposit forces with each patch's
   local representative.
4. ``ProxyPatchChare.deposit`` — after the last local compute deposits,
   send one combined force message back to the home patch.
5. ``HomePatchChare.deposit`` — after all local computes and all proxies
   have contributed, self-send ``advance`` for the next round.

Position messages carry ~32 bytes/atom and force messages ~24 bytes/atom,
the dominant communication the machine model prices.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.chare import Chare
from repro.runtime.message import Priority

__all__ = [
    "HomePatchChare",
    "ProxyPatchChare",
    "NonbondedComputeChare",
    "BondedComputeChare",
    "POSITION_BYTES_PER_ATOM",
    "FORCE_BYTES_PER_ATOM",
]

POSITION_BYTES_PER_ATOM = 32.0
FORCE_BYTES_PER_ATOM = 24.0
_HEADER_BYTES = 64.0


class HomePatchChare(Chare):
    """Owns the atoms of one spatial patch; integrates and distributes."""

    category = "integration"
    migratable = False

    def __init__(
        self,
        patch: int,
        atoms: np.ndarray,
        integration_cost: float,
        n_rounds: int,
    ) -> None:
        super().__init__()
        self.patch = patch
        self.atoms = atoms
        self.n_atoms = len(atoms)
        self.integration_cost = integration_cost
        self.n_rounds = n_rounds
        # wired by the driver after all chares exist
        self.proxy_ids: list[int] = []
        self.local_compute_ids: list[int] = []
        self.expected_contributions = 0
        self._received = 0
        self.round = 0

    def label(self) -> str:
        """Display name used in traces."""
        return f"patch({self.patch})"

    # ------------------------------------------------------------------ #
    def start(self) -> float:
        """Round 0 kickoff (driver-injected): distribute initial positions."""
        self._send_positions()
        return 0.0

    def deposit(self, source: int = -1) -> float:
        """One force contribution arrived (local compute or proxy message)."""
        self._received += 1
        if self._received >= self.expected_contributions:
            self._received = 0
            # integration is a separate prioritized task, as in NAMD
            self.send(self.object_id, "advance", {}, size_bytes=0.0,
                      priority=Priority.HIGH)
        return 0.0

    def advance(self) -> float:
        """Integrate this patch's atoms, then distribute new positions."""
        cost = self.integration_cost
        self.runtime.post_control(("step_done", self.patch, self.round))
        self.round += 1
        if self.round < self.n_rounds:
            self._send_positions()
        return cost

    # ------------------------------------------------------------------ #
    def _send_positions(self) -> None:
        size = _HEADER_BYTES + POSITION_BYTES_PER_ATOM * self.n_atoms
        if self.proxy_ids:
            self.multicast(
                self.proxy_ids,
                "recv_positions",
                {},
                size_bytes=size,
                priority=Priority.HIGH,
            )
        for cid in self.local_compute_ids:
            self.send(cid, "patch_ready", {}, size_bytes=0.0)
        if self.expected_contributions == 0:
            # empty region: nothing will deposit, so self-advance
            self.send(self.object_id, "advance", {}, size_bytes=0.0)


class ProxyPatchChare(Chare):
    """Stand-in for a home patch on another processor."""

    category = "proxy"
    migratable = False

    def __init__(self, patch: int, home_id: int, n_atoms: int) -> None:
        super().__init__()
        self.patch = patch
        self.home_id = home_id
        self.n_atoms = n_atoms
        self.local_compute_ids: list[int] = []
        self.expected_deposits = 0
        self._deposits = 0

    def label(self) -> str:
        """Display name used in traces."""
        return f"proxy({self.patch})"

    def recv_positions(self) -> float:
        """Home patch's coordinates arrived: wake dependent computes."""
        for cid in self.local_compute_ids:
            self.send(cid, "patch_ready", {}, size_bytes=0.0)
        return 0.0

    def deposit(self, source: int = -1) -> float:
        """A local compute deposited forces for this patch."""
        self._deposits += 1
        if self._deposits >= self.expected_deposits:
            self._deposits = 0
            self.send(
                self.home_id,
                "deposit",
                {"source": self.object_id},
                size_bytes=_HEADER_BYTES + FORCE_BYTES_PER_ATOM * self.n_atoms,
                priority=Priority.HIGH,
            )
        return 0.0


class _ComputeBase(Chare):
    """Common wait-for-patches / deposit behaviour of compute objects."""

    def __init__(self, load: float, n_patches_needed: int) -> None:
        super().__init__()
        self.load = load
        self.n_patches_needed = n_patches_needed
        self._ready = 0
        #: local representative (home or proxy object id) per needed patch
        self.deposit_ids: list[int] = []
        self.round = 0

    def patch_ready(self) -> float:
        """A needed patch's positions are available on this processor."""
        self._ready += 1
        if self._ready < self.n_patches_needed:
            return 0.0
        # every patch is here: charge the modeled cost and deposit forces
        self._ready = 0
        self.round += 1
        for dep in self.deposit_ids:
            self.send(dep, "deposit", {"source": self.object_id}, size_bytes=0.0)
        return self.load


class NonbondedComputeChare(_ComputeBase):
    """Non-bonded pair/self force computation (§3, §4.2.1).

    The paper's dominant migratable object kind: 14 per patch before
    grainsize splitting.  ``part``/``n_parts`` identify a grainsize slice.
    """

    category = "nonbonded"
    migratable = True

    def __init__(
        self,
        patches: tuple[int, ...],
        load: float,
        part: int = 0,
        n_parts: int = 1,
    ) -> None:
        super().__init__(load, n_patches_needed=len(patches))
        self.patches = patches
        self.part = part
        self.n_parts = n_parts

    def label(self) -> str:
        """Display name used in traces."""
        p = "+".join(str(x) for x in self.patches)
        return f"nb({p})[{self.part}/{self.n_parts}]"


class BondedComputeChare(_ComputeBase):
    """Bonded-term computation, intra-patch (migratable) or inter-patch
    (non-migratable), per §4.2.2."""

    category = "bonded"

    def __init__(
        self,
        patches: tuple[int, ...],
        load: float,
        migratable: bool,
    ) -> None:
        super().__init__(load, n_patches_needed=len(patches))
        self.patches = patches
        self.migratable = migratable

    def label(self) -> str:
        """Display name used in traces."""
        p = "+".join(str(x) for x in self.patches)
        kind = "intra" if self.migratable else "inter"
        return f"bonded_{kind}({p})"
