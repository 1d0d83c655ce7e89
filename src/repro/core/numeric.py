"""Numeric backend: real force evaluation inside the parallel protocol.

For the paper's headline tables the chares carry modeled loads only (the
systems are too large to integrate in Python in reasonable time, and only
the *timing* is at stake).  For validation, however, the same chares can run
in *numeric mode*: every compute object evaluates real forces on its slice of
the system with the kernels from :mod:`repro.md`, and every home patch
integrates its atoms with velocity Verlet.  Tests assert that one parallel
force round reproduces :class:`repro.md.engine.SequentialEngine` exactly
(to floating-point reordering) and that parallel NVE trajectories conserve
energy — demonstrating the decomposition computes the right physics, not
just the right message pattern.
"""

from __future__ import annotations

import numpy as np

from repro.md.bonded import (
    compute_angles,
    compute_bonds,
    compute_dihedrals,
    compute_impropers,
)
from repro.backend import get_backend
from repro.md.constants import ACC_CONVERSION
from repro.md.nonbonded import NonbondedOptions, _combined_params
from repro.md.system import MolecularSystem
from repro.util.pbc import minimum_image

__all__ = ["NumericBackend"]

_BONDED_KERNELS = {
    "bond": compute_bonds,
    "angle": compute_angles,
    "dihedral": compute_dihedrals,
    "improper": compute_impropers,
}


class NumericBackend:
    """Shared arrays + kernels for numeric-mode chares.

    The backend owns a private copy of the system (so the caller's system is
    untouched), a global force accumulation buffer, and per-step energy
    tallies.  Chares hold atom-index slices into these arrays; because a home
    patch integrates its atoms only after every compute that reads them has
    run, the shared buffers are race-free even though neighbouring patches
    may be one step apart (the protocol's pipelining).
    """

    def __init__(
        self,
        system: MolecularSystem,
        options: NonbondedOptions,
        dt: float = 1.0,
        pairlist_skin: float = 1.5,
        kernel_backend=None,
    ) -> None:
        """``pairlist_skin`` enables per-compute Verlet-style candidate
        caching (pairs within ``cutoff + skin`` are reused until an involved
        atom moves more than ``skin/2``); 0 disables the cache.

        ``kernel_backend`` selects the :mod:`repro.backend` kernel set for
        the pair math (``None`` = session default); resolved once so every
        compute of this backend instance runs the same kernels."""
        self.kernel_backend = get_backend(kernel_backend)
        self.system = system.copy()
        self.system.wrap()
        self.options = options
        self.dt = float(dt)
        self.positions = self.system.positions
        self.velocities = self.system.velocities
        self.forces = np.zeros_like(self.positions)
        self.masses = self.system.masses
        self.exclusions = self.system.exclusions
        # per-step scalar energy tallies, keyed by step
        self.energy_by_step: dict[int, dict[str, float]] = {}
        self.pairlist_skin = float(pairlist_skin)
        # per-compute Verlet caches: cache_key -> {ii, jj, atoms, ref}
        self._pair_cache: dict = {}
        self.pairlist_builds = 0
        self.pairlist_reuses = 0

    # ------------------------------------------------------------------ #
    def _tally(self, step: int, key: str, value: float) -> None:
        bucket = self.energy_by_step.setdefault(
            step, {"lj": 0.0, "elec": 0.0, "bonded": 0.0, "kinetic": 0.0}
        )
        bucket[key] += value

    def energies(self, step: int) -> dict[str, float]:
        """Energy tallies accumulated for ``step``."""
        return dict(self.energy_by_step.get(step, {}))

    # ------------------------------------------------------------------ #
    def _enumerate_compute(
        self,
        atoms_a: np.ndarray,
        atoms_b: np.ndarray | None,
        part: int,
        n_parts: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """All candidate pairs of one (possibly split) compute, vectorized.

        Self computes pair row atom ``atoms_a[k]`` with the suffix
        ``atoms_a[k+1:]`` (each pair once); pair computes stripe rows
        against all of ``atoms_b``.  Enumeration order matches the original
        per-row loop, so energies are reproducible to the bit.
        """
        if atoms_b is None:
            ks = np.arange(len(atoms_a), dtype=np.int64)[part::n_parts]
            cnt = len(atoms_a) - 1 - ks
            keep = cnt > 0
            ks, cnt = ks[keep], cnt[keep]
            if len(ks) == 0:
                empty = np.zeros(0, dtype=np.int64)
                return empty, empty.copy()
            total = int(cnt.sum())
            offsets = np.cumsum(cnt) - cnt
            ii = np.repeat(atoms_a[ks], cnt)
            jj = atoms_a[np.repeat(ks + 1 - offsets, cnt) + np.arange(total)]
        else:
            rows = atoms_a[part::n_parts]
            ii = np.repeat(rows, len(atoms_b))
            jj = np.tile(atoms_b, len(rows))
        return ii, jj

    def invalidate_pair_caches(self) -> None:
        """Drop every per-compute candidate cache (after a state restore)."""
        self._pair_cache.clear()

    def _cached_candidates(
        self,
        cache_key,
        atoms_a: np.ndarray,
        atoms_b: np.ndarray | None,
        part: int,
        n_parts: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate pairs via the compute's Verlet cache.

        Cached pairs lie within ``cutoff + skin`` of the build positions;
        the list stays a valid superset of in-cutoff pairs until an involved
        atom moves more than ``skin/2``, the standard Verlet bound.
        """
        pos = self.positions
        box = self.system.box
        half_skin2 = (0.5 * self.pairlist_skin) ** 2
        entry = self._pair_cache.get(cache_key)
        if entry is not None:
            moved = minimum_image(pos[entry["atoms"]] - entry["ref"], box)
            if (
                len(moved)
                and float(np.einsum("ij,ij->i", moved, moved).max()) > half_skin2
            ):
                entry = None
        if entry is None:
            ii, jj = self._enumerate_compute(atoms_a, atoms_b, part, n_parts)
            if len(ii):
                delta = minimum_image(pos[jj] - pos[ii], box)
                r2 = np.einsum("ij,ij->i", delta, delta)
                keep = r2 < (self.options.cutoff + self.pairlist_skin) ** 2
                ii, jj = ii[keep], jj[keep]
            involved = (
                atoms_a
                if atoms_b is None
                else np.concatenate([atoms_a[part::n_parts], atoms_b])
            )
            entry = {
                "ii": ii,
                "jj": jj,
                "atoms": involved,
                "ref": pos[involved].copy(),
            }
            self._pair_cache[cache_key] = entry
            self.pairlist_builds += 1
        else:
            self.pairlist_reuses += 1
        return entry["ii"], entry["jj"]

    def nonbonded(
        self,
        step: int,
        atoms_a: np.ndarray,
        atoms_b: np.ndarray | None,
        part: int,
        n_parts: int,
        cache_key=None,
    ) -> None:
        """Evaluate a (possibly split) non-bonded compute and accumulate.

        Rows of ``atoms_a`` are striped ``part::n_parts`` — the same
        partitioning the descriptors used for load counting, so numeric and
        timing modes agree on which object owns which pairs.  With a
        ``cache_key`` (the calling chare's identity) candidates are served
        from a per-compute Verlet cache instead of re-enumerated.
        """
        pos = self.positions
        box = self.system.box
        if cache_key is not None and self.pairlist_skin > 0:
            ii, jj = self._cached_candidates(
                cache_key, atoms_a, atoms_b, part, n_parts
            )
        else:
            ii, jj = self._enumerate_compute(atoms_a, atoms_b, part, n_parts)
        if len(ii) == 0:
            return
        within = self.kernel_backend.pair_mask(pos, box, ii, jj, self.options.cutoff)
        ii, jj = ii[within], jj[within]
        if len(ii) == 0:
            return
        excl = self.exclusions
        is14 = excl.is_pair14(ii, jj)
        normal = ~(excl.is_excluded(ii, jj) | is14)

        ff = self.system.forcefield
        for mask, lj_scale, el_scale in (
            (normal, 1.0, 1.0),
            (is14, ff.scale14_lj, ff.scale14_elec),
        ):
            if not np.any(mask):
                continue
            i_m, j_m = ii[mask], jj[mask]
            eps, rmin, qq = _combined_params(self.system, i_m, j_m)
            # fused distance + pair math + scatter; the pairs already passed
            # the distance test, so the kernel's own mask keeps all of them
            e_lj, e_el, _ = self.kernel_backend.nb_pairs(
                pos, box, i_m, j_m, eps * lj_scale, rmin, qq * el_scale,
                self.options.cutoff, self.options.switch, self.forces, i_m, j_m,
            )
            self._tally(step, "lj", e_lj)
            self._tally(step, "elec", e_el)

    def bonded(self, step: int, term_indices: dict[str, np.ndarray]) -> None:
        """Evaluate one bonded compute's term subsets and accumulate."""
        total = 0.0
        for kind, idx in term_indices.items():
            if len(idx) == 0:
                continue
            total += _BONDED_KERNELS[kind](self.system, self.forces, idx)
        self._tally(step, "bonded", total)

    # ------------------------------------------------------------------ #
    def integrate(self, step: int, atoms: np.ndarray, first_round: bool) -> None:
        """Velocity-Verlet update of one patch's atoms.

        ``first_round`` means the incoming forces are F(x0): no completion
        half-kick exists yet.  The opening half-kick + drift for the next
        step always runs, so positions advance for the next position
        multicast.  (See module docstring of :mod:`repro.core.chares` for
        the exact correspondence with the sequential engine.)
        """
        f = self.forces[atoms]
        m = self.masses[atoms][:, None]
        half = 0.5 * self.dt * ACC_CONVERSION * f / m
        if not first_round:
            self.velocities[atoms] += half  # completes the previous step
        v2 = np.einsum("ij,ij->i", self.velocities[atoms], self.velocities[atoms])
        self._tally(
            step,
            "kinetic",
            float(0.5 / ACC_CONVERSION * np.dot(self.masses[atoms], v2)),
        )
        self.velocities[atoms] += half  # opens the next step
        self.positions[atoms] += self.dt * self.velocities[atoms]
        self.forces[atoms] = 0.0  # ready for the next accumulation round

    def clear_forces(self, atoms: np.ndarray) -> None:
        """Zero the force rows of the given atoms."""
        self.forces[atoms] = 0.0
