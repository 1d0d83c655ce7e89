"""Classic Ewald summation for full periodic electrostatics.

The paper's results cover the cutoff atom-based force components and note
(§1) that "even when full, long-range electrostatic interactions are
included in a simulation, these forces may be calculated via an efficient
combination of global grid-based and cutoff atom-based components.  The
results in this paper are directly applicable to the atom-based components
of such methods.  The remaining grid-based calculations consume a small
fraction of the total computation time."

This module provides that remaining component as an extension: classic
Ewald summation, with

* a real-space sum, short-ranged by ``erfc(alpha r)`` and evaluated under
  the minimum-image convention within a cutoff,
* a reciprocal-space sum over k-vectors with ``|m| <= kmax`` per axis,
* the self-energy and charged-background corrections, and
* exclusion corrections so the 1-2/1-3 pairs removed from the cutoff
  kernel are also removed from the periodic sum.

Validated in the tests against the NaCl Madelung constant and numerical
force differentiation.

:func:`compute_ewald` is the self-contained reference evaluation.  The
engines split it along the paper's line: the atom-based real-space term is
a mode of their force tasks' pair kernel (``backend.nb_pairs`` with
``alpha`` set), over the tasks' Verlet lists; the reciprocal sum is one
grid-based task, smooth particle-mesh Ewald (:func:`pme_reciprocal`: the
same k-set and ``alpha``, B-spline charge spreading and force
interpolation around one FFT pair); and :func:`ewald_remainder` supplies the
rest.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.backend import KernelBackend, get_backend
from repro.md.constants import COULOMB_CONSTANT
from repro.md.scatter import accumulate_pair_forces
from repro.md.system import MolecularSystem
from repro.util.pbc import minimum_image

__all__ = [
    "MAX_KMAX",
    "PME_ORDER",
    "EwaldEnergies",
    "EwaldOptions",
    "EwaldResult",
    "compute_ewald",
    "ewald_remainder",
    "pme_error",
    "pme_grid_shape",
    "pme_reciprocal",
]

#: Largest ``kmax`` the engines take.  It sizes the PME grid (eight points a
#: wavelength: 128³, 16 MB a buffer, at 16 — :func:`pme_grid_shape`),
#: allocated in a worker or a service lane from a number a request may
#: choose.
MAX_KMAX = 16

#: Order of the cardinal B-splines PME spreads and interpolates with.
PME_ORDER = 6
#: The PME grid's floor, in points per axis, and its coarsest spacing (Å)
PME_MIN_POINTS = 32
PME_MAX_SPACING = 1.0


@dataclass(frozen=True)
class EwaldOptions:
    """Ewald parameters.

    ``alpha`` balances the two sums: larger alpha shortens the real-space
    range but requires more k-vectors.  The default pairing (alpha = 3/cutoff,
    kmax ~ alpha * L) keeps both truncation errors ~1e-5 for typical boxes.

    ``recip_every = n`` is multiple time stepping, the pairing the paper's
    §1 quote has in mind: the engines evaluate the reciprocal (PME) task
    only on steps whose index is a multiple of ``n`` and apply its forces
    there ``n``-fold — the Verlet-I / r-RESPA impulse, ``n·dt·F_recip``
    over the two half kicks around the step.  Cell tasks (real space and
    LJ) and bonded groups run every step.  1 is plain velocity Verlet.
    """

    cutoff: float = 9.0
    alpha: float | None = None
    kmax: int = 8
    recip_every: int = 1

    def __post_init__(self) -> None:
        n = self.recip_every
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"recip_every must be an integer >= 1, got {n!r}")

    def alpha_value(self) -> float:
        """The effective real/reciprocal split parameter."""
        return self.alpha if self.alpha is not None else 3.0 / self.cutoff


@dataclass
class EwaldEnergies:
    """The five energy components of one Ewald evaluation (kcal/mol)."""

    energy_real: float
    energy_recip: float
    energy_self: float
    energy_background: float
    energy_exclusion: float

    @property
    def energy(self) -> float:
        """Total electrostatic energy (all Ewald components)."""
        return (
            self.energy_real
            + self.energy_recip
            + self.energy_self
            + self.energy_background
            + self.energy_exclusion
        )


@dataclass
class EwaldResult(EwaldEnergies):
    """Energy components (kcal/mol) and forces (kcal/mol/Å)."""

    forces: np.ndarray


def _real_space(
    system: MolecularSystem,
    alpha: float,
    cutoff: float,
    forces: np.ndarray,
    backend: KernelBackend,
) -> float:
    from repro.md.cells import candidate_pairs

    pos = system.positions
    box = system.box
    q = system.charges
    i_c, j_c = candidate_pairs(pos, box, cutoff)
    if len(i_c) == 0:
        return 0.0
    # drop fully excluded pairs from the real-space sum (their periodic
    # contribution is corrected separately); the distance test, erfc math,
    # and force scatter are fused in the backend kernel
    excl = system.exclusions
    keep = ~excl.is_excluded(i_c, j_c)
    i_c, j_c = i_c[keep], j_c[keep]
    if len(i_c) == 0:
        return 0.0
    qq = COULOMB_CONSTANT * q[i_c] * q[j_c]
    return backend.ewald_real(pos, box, i_c, j_c, qq, alpha, cutoff, forces)


def _kspace_tables(
    box: np.ndarray, kmax: int, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(k, k2, ak, m)`` reciprocal-space tables for one (box, kmax, alpha).

    ``k`` are the reciprocal vectors with ``|m| <= kmax`` per axis in one
    half space — one of every ``±k`` pair, ``((2 kmax + 1)³ - 1) / 2`` of
    them; a sum over the table is half the sum over all nonzero vectors —
    ``k2`` their squared norms, ``ak`` the ``exp(-k2/4a^2)/k2`` prefactors,
    ``m`` the int32 triplets ``k`` was built from.
    """
    box = np.asarray(box, dtype=np.float64).reshape(3)
    mx, my, mz = np.meshgrid(
        np.arange(-kmax, kmax + 1),
        np.arange(-kmax, kmax + 1),
        np.arange(-kmax, kmax + 1),
        indexing="ij",
    )
    m = np.stack([mx.ravel(), my.ravel(), mz.ravel()], axis=1).astype(np.int32)
    # k and -k contribute identically (callers double the prefactor): keep
    # the half space whose first nonzero index is positive — in this
    # lexicographic order, everything after the origin in the middle
    m = m[len(m) // 2 + 1 :]
    k = 2.0 * np.pi * m / box[None, :]
    k2 = np.einsum("ij,ij->i", k, k)
    ak = np.exp(-k2 / (4.0 * alpha * alpha)) / k2  # (nk,)
    return k, k2, ak, m


def pme_grid_shape(box: np.ndarray, kmax: int) -> tuple[int, int, int]:
    """The PME grid for ``box`` at ``kmax``: per axis, eight points a
    wavelength of the shortest mode kept, no coarser than
    :data:`PME_MAX_SPACING`, never fewer than :data:`PME_MIN_POINTS`, rounded
    up to a length ``scipy.fft`` factors fast.  Each of the three terms is
    what holds the error to the bound DESIGN states on some system: the
    first on dense boxes at large kmax, the floor on small boxes at small
    kmax, the spacing on a dilute solute in a large box.  A ``kmax``
    outside ``1 .. MAX_KMAX`` is refused."""
    from scipy.fft import next_fast_len

    if not 1 <= kmax <= MAX_KMAX:
        raise ValueError(f"PME needs 1 <= kmax <= {MAX_KMAX}, got {kmax}")
    return tuple(
        next_fast_len(
            max(8 * int(kmax), PME_MIN_POINTS, math.ceil(edge / PME_MAX_SPACING))
        )
        for edge in np.asarray(box, dtype=np.float64).reshape(3)
    )


def _pme_influence(
    box: np.ndarray, kmax: int, alpha: float
) -> tuple[np.ndarray, tuple[int, int, int]]:
    """PME's influence function for one (box, kmax, alpha) and the grid
    shape ``K`` it is for (:func:`pme_grid_shape`); the table is
    ``(K0, K1, K2 // 2 + 1)``, the layout of ``rfftn`` of the grid.

    On the classic sum's k-set — every nonzero ``m`` with ``|m_d| <= kmax``
    — it is ``K0 K1 K2 · C 4π/V · exp(-k²/4α²)/k² · B(m)``, ``B`` the
    B-spline moduli of the three axes (Essmann et al. 1995, eq. 4.8), and
    zero elsewhere: PME approximates the truncated classic sum, not a
    different one.  The leading product undoes ``irfftn``'s normalisation,
    so the inverse transform of the charges' spectrum times this table is
    the potential on the grid.
    """
    box = np.asarray(box, dtype=np.float64).reshape(3)
    shape = pme_grid_shape(box, kmax)
    # M_n at the integers 0 .. n (M_2 is 1 at 1), for the moduli
    spline = np.zeros(PME_ORDER + 1)
    spline[1] = 1.0
    for p in range(3, PME_ORDER + 1):
        j = np.arange(1, p)
        spline[1:p] = (j * spline[1:p] + (p - j) * spline[: p - 1]) / (p - 1)
    axes = []  # per axis: k², exp(-k²/4α²) B(m), and whether |m| <= kmax
    for d, size in enumerate(shape):
        m = np.arange(size // 2 + 1 if d == 2 else size)
        m = np.where(m > size // 2, m - size, m)  # the FFT's frequency order
        phase = np.exp(2j * np.pi * np.outer(m, np.arange(PME_ORDER + 1)) / size)
        k2 = (2.0 * np.pi * m / box[d]) ** 2
        factor = np.exp(-k2 / (4.0 * alpha * alpha)) / np.abs(phase @ spline) ** 2
        axes.append((k2, factor, np.abs(m) <= kmax))
    (k2x, fx, inx), (k2y, fy, iny), (k2z, fz, inz) = axes
    k2 = k2x[:, None, None] + k2y[None, :, None] + k2z[None, None, :]
    kept = inx[:, None, None] & iny[None, :, None] & inz[None, None, :]
    kept[0, 0, 0] = False
    k2[0, 0, 0] = 1.0  # the origin is masked; no division by zero
    pref = math.prod(shape) * COULOMB_CONSTANT * 4.0 * np.pi / float(np.prod(box))
    factor = fx[:, None, None] * fy[None, :, None] * fz[None, None, :]
    return np.where(kept, pref * factor / k2, 0.0), shape


def pme_reciprocal(
    positions: np.ndarray,
    charges: np.ndarray,
    box: np.ndarray,
    influence: tuple[np.ndarray, tuple[int, int, int]],
    forces: np.ndarray,
    backend: KernelBackend,
    grid: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """The reciprocal-space energy by smooth PME, and the charge grid it
    used; forces accumulate into ``forces``.

    ``influence`` is :func:`_pme_influence` of ``box`` — the caller builds
    it and keeps it for as long as the box holds.  ``backend.pme_spread``
    puts the charges on the grid, one ``rfftn`` → multiply by the influence
    function → ``irfftn`` (``scipy.fft`` on one thread) turns them into the
    potential, and ``backend.pme_gather`` interpolates it back.  ``grid`` is
    the buffer the last call returned, to be reused (a new one is allocated
    when it is None or of another shape than the table's grid).
    """
    from scipy import fft

    table, shape = influence
    if grid is None or grid.shape != shape:
        grid = np.empty(shape)
    backend.pme_spread(positions, charges, box, grid, PME_ORDER)
    spectrum = fft.rfftn(grid)
    spectrum *= table
    potential = fft.irfftn(spectrum, s=shape)
    energy = backend.pme_gather(positions, charges, box, potential, PME_ORDER, forces)
    return energy, grid


def pme_error(
    system: MolecularSystem,
    options: EwaldOptions,
    backend: KernelBackend | str | None = None,
) -> dict[str, float]:
    """PME against the classic reciprocal sum at ``system``'s positions:
    ``energy`` is the relative energy error, ``force`` the RMS force error
    relative to the classic forces' RMS."""
    be = get_backend(backend)
    alpha = options.alpha_value()
    classic = np.zeros((system.n_atoms, 3))
    e_classic = _reciprocal_space(system, alpha, options.kmax, classic, be)
    pme = np.zeros_like(classic)
    influence = _pme_influence(system.box, options.kmax, alpha)
    e_pme, _ = pme_reciprocal(
        system.positions, system.charges, system.box, influence, pme, be
    )
    return {
        "energy": abs(e_pme - e_classic) / abs(e_classic),
        "force": float(np.sqrt(np.mean((pme - classic) ** 2) / np.mean(classic**2))),
    }


def _reciprocal_space(
    system: MolecularSystem,
    alpha: float,
    kmax: int,
    forces: np.ndarray,
    backend: KernelBackend,
) -> float:
    pos = system.positions
    box = system.box
    q = system.charges
    volume = float(np.prod(box))

    k, _k2, ak, m = _kspace_tables(box, kmax, alpha)
    if len(k) == 0:  # kmax=0: only the excluded m=0 term — nothing to sum
        return 0.0

    # twice C 2π/V: the table holds one of every ±k pair
    pref = COULOMB_CONSTANT * 4.0 * np.pi / volume
    return backend.ewald_recip(pos, q, k, ak, pref, forces, m)


def _exclusion_correction(
    system: MolecularSystem, alpha: float, forces: np.ndarray
) -> float:
    """Remove the reciprocal-sum interaction of excluded pairs.

    The k-space sum includes *all* pairs; for an excluded pair (i, j) the
    unwanted screened-complement interaction qiqj erf(alpha r)/r must be
    subtracted (standard Ewald exclusion handling).
    """
    from scipy.special import erf

    excl = system.exclusions
    if excl.n_excluded == 0:
        return 0.0
    # decoded (i, j) arrays are cached per Exclusions instance — the table
    # only changes when a topology edit rebuilds the exclusions object
    i_c, j_c = excl.excluded_pairs()
    pos = system.positions
    delta = minimum_image(pos[j_c] - pos[i_c], system.box)
    r2 = np.einsum("ij,ij->i", delta, delta)
    r = np.sqrt(np.maximum(r2, 1e-12))
    qq = COULOMB_CONSTANT * system.charges[i_c] * system.charges[j_c]
    erf_term = erf(alpha * r)
    energy = float(-np.sum(qq * erf_term / r))
    # d/dr [ -qq erf(ar)/r ] = -qq [ 2a/sqrt(pi) exp(-a^2r^2)/r - erf(ar)/r^2 ]
    dE_dr = -qq * (
        (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * r) ** 2) / r
        - erf_term / r2
    )
    fvec = (dE_dr / r)[:, None] * delta
    accumulate_pair_forces(forces, i_c, j_c, fvec)
    return energy


def ewald_remainder(
    system: MolecularSystem,
    options: EwaldOptions,
    forces: np.ndarray,
) -> EwaldEnergies:
    """The Ewald components that are neither pair sum nor k-space sum.

    The O(n_excluded) exclusion correction (into ``forces``) and the
    constant self and charged-background terms.  ``energy_real`` and
    ``energy_recip`` are left 0 for the caller's sums: :func:`compute_ewald`
    adds :func:`_real_space` and :func:`_reciprocal_space`, the engines
    their force tasks' fused pair kernel and PME task.
    """
    alpha = options.alpha_value()
    q = system.charges
    volume = float(np.prod(system.box))
    e_excl = _exclusion_correction(system, alpha, forces)
    e_self = float(-COULOMB_CONSTANT * alpha / np.sqrt(np.pi) * np.sum(q * q))
    total_charge = float(q.sum())
    e_bg = float(
        -COULOMB_CONSTANT * np.pi / (2.0 * volume * alpha * alpha) * total_charge**2
    )
    return EwaldEnergies(
        energy_real=0.0,
        energy_recip=0.0,
        energy_self=e_self,
        energy_background=e_bg,
        energy_exclusion=e_excl,
    )


def compute_ewald(
    system: MolecularSystem,
    options: EwaldOptions | None = None,
    backend: KernelBackend | str | None = None,
    recip: bool = True,
) -> EwaldResult:
    """Full periodic electrostatic energy and forces via Ewald summation.

    The reference implementation: the real-space sum enumerates the cell
    candidates afresh on every call (:func:`_real_space`) and the
    reciprocal sum is the classic one over every k-vector
    (:func:`_reciprocal_space`; skipped with ``recip=False``, leaving
    ``energy_recip`` 0 and its forces absent), with nothing carried between
    calls.  The engines evaluate the same quantity as force tasks plus
    :func:`ewald_remainder`, the reciprocal part by PME; tests hold them to
    this function.
    """
    options = options or EwaldOptions()
    be = get_backend(backend)
    alpha = options.alpha_value()
    forces = np.zeros((system.n_atoms, 3))
    system.wrap(be)
    e_real = _real_space(system, alpha, options.cutoff, forces, be)
    e_recip = (
        _reciprocal_space(system, alpha, options.kmax, forces, be)
        if recip
        else 0.0
    )
    energies = ewald_remainder(system, options, forces)
    energies.energy_real = e_real
    energies.energy_recip = e_recip
    return EwaldResult(**vars(energies), forces=forces)
