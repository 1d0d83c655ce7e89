"""The Ewald real-space pair term as a table in ``r²`` — one table, read by
both backends' pair kernels.

What a pair needs under Ewald is two functions of its squared distance
``s = r²``: the energy ``E(s) = erfc(αr)/r`` and the force factor ``F(s) =
(erfc(αr)/r + 2α/√π·exp(−α²r²))/r²`` (``dE/dr / r = −F``).  Evaluated
directly that is an ``erfc``, an ``exp``, a square root and a division per
pair; here each is a cubic per interval of ``s``, four multiply-adds.

The intervals are addressed by the IEEE-754 bits of ``s``: every octave
``[2^e, 2^(e+1))`` is cut into :data:`INTERVALS_PER_OCTAVE` equal intervals,
so the top bits of the double — exponent and the first nine of the mantissa
— *are* the interval number (less that of :data:`R2_FIRST`, the first node),
and the same bits with the rest of the mantissa cleared are the interval's
lower node.  No logarithm, no division, and the offset ``s − node`` is exact.
Interval width follows the scale of ``s``, which is what the functions'
``s^(−1/2)`` and ``s^(−3/2)`` heads need.

One interval is eight doubles, one 64-byte line: the cubic-Hermite
coefficients of ``E`` then of ``F`` in powers of ``s − node``, matching value
and derivative at both of the interval's nodes (``dE/ds = −F/2``, ``dF/ds =
−(3F/2 + α²·2α/√π·exp(−α²s))/s``).  The node values come from
``scipy.special.erfc`` and ``numpy.exp``; both kernels evaluate ``c0 + u(c1
+ u(c2 + u c3))`` in that order, so from one table they get the same bits.

Accuracy (``tests/test_backend/test_ewald_table.py`` measures it on both
backends; DESIGN.md has the argument): against the bare Coulomb term the
error is at most 3e-13 of ``1/r`` and 3e-12 of ``1/r³`` anywhere, for any
``α``; against the term itself it grows with ``(α²s)⁴`` and stays under 1e-9
up to ``α·cutoff = 3.3`` (the default pairing is 3).

Below :data:`R2_FIRST` — closer than 1 Å, which no liquid reaches — the
kernels evaluate the expressions themselves (:func:`exact_terms`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "INTERVALS_PER_OCTAVE",
    "R2_FIRST",
    "ewald_table",
    "ewald_terms",
    "exact_terms",
    "interval_nodes",
    "interval_of",
    "measured_error",
]

#: a power of two; ``kernels.c`` holds its logarithm as ``TAB_OCTAVE_BITS``
#: and the registry's parity self-check fails if the two ever disagree
INTERVALS_PER_OCTAVE = 512
#: the table's first node (Å²), a power of two
R2_FIRST = 1.0

_SHIFT = np.uint64(52 - INTERVALS_PER_OCTAVE.bit_length() + 1)
_NODE_MASK = ~((np.uint64(1) << _SHIFT) - np.uint64(1))


def _top_bits(r2) -> np.ndarray:
    return np.asarray(r2, dtype=np.float64).view(np.uint64) >> _SHIFT


_FIRST = int(_top_bits(R2_FIRST))


def interval_of(r2) -> np.ndarray:
    """The table interval holding each ``r2`` (negative below the first
    node); monotonic in ``r2``, so a table that covers its cutoff covers
    every distance inside it."""
    return _top_bits(r2).astype(np.int64) - _FIRST


def interval_nodes(n: int) -> np.ndarray:
    """The ``n + 1`` nodes of the first ``n`` intervals: entry ``k`` is the
    lower node of interval ``k`` and the upper node of the one before."""
    return ((np.arange(n + 1, dtype=np.uint64) + np.uint64(_FIRST)) << _SHIFT).view(
        np.float64
    )


def _terms(alpha: float, r2: np.ndarray) -> tuple[np.ndarray, ...]:
    """``E``, ``F`` and the Gaussian ``2α/√π·exp(−α²r²)`` they share."""
    from scipy.special import erfc

    r = np.sqrt(r2)
    energy = erfc(alpha * r) / r
    gauss = (2.0 * alpha / np.sqrt(np.pi)) * np.exp(-(alpha * alpha) * r2)
    return energy, (energy + gauss) / r2, gauss


def exact_terms(alpha: float, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(E, F)`` of the module docstring from ``scipy.special.erfc``: what
    the table interpolates and what it is held to."""
    return _terms(alpha, r2)[:2]


@lru_cache(maxsize=16)
def ewald_table(alpha: float, cutoff: float) -> np.ndarray:
    """The ``(n, 8)`` table for one ``(alpha, ewald_cutoff)``: every interval
    from :data:`R2_FIRST` to the one holding ``cutoff²``, read-only and
    aligned to its 64-byte lines.  Memoised: an engine, its workers and the
    oracle's pair pass share one per process."""
    n = int(interval_of(cutoff * cutoff)) + 1
    if n < 1:
        raise ValueError(f"Ewald cutoff {cutoff!r} lies below the table's first node")
    nodes = interval_nodes(n)
    width = np.diff(nodes)
    energy, force, gauss = _terms(alpha, nodes)
    slopes = (-0.5 * force, -(1.5 * force + alpha * alpha * gauss) / nodes)

    raw = np.empty(8 * n + 7)
    table = raw[(-raw.ctypes.data % 64) // 8 :][: 8 * n].reshape(n, 8)
    for k, (f, df) in enumerate(zip((energy, force), slopes)):
        rise = (f[1:] - f[:-1]) / width
        table[:, 4 * k] = f[:-1]
        table[:, 4 * k + 1] = df[:-1]
        table[:, 4 * k + 2] = (3.0 * rise - 2.0 * df[:-1] - df[1:]) / width
        table[:, 4 * k + 3] = (df[:-1] + df[1:] - 2.0 * rise) / (width * width)
    table.flags.writeable = False
    return table


def ewald_terms(table: np.ndarray, alpha: float, r2: np.ndarray):
    """``(E, F)`` of every ``r2`` as the pair kernels evaluate them: from
    ``table`` (which must cover them) in the kernels' Horner order, from
    :func:`exact_terms` below the first node.  Both arrays are fresh."""
    below = r2 < R2_FIRST
    near = bool(below.any())
    s = np.where(below, R2_FIRST, r2) if near else r2
    bits = s.view(np.uint64)
    first = 8 * ((bits >> _SHIFT).astype(np.int64) - _FIRST)  # c0 of E, flat
    u = s - (bits & _NODE_MASK).view(np.float64)
    flat = table.reshape(-1)
    out = []
    for c0 in (first, first + 4):
        value = flat.take(c0 + 3)
        for k in (2, 1, 0):
            value *= u
            value += flat.take(c0 + k)
        out.append(value)
    if near:
        out[0][below], out[1][below] = exact_terms(alpha, r2[below])
    return out[0], out[1]


def measured_error(alpha: float, cutoff: float) -> dict[str, float]:
    """The table's largest error against :func:`exact_terms` over seven
    points inside every interval (the midpoint, where a Hermite cubic's
    error peaks, among them): ``of_term`` relative to ``E`` and ``F``
    themselves, ``of_coulomb`` relative to ``1/r`` and ``1/r³``."""
    table = ewald_table(alpha, cutoff)
    nodes = interval_nodes(len(table))
    r2 = (nodes[:-1, None] + np.arange(1, 8) / 8.0 * np.diff(nodes)[:, None]).ravel()
    r2 = r2[r2 < cutoff * cutoff]
    got, want = ewald_terms(table, alpha, r2), exact_terms(alpha, r2)
    err = [np.abs(g - w) for g, w in zip(got, want)]
    return {
        "of_term": float(max(np.max(e / w) for e, w in zip(err, want))),
        "of_coulomb": float(max(np.max(err[0] * np.sqrt(r2)), np.max(err[1] * r2**1.5))),
    }
