"""Segment-sum force accumulation (validated entry to the backend scatter).

``np.add.at`` is correct for duplicate indices but dispatches through the
generic ufunc inner loop, which is an order of magnitude slower than a
vectorized pass.  ``np.bincount`` computes the same segment sums with a
single C loop per component.  The actual scatter lives in the kernel
backend (:mod:`repro.backend`): the numpy reference picks bincount or
``add.at`` by fill ratio (the ``c`` backend keeps the reference's).

Index validation happens once here, at the public entry point.  The two
numpy paths used to disagree on bad input — ``np.add.at`` silently *wraps*
negative indices (accumulating into the wrong atoms) while ``np.bincount``
raises — so whether a corrupt pair list crashed or silently misfolded
forces depended on the fill-ratio heuristic.  Both paths (and every
backend) now raise the same ``ValueError``.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend

__all__ = ["segment_add", "accumulate_pair_forces"]


def segment_add(
    out: np.ndarray,
    idx: np.ndarray,
    contrib: np.ndarray,
    backend=None,
) -> None:
    """Accumulate ``contrib[p]`` into ``out[idx[p]]`` (duplicates summed).

    ``out`` has shape ``(n, k)`` and ``contrib`` shape ``(m, k)`` for small
    ``k`` (force components).  Indices are validated once at entry: any
    index outside ``[0, n)`` raises ``ValueError`` regardless of which
    scatter path or backend runs.  ``backend`` is a
    :class:`repro.backend.KernelBackend` (or spec); ``None`` uses the
    session default.
    """
    idx = np.asarray(idx)
    if idx.size == 0:
        return
    n = out.shape[0]
    imin = int(idx.min())
    imax = int(idx.max())
    if imin < 0 or imax >= n:
        raise ValueError(
            f"segment_add: scatter indices must lie in [0, {n}); "
            f"got range [{imin}, {imax}]"
        )
    get_backend(backend).segment_add(out, idx, contrib)


def accumulate_pair_forces(
    forces: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    fvec: np.ndarray,
    backend=None,
) -> None:
    """Newton's-third-law scatter: ``forces[i] += fvec``, ``forces[j] -= fvec``."""
    segment_add(forces, i, fvec, backend=backend)
    segment_add(forces, j, -fvec, backend=backend)
