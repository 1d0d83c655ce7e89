"""The ``c`` backend: ``kernels.c`` built with the host's ``cc``, through ctypes.

The shared object is compiled on first use and cached under
``${XDG_CACHE_HOME:-~/.cache}/repro/``, keyed by a hash of the source, the
flags and ``cc --version`` — a new compiler or an edited kernel is a new
file, never a stale one.  The flags (:data:`FLAGS`) are fixed: ``-O2`` with
``-ffp-contract=off`` and neither ``-ffast-math`` nor ``-march=native``,
because hosts sharing a home directory share the cache and a result must
not depend on which of them compiled it.  ``-fno-math-errno`` changes no
value: it only drops ``errno`` for ``sqrt`` of a negative number (and the
like), so a square root is the instruction and nothing branches around
it — which is what lets the pair kernels' loops run in vector lanes.  The
one target-specific code is in the object, not the flags: ``nb_pairs``,
``nb_rows`` and ``block_pairs`` (:data:`DISPATCHED_KERNELS`) are each one
body built twice, portable and for AVX-512F, and the loader resolves each
to one build once, on the CPU that loads it (x86-64 GCC with glibc; the
portable body alone elsewhere).  The AVX-512F builds of ``nb_rows`` and
``block_pairs`` (:data:`LANE_COMPACTION`) also compact their hits in vector
lanes.  Every build computes the same bits; ``kernels.c`` has why.

:func:`build_backend` is the numpy reference with ``nb_pairs``,
``ewald_recip``, ``bonded_terms``, the two PME halves, ``block_pairs`` and
``nb_rows`` replaced.  It raises on any failure (no compiler, compile error or timeout,
load error); the registry turns that — and a failed parity self-check — into the numpy fallback.
:data:`build_info` says what the last build did, which build the loader
resolved each dispatched kernel to on this CPU and whether its compaction
runs in lanes, for ``repro backends``.
"""

from __future__ import annotations

import atexit
import ctypes
import dataclasses
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time
from importlib import resources
from pathlib import Path

import numpy as np

from repro.backend import reference
from repro.backend.base import KernelBackend
from repro.backend.ewald_table import ewald_table

__all__ = [
    "DISPATCHED_KERNELS", "FLAGS", "LANE_COMPACTION", "build_backend", "build_info",
]

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")
COMPILE_TIMEOUT_S = 120.0

#: kernels.c: BLOCK_WORK doubles of scratch per atom of cell b, and its
#: "index out of range" return (-1 is the contract's "does not fit")
BLOCK_WORK = 5
BLOCK_BAD_INDEX = -2
#: the list-mode arguments of ``block_pairs`` in count mode: no exclusion
#: table (three), no row list (cols, row_ptr, offset, capacity)
_COUNT_MODE = (None, None, 0, None, None, 0, 0)
#: kernels.c: doubles of gather scratch ``nb_rows`` needs per block row
ROWS_WORK = 5
#: the kernels ``kernels.c`` builds twice (``KERNEL_BUILDS``); one resolver
#: test picks the same build for all of them
DISPATCHED_KERNELS = ("nb_pairs", "nb_rows", "block_pairs")
#: those whose AVX-512F build compacts its hits in vector lanes (the body
#: passes ``lanes`` on); ``nb_pairs`` compacts pair by pair in both builds
LANE_COMPACTION = ("nb_rows", "block_pairs")
_INT32 = np.iinfo(np.int32)
#: atoms per term of the bonded kinds ``kernels.c`` knows
_BONDED_WIDTH = {0: 2, 1: 3, 2: 4, 3: 4}

#: compiler path, flags, cache file, "compiled" / "cache hit", seconds, the
#: dispatch (``avx512f`` or ``portable`` as resolved on this CPU, ``none``
#: for an object with the portable bodies alone) and, per dispatched kernel,
#: its build and whether it compacts in lanes, of the last
#: :func:`build_backend` in this process
build_info: dict[str, object] = {}


def _cache_dir() -> Path:
    """The shared cache directory or, when it cannot be had, a private
    temporary one for the life of the process."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join("~", ".cache")
    shared = Path(root).expanduser() / "repro"
    try:
        shared.mkdir(mode=0o700, parents=True, exist_ok=True)
        if os.access(shared, os.W_OK | os.X_OK):
            return shared
    except OSError:
        pass
    private = tempfile.mkdtemp(prefix="repro-backend-")
    atexit.register(shutil.rmtree, private, ignore_errors=True)
    return Path(private)


def _load(path: Path) -> ctypes.CDLL:
    """``path`` as a library with the kernels' signatures declared."""
    lib = ctypes.CDLL(str(path))
    ptr, f8, i8 = ctypes.c_void_p, ctypes.c_double, ctypes.c_int64
    lib.nb_pairs.restype = i8
    lib.nb_pairs.argtypes = [
        ptr, i8, ptr, ptr, ptr, ctypes.c_int, i8, ptr, ptr, ptr,
        f8, f8, f8, f8, ptr, i8, ptr, i8, ptr, ptr, ctypes.c_int, ptr,
    ]
    lib.ewald_recip.restype = ctypes.c_int
    lib.ewald_recip.argtypes = [ptr, ptr, i8, ptr, ptr, ptr, i8, f8, ptr, ptr, ptr]
    lib.block_pairs.restype = i8
    lib.block_pairs.argtypes = [
        ptr, i8, ptr, ptr, i8, ptr, i8, i8, i8, f8,
        ptr, ptr, i8, ptr, ptr, i8, i8, ptr,
    ]
    lib.bonded_terms.restype = ctypes.c_int
    lib.bonded_terms.argtypes = [
        ptr, i8, ptr, ctypes.c_int, ptr, ptr, i8, ptr, ptr, ptr, ptr, i8, ptr,
    ]
    lib.pme_spread.restype = ctypes.c_int
    lib.pme_spread.argtypes = [ptr, ptr, i8, ptr, ptr, ctypes.c_int, ptr]
    lib.pme_gather.restype = ctypes.c_int
    lib.pme_gather.argtypes = [ptr, ptr, i8, ptr, ptr, ctypes.c_int, ptr, ptr, ptr]
    lib.kernel_build.restype = ctypes.c_char_p
    lib.kernel_build.argtypes = []
    lib.nb_rows.restype = i8
    lib.nb_rows.argtypes = [
        ptr, i8, ptr, ptr, ptr, ptr, ptr, i8, ptr, i8, ptr, ptr, i8, ptr, i8,
        f8, f8, f8, f8, ptr, i8, ptr, i8, ptr, ptr, i8, ptr,
    ]
    return lib


def _sealed(path: Path) -> bool:
    """Whether ``path`` holds a whole object: its last 32 bytes are the
    sha256 of the rest.  Checked before every load, because the dynamic
    loader answers a truncated file with a bus error, not an exception."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return len(data) > 32 and hashlib.sha256(data[:-32]).digest() == data[-32:]


def _library() -> ctypes.CDLL:
    """Load the cached object for this source, flags, compiler and machine,
    building it first when it is missing or torn."""
    started = time.perf_counter()
    build_info.clear()
    cc = shutil.which("cc")
    if cc is None:
        raise RuntimeError("no C compiler ('cc') on PATH")
    source = resources.files("repro.backend").joinpath("kernels.c").read_bytes()
    version = subprocess.run(
        [cc, "--version"], capture_output=True, check=True, timeout=COMPILE_TIMEOUT_S
    ).stdout
    stamp = f"{' '.join(FLAGS)} {platform.machine()} ".encode()
    key = hashlib.sha256(source + stamp + version).hexdigest()[:16]
    path = _cache_dir() / f"kernels-{key}.so"
    build_info.update(
        compiler=cc, flags=" ".join(FLAGS), cache_file=str(path), source="cache hit"
    )
    if not _sealed(path):
        _compile(cc, source, path)
        build_info["source"] = "compiled"
    lib = _load(path)
    build_info["seconds"] = time.perf_counter() - started
    build_info.update(_dispatch_of(lib))
    return lib


def _dispatch_of(lib: ctypes.CDLL) -> dict[str, object]:
    """The build the loaded ``lib`` resolved its dispatched kernels to on
    this CPU, and each kernel's build and compaction."""
    dispatch = lib.kernel_build().decode()
    build = "portable" if dispatch == "none" else dispatch
    kernels = {
        name: {"build": build, "lanes": build == "avx512f" and name in LANE_COMPACTION}
        for name in DISPATCHED_KERNELS
    }
    return {"dispatch": dispatch, "kernels": kernels}


def _compile(cc: str, source: bytes, path: Path) -> None:
    """``source`` built with :data:`FLAGS` into the sealed object ``path``."""
    # build under a private name and rename: of two processes racing on
    # an empty cache, each ends with a complete file
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source, capture_output=True, check=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        with open(tmp, "r+b") as built:
            digest = hashlib.sha256(built.read()).digest()
            built.write(digest)  # trailing bytes the loader ignores
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(
            f"{cc} failed: {exc.stderr.decode(errors='replace').strip()[-500:]}"
        ) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _f8(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i8(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _index_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two index arrays as the kernels read them: both int32, when that is
    how they are stored, or both int64."""
    as_stored = np.int32 == a.dtype == b.dtype
    if as_stored and a.flags.c_contiguous and b.flags.c_contiguous:
        return a, b
    return _i8(a), _i8(b)


def _writable(a, dtype, ndim: int) -> bool:
    """Whether the kernels can write ``a`` in place as ``dtype``."""
    return (
        isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == ndim
        and a.flags.c_contiguous and a.flags.writeable
    )


def _columns(cols, row_ptr, row_off) -> np.ndarray:
    """``cols`` as the int32 ``nb_rows`` reads.  A column that int32 cannot
    hold names no block row, so it is refused as the reference refuses any
    column outside its block — an ``IndexError`` naming the task whose list
    holds it — and never wrapped into one that does."""
    cols = np.asarray(cols)
    if cols.dtype != np.int32 and len(cols):
        wide = (cols < _INT32.min) | (cols > _INT32.max)
        if wide.any():
            # task t's list ends at row_ptr[row_off[t + 1] + t]
            ends = row_ptr[row_off[1:] + np.arange(len(row_off) - 1)]
            t = np.searchsorted(ends, np.flatnonzero(wide)[0], side="right")
            raise IndexError(reference.CORRUPT.format(min(t, len(ends) - 1)))
    return np.ascontiguousarray(cols, dtype=np.int32)


def _pair_mode(alpha, ewald_cutoff) -> tuple:
    """The pair kernels' electrostatics arguments ``alpha, ewald_cutoff, tab,
    n_tab``: in cutoff mode the kernel's "unset" — ``alpha <= 0`` — and no
    table, in Ewald mode the memoised table (``data_as`` keeps the array
    alive for as long as the pointer)."""
    if alpha is None:
        return 0.0, 0.0, None, 0
    table = ewald_table(float(alpha), float(ewald_cutoff))
    return alpha, ewald_cutoff, table.ctypes.data_as(ctypes.c_void_p), len(table)


_SHORT_TABLE = "Ewald table stops short of the real-space cutoff"
_PME_REFUSED = (
    f"B-spline order outside [2, {reference.PME_MAX_ORDER}] or a grid axis "
    "shorter than the order"
)


def _pme_atoms(pos, q, box, grid) -> tuple:
    """``pos, q, box`` as the PME kernels read them, and the grid's shape."""
    pos, q, box = _f8(pos), _f8(q), _f8(box)
    if pos.ndim != 2 or pos.shape[1] != 3 or q.shape != (len(pos),) or box.shape != (3,):
        raise ValueError("PME needs positions (n, 3), charges (n,) and three box edges")
    if np.ndim(grid) != 3:
        raise ValueError("the PME grid must have three axes")
    return pos, q, box, np.asarray(np.shape(grid), dtype=np.int64)


def _force_rows(forces: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``forces`` itself when the kernels can accumulate into it, else a
    zeroed stand-in for the caller to add back; both arrays ``(rows, 3)``."""
    if not (pos.ndim == forces.ndim == 2 and pos.shape[1] == forces.shape[1] == 3):
        raise ValueError("positions and forces must have shape (rows, 3)")
    if forces.dtype == np.float64 and forces.flags.c_contiguous:
        return forces
    return np.zeros(forces.shape)


def build_backend() -> KernelBackend:
    """The ``c`` backend instance; raises when the library cannot be had."""
    return _backend_of(_library())


def _backend_of(lib: ctypes.CDLL) -> KernelBackend:
    """The numpy reference with the kernels of the loaded ``lib`` in place."""

    def nb_pairs(pos, box, i_idx, j_idx, eps, rmin, qq, cutoff, switch,
                 forces, si, sj, alpha=None, ewald_cutoff=None):
        m = len(i_idx)
        if m == 0:
            return 0.0, 0.0, 0
        mode = _pair_mode(alpha, ewald_cutoff)
        pos, box, eps, rmin, qq = _f8(pos), _f8(box), _f8(eps), _f8(rmin), _f8(qq)
        i_idx, j_idx = _index_pair(i_idx, j_idx)
        si, sj = _index_pair(si, sj)
        if {len(j_idx), len(si), len(sj), len(eps), len(rmin), len(qq)} != {m}:
            raise ValueError("pair list arrays differ in length")
        if len(box) != 3:
            raise ValueError("box must have three edges")
        out = _force_rows(forces, pos)
        energies = (ctypes.c_double * 2)()
        n_pairs = lib.nb_pairs(
            pos.ctypes.data, len(pos), box.ctypes.data,
            i_idx.ctypes.data, j_idx.ctypes.data, i_idx.itemsize == 8, m,
            eps.ctypes.data, rmin.ctypes.data, qq.ctypes.data,
            cutoff, switch, *mode,
            out.ctypes.data, len(out), si.ctypes.data, sj.ctypes.data,
            si.itemsize == 8, energies,
        )
        if n_pairs == -2:
            raise ValueError(_SHORT_TABLE)
        if n_pairs < 0:
            raise IndexError("pair list index out of range")
        if out is not forces:
            forces += out
        return energies[0], energies[1], n_pairs

    def ewald_recip(pos, q, kvecs, ak, pref, forces, mvecs=None):
        nk = len(kvecs)
        if mvecs is None or nk == 0:  # no triplets to factorise over
            return reference.ewald_recip(pos, q, kvecs, ak, pref, forces)
        pos, q, kvecs, ak = _f8(pos), _f8(q), _f8(kvecs), _f8(ak)
        mvecs = np.ascontiguousarray(mvecs, dtype=np.int32)
        if kvecs.shape != (nk, 3) or mvecs.shape != (nk, 3) or ak.shape != (nk,):
            raise ValueError("k-space tables differ in length")
        if forces.shape != pos.shape or q.shape != (len(pos),):
            raise ValueError("positions, charges and forces differ in length")
        out = _force_rows(forces, pos)
        work = np.empty(2 * nk)
        energy = ctypes.c_double()
        if lib.ewald_recip(
            pos.ctypes.data, q.ctypes.data, len(pos), kvecs.ctypes.data,
            ak.ctypes.data, mvecs.ctypes.data, nk, pref, out.ctypes.data,
            work.ctypes.data, ctypes.byref(energy),
        ):  # an |m| beyond the kernel's tables
            return reference.ewald_recip(pos, q, kvecs, ak, pref, forces)
        if out is not forces:
            forces += out
        return energy.value

    def bonded_terms(pos, box, kind, idx, kpar, p1, p2, forces, sidx):
        m = len(idx)
        if m == 0:
            return 0.0
        if kind not in _BONDED_WIDTH:  # the reference says what is wrong with it
            return reference.bonded_terms(pos, box, kind, idx, kpar, p1, p2, forces, sidx)
        pos, box, idx, sidx = _f8(pos), _f8(box), _i8(idx), _i8(sidx)
        kpar, p1, p2 = _f8(kpar), _f8(p1), _f8(p2)
        if idx.shape != (m, _BONDED_WIDTH[kind]) or sidx.shape != idx.shape:
            raise ValueError("term and scatter indices must both be (m, arity)")
        if {len(kpar), len(p1), len(p2)} != {m} or len(box) != 3:
            raise ValueError("term parameter arrays differ in length")
        out = _force_rows(forces, pos)
        energy = ctypes.c_double()
        if lib.bonded_terms(
            pos.ctypes.data, len(pos), box.ctypes.data, kind, idx.ctypes.data,
            sidx.ctypes.data, m, kpar.ctypes.data, p1.ctypes.data, p2.ctypes.data,
            out.ctypes.data, len(out), ctypes.byref(energy),
        ):
            raise IndexError("bonded term index out of range")
        if out is not forces:
            forces += out
        return energy.value

    def pme_spread(pos, q, box, grid, order):
        pos, q, box, dims = _pme_atoms(pos, q, box, grid)
        if not _writable(grid, np.float64, 3):
            raise ValueError("the PME grid must be C-contiguous float64")
        if lib.pme_spread(
            pos.ctypes.data, q.ctypes.data, len(pos), box.ctypes.data,
            dims.ctypes.data, order, grid.ctypes.data,
        ):
            raise ValueError(_PME_REFUSED)

    def pme_gather(pos, q, box, grid, order, forces):
        pos, q, box, dims = _pme_atoms(pos, q, box, grid)
        grid = _f8(grid)
        out = _force_rows(forces, pos)
        if forces.shape != pos.shape:
            raise ValueError("positions and forces differ in length")
        energy = ctypes.c_double()
        if lib.pme_gather(
            pos.ctypes.data, q.ctypes.data, len(pos), box.ctypes.data,
            dims.ctypes.data, order, grid.ctypes.data, out.ctypes.data,
            ctypes.byref(energy),
        ):
            raise ValueError(_PME_REFUSED)
        if out is not forces:
            forces += out
        return energy.value

    def block_pairs(pos, box, atoms_a, atoms_b, part, n_parts, r,
                    tables=None, out=None, offset=0):
        pos, box, atoms_a = _f8(pos), _f8(box), _i8(atoms_a)
        if pos.ndim != 2 or pos.shape[1] != 3 or len(box) != 3:
            raise ValueError("positions must have shape (rows, 3), box three edges")
        if not 0 <= part < n_parts:
            raise ValueError("part must lie in [0, n_parts)")
        n_atoms, nb = len(pos), len(atoms_a)
        b_ptr = None  # the self block
        if atoms_b is not None:
            atoms_b = _i8(atoms_b)
            b_ptr, nb = atoms_b.ctypes.data, len(atoms_b)
        work = np.empty(BLOCK_WORK * nb)
        if tables is None:
            listing = _COUNT_MODE
        else:
            excl_ptr, partners = (_i8(t) for t in tables)
            if len(excl_ptr) != n_atoms + 1:
                raise ValueError("exclusion table does not match the positions")
            cols, row_ptr = out
            stripe = len(range(part, len(atoms_a), n_parts))
            n_rows = len(atoms_a) if atoms_b is None else stripe + nb
            if not (_writable(cols, np.int32, 1) and _writable(row_ptr, np.int64, 1)):
                raise ValueError("out must be C-contiguous (int32 cols, int64 row_ptr)")
            if len(row_ptr) != n_rows + 1:
                raise ValueError("row_ptr must hold one entry per block row plus one")
            if offset < 0:
                raise ValueError("offset must not be negative")
            listing = (
                excl_ptr.ctypes.data, partners.ctypes.data, len(partners),
                cols.ctypes.data, row_ptr.ctypes.data, offset, len(cols),
            )
        n = lib.block_pairs(
            pos.ctypes.data, n_atoms, box.ctypes.data, atoms_a.ctypes.data,
            len(atoms_a), b_ptr, nb, part, n_parts, r, *listing, work.ctypes.data,
        )
        if n == BLOCK_BAD_INDEX:
            raise IndexError("block atom index out of range")
        return n  # the count, or -1: does not fit

    def nb_rows(pos, box, tables, lists, cutoff, switch, scratch, block_off, out,
                alpha=None, ewald_cutoff=None):
        n_tasks = len(block_off)
        if n_tasks == 0:
            return
        mode = _pair_mode(alpha, ewald_cutoff)
        pos, box = _f8(pos), _f8(box)
        type_idx, charges = _i8(tables[0]), _f8(tables[1])
        eps_tab, rmin_tab = _f8(tables[2]), _f8(tables[3])
        row_ptr, rows, row_off = (_i8(a) for a in lists[1:])
        block_off = _i8(block_off)
        n_types = len(eps_tab)
        if pos.ndim != 2 or pos.shape[1] != 3 or len(box) != 3:
            raise ValueError("positions must have shape (rows, 3), box three edges")
        if (len(type_idx), len(charges)) != (len(pos), len(pos)):
            raise ValueError("per-atom tables do not match the positions")
        if eps_tab.shape != (n_types, n_types) or rmin_tab.shape != eps_tab.shape:
            raise ValueError("LJ tables must be n_types x n_types")
        if (len(row_off), len(row_ptr)) != (n_tasks + 1, len(rows) + n_tasks):
            raise ValueError("row lists do not match the batch")
        if not (_writable(scratch, np.float64, 2) and scratch.shape[1] == 3):
            raise ValueError("scratch must be C-contiguous float64 (rows, 3)")
        if not _writable(out, np.float64, 2) or out.shape != (n_tasks, 4):
            raise ValueError("out must be C-contiguous float64 (n_tasks, 4)")
        cols = _columns(lists[0], row_ptr, row_off)
        work_rows = int(np.diff(row_off).max())
        work = np.empty(ROWS_WORK * max(work_rows, 0))
        bad = lib.nb_rows(
            pos.ctypes.data, len(pos), box.ctypes.data,
            type_idx.ctypes.data, charges.ctypes.data,
            eps_tab.ctypes.data, rmin_tab.ctypes.data, n_types,
            cols.ctypes.data, len(cols), row_ptr.ctypes.data,
            rows.ctypes.data, len(rows), row_off.ctypes.data, n_tasks,
            cutoff, switch, *mode,
            scratch.ctypes.data, len(scratch), block_off.ctypes.data,
            work.ctypes.data, work_rows, out.ctypes.data,
        )
        if bad > 0:
            raise ValueError(_SHORT_TABLE)
        if bad:
            raise IndexError(reference.CORRUPT.format(-bad - 1))

    return dataclasses.replace(
        reference.build_backend(), name="c", compiled=True, nb_pairs=nb_pairs,
        ewald_recip=ewald_recip, bonded_terms=bonded_terms,
        pme_spread=pme_spread, pme_gather=pme_gather,
        block_pairs=block_pairs, nb_rows=nb_rows,
    )
