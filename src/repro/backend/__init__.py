"""Pluggable kernel backends for the hot paths (non-bonded, pair-list build,
scatter, Ewald).

The md modules run their inner loops through a :class:`KernelBackend` — a
bundle of nine kernels (see :mod:`repro.backend.base`).  Two
implementations ship:

* ``numpy`` — the vectorized reference (:mod:`repro.backend.reference`),
  the ground truth by definition.  Always available.
* ``c`` — the pair kernel, the Ewald reciprocal sum and the cell-block
  list/count kernel as serial C loops (``kernels.c``, built with the
  host's ``cc`` on first use and loaded through ctypes by
  :mod:`repro.backend.c_backend`); the other kernels are the reference's.
  On first use it must pass a parity self-check against the reference
  (1e-9 on energies/forces, exact pair counts, identical pair lists).  If there is
  no compiler, the build or the load fails, or the self-check misses, the
  registry falls back to numpy — with a warning when ``c`` was requested
  explicitly, silently under ``auto`` — and :func:`backend_status` keeps
  the reason.

Selection:

* ``get_backend(spec)`` with ``spec`` one of ``None`` (session default),
  a name from :data:`BACKEND_NAMES`, or an existing :class:`KernelBackend`
  (passed through).
* The session default resolves once from the ``REPRO_BACKEND`` environment
  variable (``auto`` when unset).  Nothing overrides it process-wide: an
  engine (and the CLI's ``--backend`` flag, and a service job's spec)
  names its own backend, which leaves the default as it was.

Determinism: each backend is individually deterministic (serial compiled
loops, fixed numpy reduction order), so repeat runs on one backend are
bit-identical; *across* backends results agree to 1e-9, not bitwise (the
pair lists are the same arrays on both; the pair arithmetic rounds
differently).  The
parallel engine records the backend name per run in WorkDB so timing
measurements from different backends are never blended.
"""

from __future__ import annotations

import logging
import os
import warnings

from repro.backend import c_backend
from repro.backend import reference as _reference
from repro.backend.base import KernelBackend, parity_selfcheck, synthetic_problem

__all__ = [
    "BACKEND_NAMES",
    "KernelBackend",
    "ENV_VAR",
    "available_backends",
    "backend_status",
    "default_backend",
    "get_backend",
    "parity_selfcheck",
    "synthetic_problem",
]

ENV_VAR = "REPRO_BACKEND"

#: every legal backend spec by name — the CLI's choices and ``SimSpec``'s
#: validation read this tuple
BACKEND_NAMES = ("auto", "numpy", "c")

_log = logging.getLogger("repro.backend")

_instances: dict[str, KernelBackend] = {"numpy": _reference.build_backend()}
_c_error: str | None = None
_default: KernelBackend | None = None


def _try_c() -> KernelBackend | None:
    """Build + self-check the C backend once; None (cached) on failure."""
    global _c_error
    cached = _instances.get("c")
    if cached is not None:
        return cached
    if _c_error is not None:
        return None
    try:
        candidate = c_backend.build_backend()
        ok, detail = parity_selfcheck(candidate, _instances["numpy"])
        if not ok:
            raise RuntimeError(f"parity self-check failed: {detail}")
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        _c_error = f"{type(exc).__name__}: {exc}"
        _log.info("kernel backend c unavailable (%s); using numpy", _c_error)
        return None
    info = c_backend.build_info
    _log.info(
        "kernel backend c: %s %s in %.3f s", info["cache_file"], info["source"],
        info["seconds"],
    )
    _instances["c"] = candidate
    return candidate


def available_backends() -> tuple[str, ...]:
    """Backend names that resolve to themselves here: numpy, and ``c`` when
    it builds, loads and passes its self-check."""
    return ("numpy", "c") if _try_c() is not None else ("numpy",)


def get_backend(spec: KernelBackend | str | None = None) -> KernelBackend:
    """Resolve a backend spec to a concrete :class:`KernelBackend`.

    ``None`` → the session default; ``"auto"`` → ``c`` when it loads and
    passes its self-check, else numpy; ``"numpy"``/``"c"`` by name (an
    unavailable ``c`` falls back to numpy with a warning); an existing
    instance is returned unchanged.
    """
    if spec is None:
        return default_backend()
    if isinstance(spec, KernelBackend):
        return spec
    name = str(spec).strip().lower() or "auto"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {spec!r}; choose one of "
            + ", ".join(repr(n) for n in BACKEND_NAMES)
        )
    if name == "numpy":
        return _instances["numpy"]
    loaded = _try_c()
    if loaded is None:
        if name == "c":
            warnings.warn(
                f"c backend unavailable ({_c_error}); "
                "falling back to the numpy reference backend",
                RuntimeWarning,
                stacklevel=2,
            )
        return _instances["numpy"]
    return loaded


def default_backend() -> KernelBackend:
    """The session default, resolved once from ``REPRO_BACKEND``/auto."""
    global _default
    if _default is None:
        _default = get_backend(os.environ.get(ENV_VAR) or "auto")
    return _default


def backend_status() -> dict[str, object]:
    """Diagnostic snapshot for the CLI: availability, the default, and what
    the C build did (compiler, flags, cache file, compiled or cache hit,
    seconds) or why it fell back."""
    loaded = _try_c()
    return {
        "available": list(available_backends()),
        "default": default_backend().name,
        "env": os.environ.get(ENV_VAR),
        "c_ok": loaded is not None,
        "c_error": _c_error,
        "c_build": dict(c_backend.build_info),
    }


def _reset_for_testing() -> None:
    """Drop cached default/C state so selection logic re-runs."""
    global _default, _c_error
    _default = None
    _c_error = None
    _instances.pop("c", None)


# Import-time smoke check: the reference backend must produce finite,
# momentum-conserving results on the synthetic problem.  A broken numpy
# stack is unrecoverable, so surface it immediately (but don't block
# import — the tier-1 suite gives a better error message).
_smoke_ok, _smoke_detail = parity_selfcheck(_instances["numpy"])
if not _smoke_ok:  # pragma: no cover - only on a broken numpy install
    warnings.warn(
        f"numpy reference backend failed its import-time smoke check: "
        f"{_smoke_detail}",
        RuntimeWarning,
    )
del _smoke_ok, _smoke_detail
