"""Pluggable kernel backends for the hot paths (non-bonded, scatter, Ewald).

The md modules run their inner loops through a :class:`KernelBackend` — a
bundle of five kernels (see :mod:`repro.backend.base`).  Two implementations
ship:

* ``numpy`` — the vectorized reference (:mod:`repro.backend.reference`),
  the ground truth by definition.  Always available.
* ``numba`` — serial JIT-compiled loops (:mod:`repro.backend.numba_backend`).
  Loaded lazily; on first use it must pass a parity self-check against the
  reference (1e-9 on energies/forces, exact pair masks).  If numba is
  missing, fails to compile, or fails the self-check, the registry falls
  back to numpy — with a warning when ``numba`` was requested explicitly,
  silently under ``auto``.

Selection:

* ``get_backend(spec)`` with ``spec`` one of ``None`` (session default),
  ``"auto"``, ``"numpy"``, ``"numba"``, or an existing
  :class:`KernelBackend` (passed through).
* The session default resolves once from the ``REPRO_BACKEND`` environment
  variable (``auto`` when unset) and can be overridden with
  :func:`set_default_backend` (the CLI ``--backend`` flag does this).

Determinism: each backend is individually deterministic (serial compiled
loops, fixed numpy reduction order), so repeat runs on one backend are
bit-identical; *across* backends results agree to 1e-9, not bitwise.  The
parallel engine records the backend name per run in WorkDB so timing
measurements from different backends are never blended.
"""

from __future__ import annotations

import os
import warnings

from repro.backend import reference as _reference
from repro.backend.base import KernelBackend, parity_selfcheck, synthetic_problem

__all__ = [
    "KernelBackend",
    "ENV_VAR",
    "available_backends",
    "backend_status",
    "default_backend",
    "get_backend",
    "parity_selfcheck",
    "set_default_backend",
    "synthetic_problem",
]

ENV_VAR = "REPRO_BACKEND"

_instances: dict[str, KernelBackend] = {"numpy": _reference.build_backend()}
_numba_error: str | None = None
_default: KernelBackend | None = None


def available_backends() -> tuple[str, ...]:
    """Backend names that could be requested (numba listed if importable)."""
    import importlib.util

    names = ["numpy"]
    try:
        if importlib.util.find_spec("numba") is not None:
            names.append("numba")
    except (ImportError, ValueError):  # pragma: no cover - broken installs
        pass
    return tuple(names)


def _try_numba() -> KernelBackend | None:
    """Load + self-check the numba backend once; None (cached) on failure."""
    global _numba_error
    cached = _instances.get("numba")
    if cached is not None:
        return cached
    if _numba_error is not None:
        return None
    try:
        from repro.backend.numba_backend import build_backend

        candidate = build_backend()
        ok, detail = parity_selfcheck(candidate, _instances["numpy"])
        if not ok:
            raise RuntimeError(f"parity self-check failed: {detail}")
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        _numba_error = f"{type(exc).__name__}: {exc}"
        return None
    _instances["numba"] = candidate
    return candidate


def get_backend(spec: KernelBackend | str | None = None) -> KernelBackend:
    """Resolve a backend spec to a concrete :class:`KernelBackend`.

    ``None`` → the session default; ``"auto"`` → numba when it loads and
    passes its self-check, else numpy; ``"numpy"``/``"numba"`` by name
    (an unavailable numba falls back to numpy with a warning); an existing
    instance is returned unchanged.
    """
    if spec is None:
        return default_backend()
    if isinstance(spec, KernelBackend):
        return spec
    name = str(spec).strip().lower()
    if name in ("", "auto"):
        loaded = _try_numba()
        return loaded if loaded is not None else _instances["numpy"]
    if name == "numpy":
        return _instances["numpy"]
    if name == "numba":
        loaded = _try_numba()
        if loaded is None:
            warnings.warn(
                f"numba backend unavailable ({_numba_error}); "
                "falling back to the numpy reference backend",
                RuntimeWarning,
                stacklevel=2,
            )
            return _instances["numpy"]
        return loaded
    raise ValueError(
        f"unknown kernel backend {spec!r}; choose 'auto', 'numpy', or 'numba'"
    )


def default_backend() -> KernelBackend:
    """The session default, resolved once from ``REPRO_BACKEND``/auto."""
    global _default
    if _default is None:
        _default = get_backend(os.environ.get(ENV_VAR) or "auto")
    return _default


def set_default_backend(spec: KernelBackend | str | None) -> KernelBackend:
    """Override the session default (``None`` re-resolves from the env)."""
    global _default
    if spec is None:
        _default = None
        return default_backend()
    _default = get_backend(spec)
    return _default


def backend_status() -> dict[str, object]:
    """Diagnostic snapshot for the CLI: availability, errors, default."""
    avail = available_backends()
    status: dict[str, object] = {
        "available": list(avail),
        "default": default_backend().name,
        "env": os.environ.get(ENV_VAR),
    }
    if "numba" in avail:
        loaded = _try_numba()
        status["numba_ok"] = loaded is not None
        if loaded is None:
            status["numba_error"] = _numba_error
    else:
        status["numba_ok"] = False
        status["numba_error"] = "numba is not installed"
    return status


def _reset_for_testing() -> None:
    """Drop cached default/numba state so selection logic re-runs."""
    global _default, _numba_error
    _default = None
    _numba_error = None
    _instances.pop("numba", None)


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
