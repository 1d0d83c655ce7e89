"""Backend registry semantics: selection, fallback, self-check, constants.

The registry caches its resolved default and its C build attempt, so
every test that touches selection state goes through
``repro.backend._reset_for_testing`` on both sides (the autouse fixture).
"""

import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

import repro.backend as B
from repro.backend import (
    BACKEND_NAMES,
    ENV_VAR,
    KernelBackend,
    available_backends,
    backend_status,
    default_backend,
    get_backend,
    parity_selfcheck,
)
from repro.backend import reference as ref

HAS_C = "c" in available_backends()


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    B._reset_for_testing()
    yield
    B._reset_for_testing()


@pytest.fixture
def no_compiler(monkeypatch):
    """A host without ``cc`` (the loader's other failures: test_loader.py)."""
    monkeypatch.setattr(shutil, "which", lambda name: None)


# --------------------------------------------------------------------- #
# selection
# --------------------------------------------------------------------- #
class TestSelection:
    def test_numpy_always_available(self):
        be = get_backend("numpy")
        assert be.name == "numpy"
        assert not be.compiled

    def test_instance_passthrough(self):
        be = get_backend("numpy")
        assert get_backend(be) is be

    def test_none_resolves_session_default(self):
        assert get_backend(None) is default_backend()

    def test_default_is_cached(self):
        assert default_backend() is default_backend()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_retired_numba_name_is_unknown(self):
        assert BACKEND_NAMES == ("auto", "numpy", "c")
        with pytest.raises(ValueError, match="'auto', 'numpy', 'c'"):
            get_backend("numba")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "numpy")
        B._reset_for_testing()
        assert default_backend().name == "numpy"

    def test_auto_never_raises(self):
        # whether or not the host has a compiler, auto must resolve
        assert get_backend("auto").name in ("numpy", "c")

    def test_explicit_c_warns_and_falls_back(self, no_compiler):
        with pytest.warns(RuntimeWarning, match="c backend unavailable"):
            be = get_backend("c")
        assert be.name == "numpy"

    def test_auto_falls_back_silently(self, no_compiler):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_backend("auto").name == "numpy"
        assert available_backends() == ("numpy",)

    @pytest.mark.skipif(not HAS_C, reason="no C compiler on this host")
    def test_c_selected_when_available(self):
        be = get_backend("c")
        assert be.name == "c"
        assert be.compiled
        assert get_backend("auto") is be
        # the pair kernels, the classic reciprocal sum, the bonded terms, the
        # two halves of PME and the list build are compiled
        numpy = get_backend("numpy")
        replaced = {
            f for f in be.__dataclass_fields__ if getattr(be, f) != getattr(numpy, f)
        }
        assert replaced == {
            "name", "compiled", "nb_pairs", "ewald_recip", "bonded_terms",
            "pme_spread", "pme_gather", "block_pairs", "nb_rows",
        }

    def test_backend_status_shape(self):
        status = backend_status()
        assert "numpy" in status["available"]
        assert status["default"] in ("numpy", "c")
        assert status["c_ok"] == HAS_C == (status["c_error"] is None)
        if HAS_C:
            assert {"compiler", "flags", "cache_file", "source", "seconds"} <= set(
                status["c_build"]
            )

    def test_backend_status_keeps_the_fallback_reason(self, no_compiler):
        status = backend_status()
        assert status["default"] == "numpy" and not status["c_ok"]
        assert "no C compiler" in status["c_error"]


# --------------------------------------------------------------------- #
# parity self-check
# --------------------------------------------------------------------- #
class TestSelfCheck:
    def test_reference_passes_its_own_check(self):
        ok, detail = parity_selfcheck(ref.build_backend())
        assert ok, detail

    def test_broken_energy_detected(self):
        good = ref.build_backend()

        def bad_nb(pos, box, i, j, eps, rmin, qq, cut, sw, forces, si, sj, *mode):
            e_lj, e_el, n = ref.nb_pairs(
                pos, box, i, j, eps, rmin, qq, cut, sw, forces, si, sj, *mode
            )
            return e_lj * (1.0 + 1e-6), e_el, n  # 1e-6 relative >> 1e-9 tol

        broken = replace(good, name="broken", compiled=True, nb_pairs=bad_nb)
        ok, detail = parity_selfcheck(broken, good)
        assert not ok
        assert detail  # says *what* diverged

    def test_broken_ewald_mode_detected(self):
        """A kernel right in cutoff mode and wrong in Ewald mode fails."""
        good = ref.build_backend()

        def bad_nb(pos, box, i, j, eps, rmin, qq, cut, sw, forces, si, sj, *mode):
            e_lj, e_el, n = ref.nb_pairs(
                pos, box, i, j, eps, rmin, qq, cut, sw, forces, si, sj, *mode
            )
            return e_lj, e_el * (1.0 + 1e-6) if mode else e_el, n

        broken = replace(good, name="broken", compiled=True, nb_pairs=bad_nb)
        ok, detail = parity_selfcheck(broken, good)
        assert not ok
        assert "ewald" in detail

    def test_broken_forces_detected(self):
        good = ref.build_backend()

        def bad_nb(pos, box, i, j, eps, rmin, qq, cut, sw, forces, si, sj, *mode):
            out = ref.nb_pairs(
                pos, box, i, j, eps, rmin, qq, cut, sw, forces, si, sj, *mode
            )
            # skew one row by 1e-6 of the global force scale (the self-check
            # tolerance is relative to the largest force component)
            forces[0, 0] += 1e-6 * float(np.abs(forces).max())
            return out

        broken = replace(good, name="broken", compiled=True, nb_pairs=bad_nb)
        ok, _ = parity_selfcheck(broken, good)
        assert not ok

    def test_raising_kernel_is_caught_not_propagated(self):
        good = ref.build_backend()

        def explode(*_a, **_k):
            raise RuntimeError("compile error")

        broken = replace(good, name="broken", compiled=True, nb_pairs=explode)
        ok, detail = parity_selfcheck(broken)
        assert not ok
        assert "compile error" in detail or "RuntimeError" in detail

    def test_every_kernel_is_required(self):
        good = ref.build_backend()
        fields = {f: getattr(good, f) for f in good.__dataclass_fields__}
        del fields["pme_gather"]
        with pytest.raises(TypeError, match="pme_gather"):
            KernelBackend(**fields)


# --------------------------------------------------------------------- #
# duplicated constants (cycle-free import discipline)
# --------------------------------------------------------------------- #
class TestConstantGuards:
    """repro.backend must not import repro.md, so an md constant is
    duplicated in the reference module; this guard pins the two together."""

    def test_coulomb_constant_matches_md(self):
        from repro.md.constants import COULOMB_CONSTANT

        assert ref.COULOMB_CONSTANT == COULOMB_CONSTANT

    def test_backend_package_imports_standalone(self):
        # the real check is in the subprocess-free form: the package's own
        # module graph must not reach repro.md (which imports it back)
        import sys
        import subprocess

        code = (
            "import sys, repro.backend; "
            "assert not any(m.startswith('repro.md') for m in sys.modules), "
            "sorted(m for m in sys.modules if m.startswith('repro.md'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr


# --------------------------------------------------------------------- #
# synthetic problem
# --------------------------------------------------------------------- #
class TestSyntheticProblem:
    def test_deterministic(self):
        from repro.backend import synthetic_problem

        a, b = synthetic_problem(), synthetic_problem()
        for key in a:
            if isinstance(a[key], np.ndarray):
                assert np.array_equal(a[key], b[key]), key
            else:
                assert a[key] == b[key], key
