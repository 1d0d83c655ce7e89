"""The C backend's loader: build, cache, and every way of not getting a
library — each of which must leave ``auto`` running on numpy, silently,
with the reason kept for ``repro backends``.
"""

import logging
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

import repro.backend as B
from repro.backend import c_backend, get_backend
from repro.backend import reference as ref

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler on this host"
)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory and a registry that has resolved nothing."""
    monkeypatch.delenv(B.ENV_VAR, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    B._reset_for_testing()
    yield tmp_path / "repro"
    B._reset_for_testing()


def assert_auto_is_silently_numpy(reason):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert get_backend("auto").name == "numpy"
    with pytest.warns(RuntimeWarning, match="c backend unavailable"):
        assert get_backend("c").name == "numpy"
    status = B.backend_status()
    assert status["available"] == ["numpy"] and not status["c_ok"]
    assert reason in status["c_error"]


def test_source_ships_with_the_package():
    assert (resources.files("repro.backend") / "kernels.c").is_file()


def test_first_use_compiles_and_the_next_hits_the_cache(cache):
    assert get_backend("auto").name == "c"
    build = B.backend_status()["c_build"]
    assert build["source"] == "compiled" and build["seconds"] > 0
    assert build["compiler"] == shutil.which("cc")
    assert build["flags"] == " ".join(c_backend.FLAGS)
    assert "-march=native" not in build["flags"] and "-ffast-math" not in build["flags"]
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert [p.name for p in cache.iterdir()] == [Path(build["cache_file"]).name]
    B._reset_for_testing()
    assert get_backend("c").compiled
    assert B.backend_status()["c_build"]["source"] == "cache hit"


def test_one_log_line_per_resolution(cache, caplog):
    with caplog.at_level(logging.INFO, logger="repro.backend"):
        get_backend("auto")
        get_backend("c")
        B.default_backend()
    (record,) = caplog.records
    assert "compiled" in record.getMessage()


def test_truncated_cached_file_is_rebuilt_not_loaded(cache, monkeypatch):
    get_backend("c")
    built = Path(B.backend_status()["c_build"]["cache_file"])
    # the same name in a second cache: a path this process has not mapped
    # (the dynamic loader would hand back the loaded library by name)
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache.parent / "second"))
    torn = cache.parent / "second" / "repro" / built.name
    torn.parent.mkdir(parents=True)
    torn.write_bytes(built.read_bytes()[: built.stat().st_size // 3])
    B._reset_for_testing()
    assert get_backend("c").name == "c"
    build = B.backend_status()["c_build"]
    assert (build["cache_file"], build["source"]) == (str(torn), "compiled")
    assert torn.stat().st_size == built.stat().st_size


def test_two_processes_on_an_empty_cache(cache):
    code = "from repro.backend import get_backend; print(get_backend('c').name)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out.strip()) == (0, "c"), err
    (only,) = cache.iterdir()  # one object, no temporary left behind
    assert only.suffix == ".so"


def test_cache_directory_that_cannot_be_made(cache, monkeypatch):
    """The library is built into a private directory for the process."""
    blocker = cache.parent / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert get_backend("auto").name == "c"
    build = B.backend_status()["c_build"]
    assert build["source"] == "compiled"
    assert not build["cache_file"].startswith(str(cache.parent))


def test_no_temporary_directory_either(cache, monkeypatch):
    blocker = cache.parent / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))

    def refuse(**_kwargs):
        raise PermissionError("read-only file system")

    monkeypatch.setattr(tempfile, "mkdtemp", refuse)
    assert_auto_is_silently_numpy("read-only file system")


def test_no_compiler_on_path(cache, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert_auto_is_silently_numpy("no C compiler")
    assert not cache.exists()


def test_compiler_error(cache, monkeypatch):
    monkeypatch.setattr(c_backend, "FLAGS", (*c_backend.FLAGS, "--no-such-flag"))
    assert_auto_is_silently_numpy("failed")
    assert list(cache.iterdir()) == []  # the temporary is removed


def test_compiler_that_hangs(cache, monkeypatch, tmp_path):
    """The build is bounded: a compiler that never returns is a fallback."""
    hang = tmp_path / "bin" / "cc"
    hang.parent.mkdir()
    hang.write_text("#!/bin/sh\nexec sleep 30\n")
    hang.chmod(0o755)
    monkeypatch.setenv("PATH", str(hang.parent), prepend=os.pathsep)
    monkeypatch.setattr(c_backend, "COMPILE_TIMEOUT_S", 0.2)
    assert_auto_is_silently_numpy("TimeoutExpired")


def test_wrong_kernel_fails_the_self_check(cache, monkeypatch):
    def skewed(*args):
        return ref.pme_gather(*args) * (1.0 + 1e-6)

    built = c_backend.build_backend

    def build_wrong():
        return replace(built(), pme_gather=skewed)

    monkeypatch.setattr(c_backend, "build_backend", build_wrong)
    assert_auto_is_silently_numpy("parity self-check failed: pme_gather")
