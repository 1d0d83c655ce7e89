"""Fixtures shared by the backend suites."""

import re
import shutil
from importlib import resources

import pytest

from repro.backend import c_backend

#: the definition that makes every cloned kernel of ``kernels.c`` a set of
#: clones; a host that resolves the AVX-512F clone never runs the default
#: bodies, so the parity build below defines it empty instead
CLONES = re.compile(r"^#define KERNEL_CLONES __attribute__\(\(target_clones\(.*$", re.M)


@pytest.fixture(scope="session")
def default_body(tmp_path_factory):
    """``kernels.c`` built again, with ``FLAGS``, without the clones: each
    cloned kernel is then its default body alone."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on this host")
    source = resources.files("repro.backend").joinpath("kernels.c").read_text()
    plain, n = CLONES.subn("#define KERNEL_CLONES", source)
    assert n == 1
    path = tmp_path_factory.mktemp("default-clone") / "kernels.so"
    c_backend._compile(cc, plain.encode(), path)
    return c_backend._backend_of(c_backend._load(path))
