"""Fixtures shared by the backend suites."""

import re
import shutil
from importlib import resources

import pytest

from repro.backend import c_backend

#: the definition that gives ``kernels.c`` its AVX-512F builds and the
#: dispatch between them and the portable bodies; a host that resolves the
#: AVX-512F builds never runs the portable ones, so the parity build below
#: defines it 0 instead
AVX512F = re.compile(r"^#define KERNEL_AVX512F 1\b.*$", re.M)


@pytest.fixture(scope="session")
def default_body(tmp_path_factory):
    """``kernels.c`` built again, with ``FLAGS``, with no AVX-512F path at
    all: each dispatched kernel is then its portable body alone - what a CPU
    without AVX-512F runs - and exported under its own name."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler on this host")
    source = resources.files("repro.backend").joinpath("kernels.c").read_text()
    portable, n = AVX512F.subn("#define KERNEL_AVX512F 0", source)
    assert n == 1
    path = tmp_path_factory.mktemp("portable-body") / "kernels.so"
    c_backend._compile(cc, portable.encode(), path)
    lib = c_backend._load(path)
    assert lib.kernel_build() == b"none"
    return c_backend._backend_of(lib)
