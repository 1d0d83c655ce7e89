"""Waters by the block: every builder's output equals the per-molecule
path's (``oracle.py``) array for array and term for term, and the composed
assemblies keep their recorded bits."""

import hashlib
import platform

import numpy as np
import pytest

from repro.builder import (
    SystemAssembler,
    add_ions,
    apoa1_like,
    br_like,
    lipid_bilayer,
    mini_assembly,
    protein_chain,
    skewed_water_box,
    small_water_box,
    tiny_peptide,
)
from repro.builder.benchmarks import _sidechain_pattern
from repro.builder.water import fill_water, water_block, water_molecule
from repro.util.rng import make_rng
from tests.test_builder import oracle
from tests.test_md.test_golden_digests import RECORDED_ON


def assert_same_system(got, want):
    for name in ("positions", "velocities", "charges", "type_indices", "box"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    for kind in ("bonds", "angles", "dihedrals", "impropers"):
        for attr in (f"_{kind}", f"_{kind[:-1]}_types"):
            assert getattr(got.topology, attr) == getattr(want.topology, attr), attr
    assert got.segment_labels == want.segment_labels
    assert got.name == want.name


class TestBlockEqualsPerMolecule:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 27, 216, 729])
    def test_small_water_box(self, n, seed):
        assert_same_system(
            small_water_box(n, seed=seed, relax=False), oracle.small_water_box(n, seed)
        )

    @pytest.mark.parametrize("skew", [2.0, 3.5])
    def test_skewed_water_box(self, skew):
        assert_same_system(
            skewed_water_box(600, seed=4, skew=skew, relax=False),
            oracle.skewed_water_box(600, seed=4, skew=skew),
        )

    def test_fill_water_around_protein_lipids_and_ions(self):
        def solvated(fill):
            # mini_assembly's recipe with the fill passed in
            box = np.full(3, 36.0)
            rng = make_rng(11)
            asm = SystemAssembler(box)
            center = np.array([18.0, 18.0, 28.0])
            pos, q, names, topo = protein_chain(
                40, center, rng, sidechain_lengths=_sidechain_pattern(40),
                confine_center=center, confine_radius=7.0,
            )
            asm.add_component(pos, q, names, topo, "PROT")
            lipid_bilayer(asm, 15.0, (3.0, 33.0, 3.0, 33.0), 14, rng, tail_length=8)
            add_ions(asm, 6, rng, clearance=2.2)
            assert fill(asm, 768, rng, clearance=2.2) == 768
            return asm.finalize(name="solvated")

        got = solvated(fill_water)
        assert {"PROT", "LIP", "ION", "WAT"} <= set(got.segment_labels)
        assert_same_system(got, solvated(oracle.fill_water))

    def test_water_molecule_is_the_one_site_block(self):
        center = np.array([1.5, -2.0, 7.25])
        got, want = water_molecule(center, make_rng(3)), oracle.water_molecule(
            center, make_rng(3)
        )
        assert np.array_equal(got[0], want[0]) and got[0].shape == (3, 3)
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        assert got[3]._bonds == want[3]._bonds
        assert got[3]._angles == want[3]._angles

    def test_an_empty_block_draws_nothing(self):
        rng = make_rng(0)
        before = rng.bit_generator.state
        pos, q, names, topo = water_block(np.zeros((0, 3)), rng)
        assert pos.shape == (0, 3) and q.shape == (0,) and names == []
        assert topo.n_terms == 0
        assert rng.bit_generator.state == before


def system_digest(system) -> str:
    """sha256 over every array and term a builder produces."""
    h = hashlib.sha256()
    for arr in (system.positions, system.charges, system.type_indices, system.box):
        h.update(np.ascontiguousarray(arr).tobytes())
    topo = system.topology
    for arrays in (
        topo.bond_arrays(), topo.angle_arrays(),
        topo.dihedral_arrays(), topo.improper_arrays(),
    ):
        for arr in arrays:
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update("\0".join(system.segment_labels).encode())
    return h.hexdigest()


#: builder -> :func:`system_digest` of its output, recorded on the
#: per-molecule water path, before waters were placed by the block; the
#: block path passed them unedited.  ``tiny_peptide`` is pinned unrelaxed:
#: relaxation's bits are the kernel backend's, not the builder's.
PINS = {
    "mini_assembly": "b9fd10eb41eb0c711c0d7620148811a548763f2252ed64d195a87979500429ea",
    "br_like": "486cbe4331fded520c92eed45e92a37d52723e7c7416f0dd6d10c050fbe08fc1",
    "apoa1_like": "ee7cf4f4290456b7d17bdc9d7b9ec0b8094bd9f19735b7a972b65b3e69688ed5",
    "tiny_peptide": "01c52af73d6d6cf753ccfff7c6d14089e6f13479cd67eebc15fd5ec0354f4fcc",
}

BUILDERS = {
    "mini_assembly": mini_assembly,
    "br_like": br_like,
    "apoa1_like": apoa1_like,
    "tiny_peptide": lambda: tiny_peptide(relax=False),
}


@pytest.mark.skipif(
    (platform.machine(), platform.libc_ver()) != RECORDED_ON,
    reason=f"pins recorded on {RECORDED_ON}",
)
@pytest.mark.parametrize("builder", sorted(PINS))
def test_builder_output_is_the_pinned_bits(builder):
    assert system_digest(BUILDERS[builder]()) == PINS[builder]
