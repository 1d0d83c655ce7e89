"""SystemAssembler composition."""

import numpy as np
import pytest

from repro.builder.assembler import SystemAssembler
from repro.builder.water import water_block, water_molecule
from repro.md.forcefield import STANDARD_BOND
from repro.md.topology import Topology
from repro.util.rng import make_rng


class TestAssembler:
    def test_offsets_accumulate(self):
        asm = SystemAssembler(np.ones(3) * 20)
        rng = make_rng(0)
        for i in range(3):
            pos, q, names, topo = water_molecule(np.full(3, 5.0 + i), rng)
            offset = asm.add_component(pos, q, names, topo, "WAT")
            assert offset == 3 * i
        assert asm.n_atoms == 9
        s = asm.finalize()
        idx, _, _ = s.topology.bond_arrays()
        # each water contributes O-H1, O-H2 with proper offsets
        assert idx.max() == 8

    def test_mismatched_arrays_rejected(self):
        asm = SystemAssembler(np.ones(3) * 20)
        with pytest.raises(ValueError):
            asm.add_component(
                np.zeros((2, 3)), np.zeros(3), ["OT", "HT"], Topology(), "X"
            )

    @pytest.mark.parametrize("names", [["NOPE"], ["OT", "NOPE", "OT"]])
    def test_unknown_type_name_rejected(self, names):
        asm = SystemAssembler(np.ones(3) * 20)
        n = len(names)
        with pytest.raises(KeyError):
            asm.add_component(np.zeros((n, 3)), np.zeros(n), names, Topology(), "X")
        assert asm.n_atoms == 0

    def test_each_distinct_name_is_resolved_once(self, monkeypatch):
        asm = SystemAssembler(np.ones(3) * 20)
        resolve = asm.forcefield.atom_type_index
        asked = []

        def counting(name):
            asked.append(name)
            return resolve(name)

        monkeypatch.setattr(asm.forcefield, "atom_type_index", counting)
        pos, q, names, topo = water_block(np.full((4, 3), 5.0), make_rng(0))
        asm.add_component(pos, q, names, topo, "WAT")
        assert asked == ["OT", "HT"]
        assert asm.finalize().type_indices.tolist() == [
            resolve(name) for name in names
        ]

    def test_empty_finalize_rejected(self):
        with pytest.raises(ValueError):
            SystemAssembler(np.ones(3) * 20).finalize()

    def test_segments_tracked(self):
        asm = SystemAssembler(np.ones(3) * 20)
        rng = make_rng(0)
        pos, q, names, topo = water_molecule(np.full(3, 5.0), rng)
        asm.add_component(pos, q, names, topo, "WAT")
        s = asm.finalize()
        assert s.segment_labels == ["WAT"] * 3

    def test_finalize_wraps_by_default(self):
        asm = SystemAssembler(np.ones(3) * 10)
        topo = Topology()
        topo.add_bond(0, 1, STANDARD_BOND)
        asm.add_component(
            np.array([[12.0, 0.0, 0.0], [12.5, 0.0, 0.0]]),
            np.zeros(2),
            ["CT", "CT"],
            topo,
            "X",
        )
        s = asm.finalize()
        assert np.all(s.positions < s.box)

    def test_current_positions_copy(self):
        asm = SystemAssembler(np.ones(3) * 20)
        rng = make_rng(0)
        pos, q, names, topo = water_molecule(np.full(3, 5.0), rng)
        asm.add_component(pos, q, names, topo, "WAT")
        view = asm.current_positions()
        view[0, 0] = 999.0
        assert asm.current_positions()[0, 0] != 999.0
