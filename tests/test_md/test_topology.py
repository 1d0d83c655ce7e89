"""Topology construction, merging, and exclusion generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.forcefield import (
    STANDARD_ANGLE,
    STANDARD_BOND,
    STANDARD_DIHEDRAL,
    STANDARD_IMPROPER,
)
from repro.md.topology import Topology


def bfs_exclusions(topo: Topology, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """``(excluded_keys, pairs14)`` by a breadth-first walk of up to three
    bonds from every atom: the per-atom search ``build_exclusions`` did
    before the sparse products, kept as their oracle."""
    adj = topo.bonded_neighbors(n_atoms)
    excluded, pairs14 = set(), set()
    for i in range(n_atoms):
        dist = {i: 0}
        frontier = [i]
        for d in (1, 2, 3):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        for j, d in dist.items():
            if j > i and d in (1, 2):
                excluded.add(i * n_atoms + j)
            elif j > i and d == 3:
                pairs14.add((i, j))
    return (
        np.array(sorted(excluded), dtype=np.int64),
        np.array(sorted(pairs14), dtype=np.int64).reshape(-1, 2),
    )


def assert_matches_bfs(topo: Topology, n_atoms: int):
    got = topo.build_exclusions(n_atoms)
    keys, pairs14 = bfs_exclusions(topo, n_atoms)
    for g, w in ((got.excluded_keys, keys), (got.pairs14, pairs14)):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
    return got


@st.composite
def bond_graphs(draw):
    """``(n_atoms, bonds)``: rings of 3 to 8 atoms, branches hung off
    them, random chords (duplicates too), atoms bonded to nothing."""
    n_atoms = draw(st.integers(0, 40))
    bonds = []
    start = 0
    for size in draw(st.lists(st.integers(3, 8), max_size=3)):
        if start + size > n_atoms:
            break
        bonds += [(start + k, start + (k + 1) % size) for k in range(size)]
        start += size
    if n_atoms >= 2:
        atom = st.integers(0, n_atoms - 1)
        extra = draw(st.lists(st.tuples(atom, atom), max_size=2 * n_atoms))
        bonds += [(i, j) for i, j in extra if i != j]
    return n_atoms, bonds


def linear_chain(n: int) -> Topology:
    topo = Topology()
    for i in range(n - 1):
        topo.add_bond(i, i + 1, STANDARD_BOND)
    return topo


class TestConstruction:
    def test_rejects_self_bond(self):
        with pytest.raises(ValueError):
            Topology().add_bond(3, 3, STANDARD_BOND)

    def test_rejects_degenerate_angle(self):
        with pytest.raises(ValueError):
            Topology().add_angle(0, 1, 0, STANDARD_ANGLE)

    def test_rejects_degenerate_dihedral(self):
        with pytest.raises(ValueError):
            Topology().add_dihedral(0, 1, 2, 1, STANDARD_DIHEDRAL)

    def test_rejects_degenerate_improper(self):
        with pytest.raises(ValueError):
            Topology().add_improper(0, 1, 1, 3, STANDARD_IMPROPER)

    def test_bulk_appends_equal_the_single_ones(self):
        bulk, single = Topology(), Topology()
        bulk.add_bonds(np.array([[0, 1], [1, 2], [2, 3]]), STANDARD_BOND)
        bulk.add_angles(np.array([[0, 1, 2], [1, 2, 3]]), STANDARD_ANGLE)
        for i in range(3):
            single.add_bond(i, i + 1, STANDARD_BOND)
        for i in range(2):
            single.add_angle(i, i + 1, i + 2, STANDARD_ANGLE)
        assert bulk._bonds == single._bonds
        assert bulk._bond_types == single._bond_types
        assert bulk._angles == single._angles
        assert bulk._angle_types == single._angle_types
        assert all(type(i) is int for term in bulk._bonds for i in term)

    def test_bulk_appends_refuse_what_the_single_ones_refuse(self):
        with pytest.raises(ValueError):
            Topology().add_bonds(np.array([[0, 1], [2, 2]]), STANDARD_BOND)
        for angle in ([0, 1, 0], [1, 1, 2], [0, 2, 2]):
            with pytest.raises(ValueError):
                Topology().add_angles(np.array([[3, 4, 5], angle]), STANDARD_ANGLE)

    def test_counts(self):
        t = linear_chain(5)
        t.add_angle(0, 1, 2, STANDARD_ANGLE)
        t.add_dihedral(0, 1, 2, 3, STANDARD_DIHEDRAL)
        assert t.n_bonds == 4
        assert t.n_angles == 1
        assert t.n_dihedrals == 1
        assert t.n_impropers == 0
        assert t.n_terms == 6

    def test_validate_rejects_out_of_range(self):
        t = linear_chain(5)
        with pytest.raises(IndexError):
            t.validate(3)

    def test_arrays_roundtrip(self):
        t = linear_chain(3)
        idx, k, r0 = t.bond_arrays()
        assert idx.shape == (2, 2)
        np.testing.assert_array_equal(idx, [[0, 1], [1, 2]])
        assert np.all(k == STANDARD_BOND.k)
        assert np.all(r0 == STANDARD_BOND.r0)

    def test_empty_arrays_shapes(self):
        t = Topology()
        assert t.bond_arrays()[0].shape == (0, 2)
        assert t.angle_arrays()[0].shape == (0, 3)
        assert t.dihedral_arrays()[0].shape == (0, 4)
        assert t.improper_arrays()[0].shape == (0, 4)


class TestMerge:
    def test_merge_offsets_indices(self):
        a = linear_chain(3)
        b = linear_chain(2)
        a.merge(b, atom_offset=3)
        idx, _, _ = a.bond_arrays()
        np.testing.assert_array_equal(idx, [[0, 1], [1, 2], [3, 4]])

    def test_merge_all_kinds(self):
        a = Topology()
        b = Topology()
        b.add_bond(0, 1, STANDARD_BOND)
        b.add_angle(0, 1, 2, STANDARD_ANGLE)
        b.add_dihedral(0, 1, 2, 3, STANDARD_DIHEDRAL)
        b.add_improper(0, 1, 2, 3, STANDARD_IMPROPER)
        a.merge(b, 10)
        assert a.bond_arrays()[0].tolist() == [[10, 11]]
        assert a.angle_arrays()[0].tolist() == [[10, 11, 12]]
        assert a.dihedral_arrays()[0].tolist() == [[10, 11, 12, 13]]
        assert a.improper_arrays()[0].tolist() == [[10, 11, 12, 13]]


class TestExclusions:
    def test_linear_chain_classes(self):
        # chain 0-1-2-3-4: 1-2 pairs (d=1), 1-3 (d=2) excluded; 1-4 (d=3) modified
        t = linear_chain(5)
        e = t.build_exclusions(5)
        assert e.is_excluded(np.array([0]), np.array([1]))[0]
        assert e.is_excluded(np.array([0]), np.array([2]))[0]
        assert not e.is_excluded(np.array([0]), np.array([3]))[0]
        assert [0, 3] in e.pairs14.tolist()
        assert [1, 4] in e.pairs14.tolist()
        assert not e.is_excluded(np.array([0]), np.array([4]))[0]
        assert [0, 4] not in e.pairs14.tolist()

    def test_ring_shortest_path_wins(self):
        # 4-ring 0-1-2-3-0: atoms 0,2 are both 2 bonds apart both ways -> excluded
        t = Topology()
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
            t.add_bond(i, j, STANDARD_BOND)
        e = t.build_exclusions(4)
        assert e.is_excluded(np.array([0]), np.array([2]))[0]
        assert len(e.pairs14) == 0

    def test_five_ring_no_14(self):
        # 5-ring: opposite atoms are 2 bonds away both directions
        t = Topology()
        for i in range(5):
            t.add_bond(i, (i + 1) % 5, STANDARD_BOND)
        e = t.build_exclusions(5)
        assert len(e.pairs14) == 0  # every non-bonded pair is 1-3

    def test_six_ring_14_pairs_are_para(self):
        t = Topology()
        for i in range(6):
            t.add_bond(i, (i + 1) % 6, STANDARD_BOND)
        e = t.build_exclusions(6)
        # para pairs (0,3), (1,4), (2,5) are exactly 3 bonds away
        assert sorted(map(tuple, e.pairs14.tolist())) == [(0, 3), (1, 4), (2, 5)]

    def test_symmetric_lookup(self):
        t = linear_chain(4)
        e = t.build_exclusions(4)
        assert e.is_excluded(np.array([2]), np.array([1]))[0]
        assert e.is_excluded(np.array([1]), np.array([2]))[0]

    def test_pair14_lookup(self):
        ex = linear_chain(6).build_exclusions(6)
        assert len(ex.pairs14) == 3
        i, j = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
        is14 = ex.is_pair14(i.ravel(), j.ravel()).reshape(6, 6)
        want = np.zeros((6, 6), dtype=bool)
        want[ex.pairs14[:, 0], ex.pairs14[:, 1]] = True
        assert np.array_equal(is14, want | want.T)
        keys14 = ex._keys14  # built once, shared read-only
        ex.is_pair14(np.array([0]), np.array([3]))
        assert ex._keys14 is keys14 and not keys14.flags.writeable
        assert not Topology().build_exclusions(3).is_pair14(
            np.array([0, 1]), np.array([1, 2])
        ).any()

    def test_empty_topology(self):
        e = Topology().build_exclusions(5)
        assert e.n_excluded == 0
        assert not e.is_excluded(np.array([0]), np.array([1]))[0]

    def test_isolated_atoms_not_excluded(self):
        t = linear_chain(3)
        e = t.build_exclusions(6)  # atoms 3,4,5 unbonded
        assert not e.is_excluded(np.array([3]), np.array([4]))[0]
        assert not e.is_excluded(np.array([0]), np.array([5]))[0]

    @given(st.integers(4, 30))
    @settings(max_examples=15, deadline=None)
    def test_chain_exclusion_counts(self, n):
        """A linear n-chain has n-1 + n-2 exclusions and n-3 1-4 pairs."""
        t = linear_chain(n)
        e = t.build_exclusions(n)
        assert e.n_excluded == (n - 1) + (n - 2)
        assert len(e.pairs14) == n - 3

    def test_water_box_matches_the_breadth_first_walk(self):
        from repro.builder import small_water_box

        system = small_water_box(216, seed=1, relax=False)
        got = assert_matches_bfs(system.topology, system.n_atoms)
        assert got.n_excluded == 3 * 216 and len(got.pairs14) == 0

    def test_assembly_with_rings_matches_the_breadth_first_walk(self):
        from repro.builder import mini_assembly

        system = mini_assembly(seed=1)
        got = assert_matches_bfs(system.topology, system.n_atoms)
        assert got.n_excluded > 0 and len(got.pairs14) > 0

    @given(bond_graphs())
    @settings(max_examples=150, deadline=None)
    def test_random_bond_graphs_match_the_breadth_first_walk(self, graph):
        n_atoms, bonds = graph
        topo = Topology()
        for i, j in bonds:
            topo.add_bond(i, j, STANDARD_BOND)
        assert_matches_bfs(topo, n_atoms)

    def test_bond_out_of_range_raises(self):
        t = linear_chain(5)
        with pytest.raises(IndexError):
            t.build_exclusions(3)
