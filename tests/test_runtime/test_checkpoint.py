"""In-memory double checkpointing: snapshots, buddy placement, fallback."""

import inspect

import numpy as np
import pytest

from repro.core.chares import (
    BondedComputeChare,
    HomePatchChare,
    NonbondedComputeChare,
    ProxyPatchChare,
)
from repro.runtime.checkpoint import (
    SKIP_ATTRS,
    ChareCheckpoint,
    Checkpoint,
    DoubleCheckpointStore,
    RecoveryEvent,
    RecoveryStats,
    UnrecoverableFailure,
    restore_chare,
    snapshot_chare,
    state_bytes,
)


def _mutate_and_roundtrip(make_chare):
    """Snapshot, scramble the original, restore into a fresh instance."""
    original = make_chare()
    state = snapshot_chare(original)
    fresh = make_chare()
    # scramble the fresh copy's logical state so restore must do real work
    for k in state:
        if isinstance(getattr(fresh, k, None), int):
            setattr(fresh, k, 10_000)
    restore_chare(fresh, state)
    return original, fresh, state


def _assert_states_equal(a, b):
    sa, sb = snapshot_chare(a), snapshot_chare(b)
    assert sa.keys() == sb.keys()
    for k in sa:
        va, vb = sa[k], sb[k]
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb)
        elif isinstance(va, dict) and any(
            isinstance(x, np.ndarray) for x in va.values()
        ):
            assert va.keys() == vb.keys()
            for key in va:
                np.testing.assert_array_equal(va[key], vb[key])
        else:
            assert va == vb, k


class TestSnapshotRoundTrip:
    """Every chare subclass in core/chares.py round-trips through PUP."""

    def test_home_patch(self):
        def make():
            c = HomePatchChare(
                patch=3,
                atoms=np.arange(7, dtype=np.int64),
                integration_cost=1e-4,
                n_rounds=10,
            )
            c.round = 4
            c._received = 2
            return c

        original, fresh, _ = _mutate_and_roundtrip(make)
        assert fresh.round == 4
        assert fresh._received == 2
        _assert_states_equal(original, fresh)

    def test_proxy_patch(self):
        def make():
            c = ProxyPatchChare(patch=2, home_id=9, n_atoms=12)
            c._deposits = 1
            return c

        original, fresh, _ = _mutate_and_roundtrip(make)
        assert fresh._deposits == 1
        _assert_states_equal(original, fresh)

    def test_nonbonded_compute(self):
        def make():
            c = NonbondedComputeChare(
                patches=(1, 2),
                load=3e-3,
                part=1,
                n_parts=4,
            )
            c.round = 6
            c._ready = 1
            return c

        original, fresh, _ = _mutate_and_roundtrip(make)
        assert fresh.round == 6
        assert fresh._ready == 1
        _assert_states_equal(original, fresh)

    def test_bonded_compute(self):
        def make():
            c = BondedComputeChare(
                patches=(0,),
                load=1e-3,
                migratable=True,
            )
            c.round = 2
            return c

        original, fresh, _ = _mutate_and_roundtrip(make)
        assert fresh.round == 2
        assert fresh.migratable is True
        _assert_states_equal(original, fresh)

    def test_snapshot_excludes_runtime_wiring(self):
        c = HomePatchChare(0, np.arange(3), 1e-4, 5)
        c.proxy_ids = [1, 2]
        c.expected_contributions = 7
        state = snapshot_chare(c)
        assert not (set(state) & SKIP_ATTRS)

    def test_snapshot_is_deep(self):
        c = HomePatchChare(0, np.zeros(4, dtype=np.int64), 1e-4, 5)
        state = snapshot_chare(c)
        c.atoms[:] = 99
        assert state["atoms"].max() == 0


class TestStateBytes:
    def test_arrays_dominate(self):
        small = state_bytes({"x": 1})
        big = state_bytes({"x": 1, "a": np.zeros(1000)})
        assert big == small + 8000.0

    def test_containers_counted(self):
        assert state_bytes({"l": [1, 2, 3]}) == 128.0 + 24.0
        assert state_bytes({"d": {"a": 1}}) == 128.0 + 16.0


class TestSnapshotSize:
    """Chares carry loads, not positions: only a home patch's snapshot holds
    an atom array, so only it grows with the atoms it owns."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NonbondedComputeChare(patches=(1, 2), load=3e-3, n_parts=2),
            lambda: BondedComputeChare(patches=(0, 5), load=1e-3, migratable=False),
        ],
        ids=["nonbonded", "bonded"],
    )
    def test_compute_snapshot_is_counters_only(self, make):
        state = snapshot_chare(make())
        assert not any(isinstance(v, np.ndarray) for v in state.values())
        # envelope + one word per scalar and per patch index
        assert state_bytes(state) < 256.0

    def test_home_patch_snapshot_scales_with_its_atoms(self):
        small = HomePatchChare(0, np.arange(10, dtype=np.int64), 1e-4, 5)
        big = HomePatchChare(0, np.arange(1000, dtype=np.int64), 1e-4, 5)
        grown = state_bytes(snapshot_chare(big)) - state_bytes(snapshot_chare(small))
        assert grown == 990 * 8.0

    @pytest.mark.parametrize(
        "cls", [HomePatchChare, NonbondedComputeChare, BondedComputeChare]
    )
    def test_chares_take_no_numeric_backend(self, cls):
        params = inspect.signature(cls).parameters
        assert "backend" not in params
        assert not {"atoms_a", "atoms_b", "term_indices"} & set(params)


class TestBuddy:
    def test_next_live_cyclic(self):
        live = [0, 1, 2, 3]
        assert DoubleCheckpointStore.buddy_of(0, live) == 1
        assert DoubleCheckpointStore.buddy_of(3, live) == 0

    def test_skips_dead(self):
        live = [0, 2, 3]
        assert DoubleCheckpointStore.buddy_of(0, live) == 2

    def test_dead_owner_maps_to_first_live(self):
        assert DoubleCheckpointStore.buddy_of(1, [0, 2]) == 0

    def test_single_live_degenerate(self):
        assert DoubleCheckpointStore.buddy_of(0, [0]) == 0


def _checkpoint(round_, owners_buddies):
    chares = {
        ("c", i): ChareCheckpoint(("c", i), {"round": round_}, o, b)
        for i, (o, b) in enumerate(owners_buddies)
    }
    return Checkpoint(round=round_, time=float(round_), chares=chares)


class TestStore:
    def test_survives(self):
        cp = _checkpoint(1, [(0, 1), (1, 2)])
        assert cp.survives({0})
        assert cp.survives({2})
        assert not cp.survives({1, 2})

    def test_latest_preferred(self):
        store = DoubleCheckpointStore(3)
        store.commit(_checkpoint(1, [(0, 1)]))
        store.commit(_checkpoint(2, [(0, 1)]))
        assert store.recovery_checkpoint({2}).round == 2

    def test_falls_back_to_previous(self):
        store = DoubleCheckpointStore(3)
        store.commit(_checkpoint(1, [(0, 1), (2, 0)]))
        store.commit(_checkpoint(2, [(1, 2), (2, 1)]))  # all copies touch 1,2
        assert store.recovery_checkpoint({1, 2}).round == 1

    def test_unrecoverable_raises(self):
        store = DoubleCheckpointStore(3)
        store.commit(_checkpoint(1, [(0, 1)]))
        with pytest.raises(UnrecoverableFailure):
            store.recovery_checkpoint({0, 1})

    def test_empty_store_unrecoverable(self):
        with pytest.raises(UnrecoverableFailure):
            DoubleCheckpointStore(2).recovery_checkpoint({0})

    def test_bytes_sent_from_counts_remote_buddies_only(self):
        cp = Checkpoint(
            round=0,
            time=0.0,
            chares={
                ("a",): ChareCheckpoint(("a",), {}, owner=0, buddy=1),
                ("b",): ChareCheckpoint(("b",), {}, owner=0, buddy=0),
                ("c",): ChareCheckpoint(("c",), {}, owner=1, buddy=0),
            },
        )
        assert cp.bytes_sent_from(0) == 128.0  # only ("a",)
        assert cp.bytes_sent_from(1) == 128.0  # only ("c",)


class TestRecoveryAccounting:
    def test_event_derived_quantities(self):
        e = RecoveryEvent(
            procs=(2,),
            failure_time=1.0,
            detected_time=1.1,
            checkpoint_round=4,
            rounds_done_at_failure=7,
            restore_cost_s=0.05,
            restart_time=1.2,
        )
        assert e.steps_replayed == 3
        assert e.detection_latency_s == pytest.approx(0.1)
        assert e.recovery_time_s == pytest.approx(0.2)

    def test_replay_never_negative(self):
        e = RecoveryEvent((0,), 0.0, 0.0, 5, 2, 0.0, 0.0)
        assert e.steps_replayed == 0

    def test_stats_merge(self):
        e = RecoveryEvent((1,), 0.0, 0.1, 0, 2, 0.0, 0.2)
        a = RecoveryStats(events=[e], checkpoints_taken=2, messages_dropped=3)
        b = RecoveryStats(checkpoints_taken=1, checkpoint_time_s=0.5,
                          messages_lost_to_dead=4)
        m = a.merge(b)
        assert m.checkpoints_taken == 3
        assert m.checkpoint_time_s == 0.5
        assert m.messages_dropped == 3
        assert m.messages_lost_to_dead == 4
        assert m.n_failures == 1
        assert m.steps_replayed == 2
        assert m.dead_procs == (1,)


# --------------------------------------------------------------------------- #
# disk run checkpoints for the real engines (PR 6)
# --------------------------------------------------------------------------- #
from repro.builder import small_water_box  # noqa: E402
from repro.md.engine import SequentialEngine  # noqa: E402
from repro.md.nonbonded import NonbondedOptions  # noqa: E402
from repro.runtime.checkpoint import (  # noqa: E402
    RunCheckpoint,
    load_run_checkpoint,
    restore_run_checkpoint,
    save_run_checkpoint,
)

RUN_OPTS = NonbondedOptions(cutoff=8.0)


@pytest.fixture(scope="module")
def water_base():
    return small_water_box(120, seed=11, relax=False)


def _fresh(base):
    s = base.copy()
    s.assign_velocities(300.0, seed=3)
    return s


class TestRunCheckpoint:
    def _sample(self, n=4, with_forces=True):
        rng = np.random.default_rng(0)
        return RunCheckpoint(
            step=7,
            positions=rng.normal(size=(n, 3)),
            velocities=rng.normal(size=(n, 3)),
            forces=rng.normal(size=(n, 3)) if with_forces else None,
            box=np.array([10.0, 11.0, 12.0]),
            nb_seq=21,
        )

    def test_npz_round_trip_is_exact(self):
        cp = self._sample()
        back = RunCheckpoint.from_npz_bytes(cp.to_npz_bytes())
        assert back.step == cp.step
        assert back.nb_seq == cp.nb_seq
        np.testing.assert_array_equal(back.positions, cp.positions)
        np.testing.assert_array_equal(back.velocities, cp.velocities)
        np.testing.assert_array_equal(back.forces, cp.forces)
        np.testing.assert_array_equal(back.box, cp.box)

    def test_round_trip_without_forces(self):
        back = RunCheckpoint.from_npz_bytes(
            self._sample(with_forces=False).to_npz_bytes()
        )
        assert back.forces is None

    def test_save_writes_atomically(self, tmp_path, water_base):
        path = tmp_path / "run.ckpt"
        with SequentialEngine(_fresh(water_base), options=RUN_OPTS) as eng:
            eng.step()
            save_run_checkpoint(path, eng)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]
        assert load_run_checkpoint(path).step == 1

    def test_load_corrupt_raises_valueerror(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"not an npz archive")
        with pytest.raises(ValueError, match="run.ckpt"):
            load_run_checkpoint(path)

    def test_load_missing_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_checkpoint(tmp_path / "absent.ckpt")

    def test_restore_rejects_wrong_atom_count(self, water_base):
        cp = self._sample(n=4)
        with SequentialEngine(_fresh(water_base), options=RUN_OPTS) as eng:
            with pytest.raises(ValueError, match="atom"):
                restore_run_checkpoint(eng, cp)


class TestResumeBitIdentical:
    def test_sequential_resume_matches_uninterrupted(self, water_base, tmp_path):
        s_ref = _fresh(water_base)
        with SequentialEngine(s_ref, options=RUN_OPTS) as eng:
            for _ in range(6):
                rep_ref = eng.step()

        path = tmp_path / "run.ckpt"
        s_a = _fresh(water_base)
        with SequentialEngine(
            s_a, options=RUN_OPTS, checkpoint_every=3, checkpoint_path=path
        ) as eng:
            for _ in range(3):
                eng.step()
            assert eng.n_checkpoints == 1

        s_b = _fresh(water_base)
        with SequentialEngine(s_b, options=RUN_OPTS) as eng:
            restore_run_checkpoint(eng, load_run_checkpoint(path))
            assert eng._step == 3
            for _ in range(3):
                rep_res = eng.step()

        np.testing.assert_array_equal(s_b.positions, s_ref.positions)
        np.testing.assert_array_equal(s_b.velocities, s_ref.velocities)
        assert rep_res.total == rep_ref.total

    def test_checkpoint_every_validation(self, water_base):
        with pytest.raises(ValueError):
            SequentialEngine(_fresh(water_base), options=RUN_OPTS, checkpoint_every=-1)
        with pytest.raises(ValueError):
            SequentialEngine(_fresh(water_base), options=RUN_OPTS, checkpoint_every=5)
