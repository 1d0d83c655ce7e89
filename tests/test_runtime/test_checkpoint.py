"""Disk run checkpoints for the real engines: the ``.npz`` round trip,
atomic writes, and a resumed run that is bit-identical to the
uninterrupted one."""

import numpy as np
import pytest

from repro.builder import small_water_box
from repro.md.engine import SequentialEngine
from repro.md.nonbonded import NonbondedOptions
from repro.runtime.checkpoint import (
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
