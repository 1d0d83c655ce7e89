"""CLI smoke tests (direct invocation, captured stdout)."""

import re

import pytest

import repro.backend as B
from repro.backend.c_backend import (
    DISPATCHED_KERNELS, GIL_HELD, GIL_RELEASED, LANE_COMPACTION,
)
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        for cmd in ("info", "md", "scaling", "audit", "grainsize"):
            args = build_parser().parse_args([cmd])
            assert args.command == cmd


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "92224" in out.replace(",", "")
        assert "ASCI-Red" in out

    def test_backends_prints_the_default_ewald_table(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "available: numpy" in out
        # 512 intervals an octave over [1, 81] A^2, one 64-byte line each
        assert "intervals:  3209 (512 an octave of r^2 from 1 A^2), 205376 bytes" in out
        error = out.split("max error:")[1].split()
        assert float(error[0]) <= 1e-9 and float(error[4]) <= 1e-11

    def test_backends_names_each_kernels_build_and_compaction(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        if "c:         ok" not in out:
            pytest.skip("no compiled backend on this host")
        lines = out.split("dispatch:")[1].splitlines()
        dispatch = lines[0].split()[0]
        assert dispatch in ("avx512f", "portable", "none")
        build = "portable" if dispatch == "none" else dispatch
        rows = lines[1 : 1 + len(GIL_RELEASED) + len(GIL_HELD)]
        for name, line in zip((*GIL_RELEASED, *GIL_HELD), rows, strict=True):
            gil = ["GIL", "held" if name in GIL_HELD else "released"]
            if name not in DISPATCHED_KERNELS:
                assert line.split() == [f"{name}:", "portable", "build,", *gil]
                continue
            lanes = build == "avx512f" and name in LANE_COMPACTION
            compaction = "in lanes," if lanes else "scalar,"
            assert line.split() == [
                f"{name}:", build, "build,", "compaction", *compaction.split(), *gil
            ]

    def test_md(self, capsys):
        assert main(["md", "--waters", "27", "--steps", "3", "--cutoff", "5"]) == 0
        out = capsys.readouterr().out
        assert "kinetic" in out
        # backend line + header + 3 steps + pairlist summary
        assert len(out.strip().splitlines()) == 6
        assert out.startswith("kernel backend: ")
        assert "pairlist:" in out

    def test_md_defaults_to_the_environment_backend(self, capsys, monkeypatch):
        """Without ``--backend`` the session default applies, which
        ``REPRO_BACKEND`` names."""
        monkeypatch.setenv(B.ENV_VAR, "numpy")
        # re-resolve from the environment; the old default comes back after
        monkeypatch.setattr(B, "_default", None)
        assert main(["md", "--waters", "27", "--steps", "1", "--cutoff", "5"]) == 0
        assert capsys.readouterr().out.startswith("kernel backend: numpy\n")

    def test_md_backend_flag_leaves_the_default(self, capsys):
        """``--backend`` picks this run's engine's kernels only: the
        process default every later engine resolves stays as it was."""
        before = B.default_backend()
        assert main(
            ["md", "--waters", "27", "--steps", "1", "--cutoff", "5",
             "--backend", "numpy"]
        ) == 0
        assert capsys.readouterr().out.startswith("kernel backend: numpy\n")
        assert B.default_backend() is before

    def test_md_pairlist_disabled(self, capsys):
        assert main(
            ["md", "--waters", "27", "--steps", "3", "--cutoff", "5",
             "--pairlist-skin", "0"]
        ) == 0
        out = capsys.readouterr().out
        # no reuse: every evaluation (the initial one + 3 steps) rebuilds
        assert "pairlist: 4 builds, reuse fraction 0.00" in out

    def test_md_rejects_negative_skin(self):
        with pytest.raises(SystemExit):
            main(["md", "--waters", "27", "--steps", "1", "--pairlist-skin", "-1"])

    def test_scaling_mini(self, capsys):
        assert main(["scaling", "--system", "mini", "--procs", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "Speedup" in out

    def test_audit_mini(self, capsys):
        assert main(["audit", "--system", "mini", "--procs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Ideal" in out and "Actual" in out

    def test_grainsize_mini(self, capsys):
        assert main(["grainsize", "--system", "mini"]) == 0
        out = capsys.readouterr().out
        assert "before pair splitting" in out

    def test_unknown_machine_exits(self):
        with pytest.raises(SystemExit):
            main(["scaling", "--system", "mini", "--machine", "Cray-XMP"])

    def test_report_empty_dir_errors(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path)]) == 1

    def test_report_prints_artifacts(self, tmp_path, capsys):
        (tmp_path / "table9.txt").write_text("hello table")
        assert main(["report", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table9" in out and "hello table" in out


class TestResilienceFlags:
    """--fault-plan / --checkpoint-every / --workdir."""

    MD27 = ["md", "--waters", "27", "--steps", "3", "--cutoff", "5"]

    def test_fault_plan_needs_parallel_workers(self):
        with pytest.raises(SystemExit, match="workers"):
            main(self.MD27 + ["--fault-plan", "kill=0@1"])

    def test_fault_plan_rejects_garbage(self):
        with pytest.raises(SystemExit, match="bad fault_plan"):
            main(self.MD27 + ["--workers", "2", "--fault-plan", "bogus"])

    def test_fault_plan_refuses_what_the_pool_cannot_honour(self):
        with pytest.raises(SystemExit, match="'drop=0.1'"):
            main(self.MD27 + ["--workers", "2", "--fault-plan", "drop=0.1"])

    @pytest.mark.parametrize(
        "flag, value", [("--fault-plan", "kill=0@1"), ("--checkpoint-interval", "2")]
    )
    def test_audit_takes_no_fault_flags(self, flag, value, capsys):
        """The simulated machine models no failures; a fault plan is the
        supervised pool's (``md --workers N --fault-plan``)."""
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--system", "mini", "--procs", "4", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kmax, message", [("-1", "kmax must be >= 0"), ("17", "kmax must be <= 16")]
    )
    def test_kmax_outside_the_grid_cap_is_refused(self, kmax, message):
        with pytest.raises(SystemExit, match=message):
            main(self.MD27 + ["--ewald", "--kmax", kmax])

    def test_checkpoint_every_needs_workdir(self):
        with pytest.raises(SystemExit, match="--checkpoint-every needs --workdir"):
            main(self.MD27 + ["--checkpoint-every", "2"])

    def test_checkpoint_every_rejects_negative(self, tmp_path):
        with pytest.raises(SystemExit, match="checkpoint_every must be >= 0"):
            main(
                self.MD27
                + ["--checkpoint-every", "-1", "--workdir", str(tmp_path)]
            )

    @pytest.mark.parametrize("flag", ["--resume", "--checkpoint-path", "--grainsize-ms"])
    def test_retired_flags_are_unknown(self, flag, capsys):
        """A run resumes from its ``--workdir``; the grainsize target is the
        engine's keyword alone."""
        with pytest.raises(SystemExit) as exc:
            main(self.MD27 + [flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_resume_runs_to_the_total(self, tmp_path, capsys):
        """``--steps`` is the run's total: a run finding a step-2
        checkpoint in its workdir prints steps 3-5 only, and its last row
        is a fresh 5-step run's, byte for byte."""
        run = ["md", "--waters", "27", "--cutoff", "5", "--checkpoint-every", "2"]
        workdir = str(tmp_path / "run")
        assert main(run + ["--steps", "3", "--workdir", workdir]) == 0
        out = capsys.readouterr().out
        assert "checkpoints: 1 written" in out
        assert main(run + ["--steps", "5", "--workdir", workdir]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from checkpoint at step 2" in resumed
        fresh_dir = str(tmp_path / "fresh")
        assert main(run + ["--steps", "5", "--workdir", fresh_dir]) == 0
        fresh = capsys.readouterr().out
        assert [row.split()[0] for row in _rows(resumed)] == ["3", "4", "5"]
        assert _rows(resumed)[-1] == _rows(fresh)[-1]

    def test_resume_refuses_another_spec(self, tmp_path):
        """A workdir's checkpoint continues the run that wrote it: only
        ``--steps`` may change, whatever else a later run asks for."""
        workdir = str(tmp_path / "run")
        run = ["md", "--waters", "27", "--cutoff", "5", "--workdir", workdir]
        assert main(run + ["--steps", "3", "--checkpoint-every", "2"]) == 0
        with pytest.raises(SystemExit, match="written with temperature=300.0, not 50.0"):
            main(run + ["--steps", "4", "--dt", "0.5", "--temperature", "50"])

    def test_resume_refuses_a_checkpoint_past_the_total(self, tmp_path):
        run = ["md", "--waters", "27", "--cutoff", "5", "--checkpoint-every", "2",
               "--workdir", str(tmp_path / "run")]
        assert main(run + ["--steps", "3"]) == 0
        with pytest.raises(SystemExit, match="at step 2, past this run's 1 steps"):
            main(run + ["--steps", "1"])

    def test_resume_corrupt_file_errors(self, tmp_path):
        (tmp_path / "checkpoint.npz").write_bytes(b"garbage")
        with pytest.raises(SystemExit, match="corrupt run checkpoint"):
            main(self.MD27 + ["--workdir", str(tmp_path)])

    def test_refused_checkpoint_leaves_no_worker_processes(self, tmp_path):
        """The job closes the engine it built when its checkpoint is
        refused: the supervised workers a fault plan started are gone."""
        import multiprocessing

        (tmp_path / "checkpoint.npz").write_bytes(b"garbage")
        with pytest.raises(SystemExit, match="corrupt run checkpoint"):
            main(
                ["md", "--waters", "120", "--steps", "3", "--cutoff", "6",
                 "--workers", "2", "--fault-plan", "kill=1@5",
                 "--workdir", str(tmp_path)]
            )
        assert multiprocessing.active_children() == []


def _rows(out: str) -> list[str]:
    """The step rows of an ``md`` run's output."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.split()[:1] == ["step"])
    end = next(i for i, line in enumerate(lines) if line.startswith("pairlist:"))
    return lines[start + 1 : end]


class TestMdRun:
    """``md`` is one ``SimSpec`` stepped by a ``SimJob``."""

    def test_each_rows_temperature_is_its_own(self, capsys):
        """Every row's T is ``2 KE / (3 N k_B)`` of that row's kinetic
        energy (27 waters: 81 atoms), within the printed rounding."""
        from repro.md.constants import BOLTZMANN_KCAL

        assert main(["md", "--waters", "27", "--steps", "3", "--cutoff", "5"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert len(rows) == 3
        for row in rows:
            kinetic, temperature = float(row.split()[1]), float(row.split()[4])
            expected = 2 * kinetic / (3 * 81 * BOLTZMANN_KCAL)
            # kinetic printed to 0.005 kcal/mol (0.021 K), T to 0.05 K
            assert temperature == pytest.approx(expected, abs=0.08), row

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--temperature", "-10"], "temperature must be >= 0"),
            (["--temperature", "nan"], "temperature must be finite"),
            (["--waters", "0"], r"waters must lie in \[1, 100000\]"),
            (["--skew", "-1"], "skew must be >= 0"),
            (["--steps", "0"], "steps must be >= 1"),
        ],
    )
    def test_spec_refusals_exit_cleanly(self, flags, message, capsys):
        """What ``SimSpec`` refuses, ``md`` refuses with the same message,
        before building anything and without a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["md", "--steps", "3", "--cutoff", "5", *flags])
        assert isinstance(exc.value.code, str)
        assert re.fullmatch(message, exc.value.code)
        assert capsys.readouterr().out == ""


class TestServe:
    def test_serve_restores_signal_handlers(self, monkeypatch, tmp_path, capsys):
        # regression: cmd_serve installed SIGINT/SIGTERM handlers bound to
        # its server and left them in place after the server was gone
        import signal

        from repro.service import ServiceServer

        signums = (signal.SIGINT, signal.SIGTERM)
        while_serving = []

        def wait(self, timeout=None):
            while_serving.extend(signal.getsignal(s) for s in signums)
            return True

        monkeypatch.setattr(ServiceServer, "wait", wait)
        before = [signal.getsignal(s) for s in signums]
        assert main(["serve", "--port", "0", "--workdir", str(tmp_path)]) == 0
        assert "service stopped" in capsys.readouterr().out
        assert all(h not in before for h in while_serving)  # were installed
        assert [signal.getsignal(s) for s in signums] == before

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--worker-slots", "-1", "worker_slots must be >= 0"),
            ("--lanes", "0", "lanes must be >= 1"),
            ("--slice-steps", "0", "slice_steps must be >= 1"),
        ],
    )
    def test_serve_refuses_what_the_service_refuses(
        self, flag, value, message, monkeypatch, tmp_path
    ):
        """The service's own check answers, before any port is bound."""
        from repro.service import ServiceServer

        def bind(*args, **kwargs):
            raise AssertionError("bound a port for a refused service")

        monkeypatch.setattr(ServiceServer, "__init__", bind)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--workdir", str(tmp_path), flag, value])
        assert exc.value.code == message
