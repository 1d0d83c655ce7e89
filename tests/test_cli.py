"""CLI smoke tests (direct invocation, captured stdout)."""

import pytest

import repro.backend as B
from repro.backend.c_backend import DISPATCHED_KERNELS, LANE_COMPACTION
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
        rows = lines[1 : 1 + len(DISPATCHED_KERNELS)]
        for name, line in zip(DISPATCHED_KERNELS, rows, strict=True):
            lanes = build == "avx512f" and name in LANE_COMPACTION
            compaction = "in lanes" if lanes else "scalar"
            assert line.split() == [
                f"{name}:", build, "build,", "compaction", *compaction.split()
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
    """--fault-plan / --checkpoint-every / --checkpoint-path / --resume."""

    MD27 = ["md", "--waters", "27", "--steps", "3", "--cutoff", "5"]

    def test_fault_plan_needs_parallel_workers(self):
        with pytest.raises(SystemExit, match="workers"):
            main(self.MD27 + ["--fault-plan", "kill=0@1"])

    def test_fault_plan_rejects_garbage(self):
        with pytest.raises(SystemExit, match="fault-plan"):
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

    @pytest.mark.parametrize("kmax", ["-1", "17"])
    def test_kmax_outside_the_grid_cap_is_refused(self, kmax):
        with pytest.raises(SystemExit, match="kmax must lie in"):
            main(self.MD27 + ["--ewald", "--kmax", kmax])

    def test_checkpoint_every_needs_path(self):
        with pytest.raises(SystemExit, match="checkpoint-path"):
            main(self.MD27 + ["--checkpoint-every", "2"])

    def test_checkpoint_every_rejects_negative(self):
        with pytest.raises(SystemExit, match="checkpoint-every"):
            main(self.MD27 + ["--checkpoint-every", "-1"])

    def test_resume_needs_path(self):
        with pytest.raises(SystemExit, match="checkpoint-path"):
            main(self.MD27 + ["--resume"])

    def test_resume_missing_file_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint"):
            main(
                self.MD27
                + ["--resume", "--checkpoint-path", str(tmp_path / "nope.npz")]
            )

    def test_checkpoint_write_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "run.npz")
        assert main(
            self.MD27 + ["--checkpoint-every", "2", "--checkpoint-path", path]
        ) == 0
        out = capsys.readouterr().out
        assert "checkpoints: 1 written" in out
        assert main(
            self.MD27 + ["--resume", "--checkpoint-path", path]
        ) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at step 2" in out

    def test_resume_corrupt_file_errors(self, tmp_path):
        path = tmp_path / "run.npz"
        path.write_bytes(b"garbage")
        with pytest.raises(SystemExit, match="resume"):
            main(self.MD27 + ["--resume", "--checkpoint-path", str(path)])


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
