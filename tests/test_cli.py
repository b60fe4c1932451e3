"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.sim import system


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "gcc", "MORC", "-n", "5000", "--bandwidth-mb", "400"])
        assert args.benchmark == "gcc"
        assert args.scheme == "MORC"
        assert args.instructions == 5000
        assert args.bandwidth_mb == 400.0

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "gcc", "ZSTD"])

    def test_every_experiment_has_subcommand(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.command == name


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "MORC" in out and "figure6" in out and "gcc_8" in out

    def test_run(self, capsys):
        assert main(["run", "gcc", "MORC", "-n", "20000"]) == 0
        out = capsys.readouterr().out
        assert "ratio=" in out and "throughput=" in out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        assert "MORCMerged" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "DDR3" in capsys.readouterr().out

    def test_experiment_with_args(self, capsys):
        assert main(["figure15", "-b", "gcc", "-n", "15000"]) == 0
        assert "MORCMerged" in capsys.readouterr().out

    def test_figure8_mix_passthrough(self, capsys):
        assert main(["figure8", "-b", "S6", "-n", "1500"]) == 0
        assert "S6" in capsys.readouterr().out

    def test_skip_mode_reports_failed_cells(self, capsys, repro_env,
                                            monkeypatch):
        original = system.run_single_program

        def crashing(benchmark, scheme, **options):
            if scheme == "Adaptive":
                raise RuntimeError(f"test crash in {benchmark}/{scheme}")
            return original(benchmark, scheme, **options)

        monkeypatch.setattr(system, "run_single_program", crashing)
        repro_env.set(REPRO_JOBS="1")
        assert main(["figure6", "-b", "gcc", "-n", "1500",
                     "--on-error", "skip"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 cell(s) failed" in captured.err
        assert "gcc/Adaptive: error: RuntimeError" in captured.err

    def test_on_error_rejects_retry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure6", "--on-error", "retry"])
