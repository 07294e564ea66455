"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.strategy == "gain"
        assert args.generator == "phase"
        assert args.interleaver == "lp"

    def test_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--strategy", "bogus"])

    def test_schedule_app_choices(self):
        args = build_parser().parse_args(["schedule", "--app", "ligo"])
        assert args.app == "ligo"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--app", "spark"])


class TestCommands:
    def test_table5(self, capsys):
        assert main(["table5", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "comment" in out and "orderkey" in out

    def test_table6_small(self, capsys):
        assert main(["table6", "--rows", "5000"]) == 0
        out = capsys.readouterr().out
        assert "Lookup" in out and "Order by" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--app", "montage", "--skyline", "2",
                     "--containers", "8"]) == 0
        out = capsys.readouterr().out
        assert "quanta" in out

    def test_run_tiny_horizon(self, capsys):
        assert main(["run", "--strategy", "no_index", "--generator", "phase",
                     "--horizon-quanta", "8", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "finished=" in out

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_zero_horizon_is_rejected(self, capsys, command):
        # 0 is a value, not "unset": it must not fall back to the
        # default horizon.
        assert main([command, "--horizon-quanta", "0"]) == 2
        assert "total_time_s must be positive" in capsys.readouterr().err


class TestChaosExplore:
    def test_expect_violation_succeeds_on_planted_bug(self, capsys, tmp_path):
        replay = tmp_path / "replay.json"
        assert main([
            "chaos", "explore", "--scenario", "planted",
            "--explore-strategy", "exhaustive", "--depth", "8",
            "--expect-violation", "delete-racing-build",
            "--save-replay", str(replay),
        ]) == 0
        out = capsys.readouterr().out
        assert "minimized trace (1 choices)" in out
        assert "found expected violation" in out
        assert replay.exists()

    def test_replay_reproduces_byte_identically(self, capsys, tmp_path):
        replay = tmp_path / "replay.json"
        assert main([
            "chaos", "explore", "--scenario", "planted",
            "--explore-strategy", "exhaustive", "--depth", "8",
            "--expect-violation", "delete-racing-build",
            "--save-replay", str(replay),
        ]) == 0
        capsys.readouterr()
        assert main(["chaos", "explore", "--replay", str(replay)]) == 0
        out = capsys.readouterr().out
        assert "byte-identically" in out

    def test_violations_fail_with_context_report(self, capsys):
        assert main([
            "chaos", "explore", "--scenario", "planted",
            "--explore-strategy", "random", "--budget", "16",
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL:" in out
        assert "context:" in out
        assert '"scenario": "planted"' in out

    def test_expect_violation_fails_when_absent(self, capsys):
        # The identity-only budget of 0 walks finds nothing.
        assert main([
            "chaos", "explore", "--scenario", "toy",
            "--explore-strategy", "random", "--budget", "0",
            "--expect-violation", "delete-racing-build",
        ]) == 1
        assert "not found" in capsys.readouterr().out

    def test_workdir_still_required_for_sweep_and_soak(self, capsys):
        assert main(["chaos", "sweep"]) == 2
        assert "--workdir is required" in capsys.readouterr().err

    def test_bad_crash_point_env_lists_valid_names(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_POINT", "bogus.point")
        assert main([
            "chaos", "explore", "--scenario", "toy", "--budget", "0",
            "--explore-strategy", "random",
        ]) == 2
        err = capsys.readouterr().err
        assert "bogus.point" in err
        assert "service.pre_decide" in err
