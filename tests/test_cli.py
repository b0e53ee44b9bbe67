"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("simulate", "suite", "trace", "tune", "reproduce",
                    "audit", "serve"):
            assert cmd in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("jobs", ["0", "-2", "four"])
    def test_reproduce_rejects_bad_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["reproduce", "--jobs", jobs])
        assert excinfo.value.code == 2  # argparse usage error, no traceback
        err = capsys.readouterr().err
        assert "positive integer" in err or "not an integer" in err

    def test_reproduce_accepts_positive_jobs(self):
        args = build_parser().parse_args(["reproduce", "--jobs", "4"])
        assert args.jobs == 4

    @pytest.mark.parametrize("flag", ["--shards", "--workers-per-shard",
                                      "--max-queue", "--batch-size"])
    def test_serve_rejects_nonpositive_sizes(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag, "0"])


class TestSimulate:
    def test_runs_and_exits_zero(self, capsys):
        assert main(["simulate", "--cpu", "C", "--workload", "557.xz"]) == 0
        out = capsys.readouterr().out
        assert "efficiency" in out
        assert "Xeon" in out

    def test_partial_workload_name(self, capsys):
        assert main(["simulate", "--workload", "xz"]) == 0

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "notabenchmark"])

    def test_ambiguous_workload_lists_matching_candidates(self, capsys):
        # "ca" matches 507.cactuBSSN and 527.cam4 (and nothing else).
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--workload", "ca"])
        message = str(excinfo.value)
        assert "ambiguous" in message
        assert "507.cactuBSSN" in message
        assert "527.cam4" in message
        assert "557.xz" not in message  # not the full catalogue

    def test_emulation_strategy(self, capsys):
        assert main(["simulate", "--workload", "557.xz",
                     "--strategy", "e"]) == 0

    @pytest.mark.parametrize("flags", [["--offset", "0"],
                                       ["--strategy", "e", "--offset", "0"],
                                       ["--cores", "9"]])
    def test_invalid_point_exits_with_one_line(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--workload", "557.xz", *flags])
        message = str(excinfo.value)
        assert message.startswith("invalid operating point: ")
        assert "\n" not in message


class TestTrace:
    def test_gen_info_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        assert main(["trace", "gen", "--workload", "557.xz",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert main(["trace", "info", str(out)]) == 0
        text = capsys.readouterr().out
        assert "events" in text
        assert "bursts" in text

    def test_record(self, tmp_path, capsys):
        out = tmp_path / "rec.npz"
        assert main(["trace", "record", "--requests", "3",
                     "--bytes", "512", "--out", str(out)]) == 0
        assert "encrypted bytes" in capsys.readouterr().out


class TestAudit:
    def test_safe_offset_exits_zero(self, capsys):
        assert main(["audit", "--offset", "-0.07"]) == 0
        assert "holds: True" in capsys.readouterr().out

    def test_reckless_offset_exits_nonzero(self, capsys):
        assert main(["audit", "--offset", "-0.28"]) == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestTune:
    def test_small_grid(self, capsys):
        assert main(["tune", "--cpu", "C", "--deadlines", "20,30"]) == 0
        assert "best parameters" in capsys.readouterr().out


class TestServe:
    def test_serves_for_duration_and_drains(self, capsys):
        # Ephemeral port, thread workers, short run: a full serve
        # lifecycle (bind, announce, drain, metrics dump) in ~0.2 s.
        assert main(["serve", "--port", "0", "--inline", "--no-cache",
                     "--duration", "0.2", "--shards", "1",
                     "--workers-per-shard", "1"]) == 0
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out
        assert "cache off" in out

    def test_banner_reports_cache_on_even_when_empty(self, tmp_path,
                                                     capsys):
        # An empty ResultCache is falsy (len == 0); the banner must
        # report configuration, not current occupancy.
        assert main(["serve", "--port", "0", "--inline",
                     "--duration", "0.1", "--shards", "1",
                     "--workers-per-shard", "1",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "cache on" in capsys.readouterr().out


class TestFigures:
    def test_single_figure_renders(self, capsys):
        assert main(["figures", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "Fig 12" in out

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            main(["figures", "fig99"])
