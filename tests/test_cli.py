"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flow_defaults(self):
        args = build_parser().parse_args(["flow", "aes"])
        assert args.design == "aes"
        assert args.config == "3D_HET"
        assert args.scale == 0.4

    def test_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "fft"])

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flow", "aes", "--config", "4D"])

    def test_matrix_stats_and_jobs_flags(self):
        args = build_parser().parse_args(
            ["matrix", "aes", "--stats", "--jobs", "4"]
        )
        assert args.stats is True
        assert args.jobs == 4
        args = build_parser().parse_args(["matrix", "aes"])
        assert args.stats is False
        assert args.jobs is None

    def test_cache_flags(self):
        assert build_parser().parse_args(["cache"]).clear is False
        assert build_parser().parse_args(["cache", "--clear"]).clear is True

    def test_trace_flag_on_run_commands(self):
        for base in (["flow", "aes"], ["matrix", "aes"],
                     ["sweep", "aes"], ["report"]):
            assert build_parser().parse_args(base).trace is None
            args = build_parser().parse_args(base + ["--trace", "t.json"])
            assert args.trace == "t.json"

    def test_trace_and_profile_subcommands(self):
        args = build_parser().parse_args(["trace", "t.json"])
        assert args.file == "t.json"
        assert args.depth is None
        assert args.validate is False
        args = build_parser().parse_args(
            ["trace", "t.json", "--depth", "2", "--no-metrics", "--validate"]
        )
        assert args.depth == 2
        assert args.no_metrics is True
        assert args.validate is True
        assert build_parser().parse_args(["profile", "t.json"]).top == 5
        assert build_parser().parse_args(
            ["profile", "t.json", "--top", "3"]
        ).top == 3

    def test_resilience_flags(self):
        for base in (["matrix", "aes"], ["report"]):
            args = build_parser().parse_args(base)
            assert args.keep_going is False
            assert args.max_retries is None
            assert args.timeout is None
            assert args.resume is False
            args = build_parser().parse_args(base + [
                "--keep-going", "--max-retries", "5",
                "--timeout", "30", "--resume",
            ])
            assert args.keep_going is True
            assert args.max_retries == 5
            assert args.timeout == 30.0
            assert args.resume is True


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table IV" in out
        assert "0.9600" in out  # the 2-D wafer cost constant

    def test_flow(self, capsys):
        rc = main([
            "flow", "aes", "--config", "2D_12T", "--period", "0.7",
            "--scale", "0.2", "--seed", "7",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aes [2D_12T]" in out
        assert "total_power_mw" in out

    def test_export(self, tmp_path, capsys):
        rc = main([
            "export", "aes", "--config", "2D_12T", "--period", "0.7",
            "--scale", "0.2", "--seed", "7", "--output", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "aes.v").exists()
        assert (tmp_path / "aes.def").exists()
        assert (tmp_path / "28nm_12T.lib").exists()

    def test_cache_info_and_clear(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / "deadbeef.json").write_text("{\"payload\": {}}")
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entries     1" in out
        assert main(["cache", "--clear"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.json"))

    def test_flow_trace_roundtrip(self, tmp_path, capsys, monkeypatch):
        """--trace writes a valid file that trace/profile can read back."""
        import json
        import os

        from repro.obs import trace
        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "t.json"
        try:
            rc = main([
                "flow", "aes", "--config", "2D_12T", "--period", "0.7",
                "--scale", "0.2", "--seed", "7", "--trace", str(path),
            ])
        finally:
            # main() exports REPRO_TRACE so pool workers would inherit
            # it; undo that side effect for the rest of the suite.
            os.environ.pop(trace.ENV_TRACE, None)
            trace.reset_trace()
            trace.disable_tracing()
        assert rc == 0
        captured = capsys.readouterr()
        assert "wrote trace" in captured.err
        assert validate_chrome_trace(json.loads(path.read_text())) == []

        assert main(["trace", str(path), "--validate"]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flow" in out and "synthesis" in out
        assert main(["profile", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out and "self%" in out

    def test_trace_rejects_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": [{"ph": "X", "name": "x"}]}')
        assert main(["trace", str(path), "--validate"]) == 1
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,content", [
        (["profile"], None), (["trace"], None), (["trace", "--validate"], None),
        (["profile"], "{bad"), (["trace"], "{bad"),
    ])
    def test_unreadable_trace_is_one_line_error(
        self, argv, content, tmp_path, capsys
    ):
        path = tmp_path / "trace.json"
        if content is not None:
            path.write_text(content)
        assert main([*argv, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert len(err.strip().splitlines()) == 1

    def test_matrix_stats(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rc = main([
            "matrix", "aes", "--period", "0.9",
            "--scale", "0.2", "--seed", "7", "--stats",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3D_HET" in out
        assert "-- telemetry --" in out
        assert "flows run" in out


class TestDegradedRuns:
    """Failure semantics at the CLI boundary, driven by fault injection."""

    @pytest.fixture(autouse=True)
    def faulty_cell(self, monkeypatch, tmp_path):
        from repro.experiments import faults
        from repro.experiments.runner import clear_memory_caches
        from repro.experiments.telemetry import reset_telemetry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "site=cell,design=aes,config=3D_HET,kind=raise,times=0",
        )
        faults.reset_fault_state()
        clear_memory_caches()
        reset_telemetry()
        yield
        faults.reset_fault_state()
        clear_memory_caches()
        reset_telemetry()

    ARGS = ["matrix", "aes", "--period", "0.9", "--scale", "0.2",
            "--seed", "7"]

    def test_keep_going_prints_failure_table_and_exits_3(self, capsys):
        from repro.cli import EXIT_QUARANTINED

        rc = main(self.ARGS + ["--keep-going"])
        assert rc == EXIT_QUARANTINED
        out = capsys.readouterr().out
        assert "QUARANTINED" in out
        assert "-- failed cells --" in out
        assert "FaultInjected" in out
        # the healthy cells still printed their rows
        assert "2D_12T" in out and "WNS" in out

    def test_fail_fast_prints_error_and_exits_1(self, capsys):
        rc = main(self.ARGS)
        assert rc == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "design=aes" in captured.err
        assert "config=3D_HET" in captured.err
