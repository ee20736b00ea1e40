"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

#: Run everything on minuscule traces so the CLI tests stay fast.
FAST = ["--scale", "512"]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--schemes", "nonesuch"])

    def test_scale_parsed(self):
        args = build_parser().parse_args(["--scale", "32", "table4"])
        assert args.scale == 32.0


class TestCommands:
    def test_compare(self, capsys):
        assert main(FAST + ["compare", "--schemes", "dir0b", "dragon"]) == 0
        out = capsys.readouterr().out
        assert "dir0b" in out and "pipelined" in out

    def test_table4(self, capsys):
        assert main(FAST + ["table4"]) == 0
        assert "rm-blk-cln" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(FAST + ["table5"]) == 0
        assert "cumulative" in capsys.readouterr().out

    def test_figure1(self, capsys):
        assert main(FAST + ["figure1"]) == 0
        assert "%" in capsys.readouterr().out

    def test_spinlock(self, capsys):
        assert main(FAST + ["spinlock"]) == 0
        assert "Dir1NB" in capsys.readouterr().out

    def test_trace_stats(self, capsys):
        assert main(FAST + ["trace-stats"]) == 0
        out = capsys.readouterr().out
        assert "POPS" in out and "THOR" in out and "PERO" in out

    def test_storage(self, capsys):
        assert main(["storage", "--caches", "4", "64"]) == 0
        out = capsys.readouterr().out
        assert "Dir0B" in out

    @pytest.mark.parametrize("count", ["0", "-4"])
    def test_storage_rejects_a_cache_count_below_one(self, count, capsys):
        assert main(["storage", "--caches", "4", count]) == 2
        err = capsys.readouterr().err
        assert f"cache counts must be at least 1, got {count}" in err

    def test_export_trace_text(self, tmp_path, capsys):
        path = tmp_path / "pops.txt"
        assert main(FAST + ["export-trace", "POPS", str(path)]) == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_export_trace_binary_round_trips(self, tmp_path):
        from repro.trace.atum import read_binary

        path = tmp_path / "pero.bin"
        main(FAST + ["export-trace", "PERO", str(path), "--format", "binary"])
        records = list(read_binary(path))
        assert len(records) > 1000

    def test_classify(self, capsys):
        assert main(FAST + ["classify", "POPS"]) == 0
        out = capsys.readouterr().out
        assert "private" in out and "synchronization" in out

    def test_validate(self, capsys):
        assert main(FAST + ["validate", "dir0b"]) == 0
        assert "coherent" in capsys.readouterr().out

    def test_modelcheck_ok(self, capsys):
        assert main(["modelcheck", "dragon", "--caches", "3"]) == 0
        assert "21 states, 189 edges: OK" in capsys.readouterr().out

    def test_timed(self, capsys):
        assert main(FAST + ["timed", "dir0b", "--q", "2"]) == 0
        out = capsys.readouterr().out
        assert "bus util" in out

    def test_nonpositive_scale_rejected(self, capsys):
        assert main(["--scale", "-1", "table4"]) == 2
        assert "--scale must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--scale", "nan", "table4"], "--scale must be positive and finite"),
            (["--scale", "inf", "table4"], "--scale must be positive and finite"),
            (
                FAST + ["sweep", "--schemes", "dir0b", "--cell-timeout", "nan"],
                "--cell-timeout must be positive and finite",
            ),
            (
                FAST + ["sweep", "--schemes", "dir0b", "--heartbeat-seconds", "nan"],
                "--heartbeat-seconds must be finite",
            ),
        ],
    )
    def test_non_finite_numbers_rejected(self, capsys, argv, message):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_nonpositive_jobs_rejected(self, capsys):
        assert main(FAST + ["--jobs", "0", "table4"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


#: Sweep runs shrink the grid further: two schemes, tiny traces.
SWEEP = ["sweep", "--schemes", "dir0b", "dragon"]


class TestSweepCommand:
    def test_cold_run_prints_cells_and_tables(self, capsys):
        assert main(FAST + SWEEP) == 0
        captured = capsys.readouterr()
        assert "cyc/ref pipe" in captured.out
        assert "Table 4" in captured.out and "Table 5" in captured.out
        assert "cached" in captured.err and "refs/sec" in captured.err

    def test_jobs_1_and_2_produce_identical_output(self, capsys):
        assert main(FAST + ["--jobs", "1"] + SWEEP) == 0
        serial = capsys.readouterr().out
        assert main(FAST + ["--jobs", "2"] + SWEEP) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_warm_cache_run_hits_cache_with_identical_output(
        self, tmp_path, capsys
    ):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(FAST + cache + SWEEP) == 0
        cold = capsys.readouterr()
        assert "(6 simulated, 0 cached, 0 failed)" in cold.err
        assert main(FAST + cache + SWEEP) == 0
        warm = capsys.readouterr()
        assert "(0 simulated, 6 cached, 0 failed)" in warm.err
        assert "6 hits" in warm.err
        assert warm.out == cold.out

    def test_multi_block_size_grid_skips_paper_tables(self, capsys):
        assert main(
            FAST
            + [
                "sweep",
                "--schemes",
                "dir0b",
                "--traces",
                "POPS",
                "--block-sizes",
                "16",
                "32",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 4" not in out  # grid has an extra axis
        assert out.count("dir0b") == 2  # one cell row per block size

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--schemes", "nonesuch"])

    def test_misspelt_scheme_gets_did_you_mean(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(FAST + ["sweep", "--schemes", "dir0bb"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown protocol 'dir0bb' (did you mean 'dir0b'?)" in err

    def test_bad_geometry_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(FAST + ["sweep", "--geometries", "64y4"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bad cache geometry '64y4': expected SETSxWAYS" in err

    def test_finite_geometry_grid_identical_across_jobs(self, capsys):
        grid = [
            "sweep",
            "--schemes",
            "dir0b",
            "--traces",
            "POPS",
            "--geometries",
            "8x2",
            "inf",
        ]
        assert main(FAST + ["--jobs", "1"] + grid) == 0
        serial = capsys.readouterr().out
        assert main(FAST + ["--jobs", "2"] + grid) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "8x2" in serial and "inf" in serial

    def test_nonpositive_block_size_exits_cleanly(self, capsys):
        assert main(FAST + ["sweep", "--block-sizes", "-4"]) == 2
        assert "must be positive" in capsys.readouterr().err


class TestResilienceCLI:
    """The sweep resilience flags: --retries/--cell-timeout/--keep-going/
    --resume, the hidden --fault-plan, and the exit-code contract."""

    GRID = ["sweep", "--schemes", "dir0b", "--traces", "POPS", "THOR"]

    def write_plan(self, tmp_path, *faults):
        from repro.resilience import FaultPlan, FaultSpec

        path = tmp_path / "plan.json"
        FaultPlan(faults=tuple(FaultSpec(**f) for f in faults)).dump(path)
        return str(path)

    def test_keep_going_exits_3_with_failure_table(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path,
            dict(cell="dir0b:POPS:*", kind="raise", attempt=None,
                 message="injected"),
        )
        code = main(
            FAST + self.GRID + ["--keep-going", "--fault-plan", plan]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "FAILED" in captured.out  # cell table marks the failed row
        assert "InjectedFault: injected" in captured.out  # failure table
        assert "1/2 cells failed" in captured.err

    def test_fail_fast_exits_1(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path,
            dict(cell="dir0b:POPS:*", kind="raise", attempt=None),
        )
        assert main(FAST + self.GRID + ["--fault-plan", plan]) == 1
        assert "sweep cell dir0b:POPS" in capsys.readouterr().err

    def test_retries_recover_a_transient_fault(self, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path, dict(cell="dir0b:POPS:*", kind="raise", attempt=1)
        )
        code = main(
            FAST + self.GRID + ["--retries", "1", "--fault-plan", plan]
        )
        assert code == 0
        assert "FAILED" not in capsys.readouterr().out

    def test_resume_finishes_only_failed_cells(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        plan = self.write_plan(
            tmp_path,
            dict(cell="dir0b:THOR:*", kind="raise", attempt=None),
        )
        assert main(
            FAST + cache + self.GRID + ["--keep-going", "--fault-plan", plan]
        ) == 3
        capsys.readouterr()
        # Resume without the fault: the good cell is a cache hit, the bad
        # one re-simulates, and the paper tables appear this time.
        assert main(FAST + cache + self.GRID + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "(1 simulated, 1 cached, 0 failed)" in captured.err
        assert "Table 4" in captured.out

    def test_journal_written_beside_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(
            FAST + ["--cache-dir", str(cache_dir)] + self.GRID
        ) == 0
        assert list(cache_dir.glob("*.journal.jsonl"))

    def test_injected_interrupt_exits_130_with_partial_results(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        plan = self.write_plan(
            tmp_path,
            dict(cell="dir0b:POPS:*", kind="interrupt", attempt=None),
        )
        code = main(
            FAST
            + ["--cache-dir", str(cache_dir)]
            + self.GRID
            + ["--fault-plan", plan]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" in err
        # The completed cell was flushed before the stop: resuming only
        # simulates the remaining one.
        capsys.readouterr()
        assert main(
            FAST + ["--cache-dir", str(cache_dir)] + self.GRID + ["--resume"]
        ) == 0
        assert "(1 simulated, 1 cached, 0 failed)" in capsys.readouterr().err

    @pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
    def test_failure_hint_only_advises_resume_with_a_cache(
        self, cached, tmp_path, capsys
    ):
        cache = ["--cache-dir", str(tmp_path / "cache")] if cached else []
        plan = self.write_plan(
            tmp_path,
            dict(cell="dir0b:POPS:*", kind="raise", attempt=None),
        )
        assert main(
            FAST + cache + self.GRID + ["--keep-going", "--fault-plan", plan]
        ) == 3
        err = capsys.readouterr().err
        assert "1/2 cells failed" in err
        if cached:
            assert "rerun with --resume" in err
            assert main(FAST + cache + self.GRID + ["--resume"]) == 0
        else:
            assert "--resume" not in err
            assert "rerun with --cache-dir DIR" in err

    def test_interrupt_without_a_cache_does_not_advise_resume(
        self, tmp_path, capsys
    ):
        plan = self.write_plan(
            tmp_path,
            dict(cell="dir0b:POPS:*", kind="interrupt", attempt=None),
        )
        assert main(FAST + self.GRID + ["--fault-plan", plan]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "--resume" not in err
        assert "nothing was cached" in err

    def test_resume_requires_cache_dir(self, capsys):
        assert main(FAST + self.GRID + ["--resume"]) == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err

    def test_bad_resilience_flags_exit_2(self, capsys):
        assert main(FAST + self.GRID + ["--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err
        assert main(FAST + self.GRID + ["--cell-timeout", "0"]) == 2
        assert "--cell-timeout" in capsys.readouterr().err
        assert main(FAST + self.GRID + ["--max-failures", "-1"]) == 2
        assert "--max-failures" in capsys.readouterr().err

    def test_unreadable_fault_plan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json")
        assert main(FAST + self.GRID + ["--fault-plan", str(bad)]) == 2
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_cache_faults_degrade_not_fail(self, tmp_path, capsys):
        """put-error faults leave results usable and the exit code clean."""
        plan = self.write_plan(
            tmp_path,
            dict(cell="*", kind="put-error", attempt=None),
        )
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(FAST + cache + self.GRID + ["--fault-plan", plan]) == 0
        capsys.readouterr()
        # Nothing landed on disk, so the second run re-simulates cleanly.
        assert main(FAST + cache + self.GRID) == 0
        assert "(2 simulated, 0 cached, 0 failed)" in capsys.readouterr().err


class TestFiniteCommand:
    #: Tiny grid: two schemes, two geometries, all three traces.
    FINITE = [
        "finite",
        "--schemes",
        "dir0b",
        "wti",
        "--geometries",
        "8x2",
        "inf",
    ]

    def test_prints_cycles_vs_geometry_table(self, capsys):
        assert main(FAST + self.FINITE) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "Bus cycles per reference vs cache geometry" in out
        assert "dir0b" in out and "wti" in out
        lines = out.strip().splitlines()
        rows = [line.split()[0] for line in lines[3:]]
        assert rows == ["8x2", "inf"]  # smallest cache first, infinite last
        assert "refs/sec" in captured.err  # metrics stay on stderr

    def test_output_is_deterministic(self, capsys):
        assert main(FAST + self.FINITE) == 0
        first = capsys.readouterr().out
        assert main(FAST + ["--jobs", "2"] + self.FINITE) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_default_schemes_are_the_papers_four(self, capsys):
        """Acceptance: cycles/ref vs cache size for Dir1NB, Dir0B, WTI, Dragon."""
        assert main(
            ["--scale", "2048", "finite", "--geometries", "8x2", "inf"]
        ) == 0
        out = capsys.readouterr().out
        header = out.strip().splitlines()[1]
        assert header.split() == ["geometry", "dir1nb", "wti", "dir0b", "dragon"]

    def test_finite_caches_cost_more_cycles_than_infinite(self, capsys):
        assert main(FAST + self.FINITE) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        finite_row = [float(x) for x in lines[3].split()[1:]]
        infinite_row = [float(x) for x in lines[4].split()[1:]]
        assert all(f > i for f, i in zip(finite_row, infinite_row))


class TestObservability:
    def test_profile_prints_stage_table(self, capsys):
        assert main(FAST + ["profile", "--protocols", "dir1nb"]) == 0
        out = capsys.readouterr().out
        assert "dir1nb / POPS" in out
        for row in ("trace.generate", "core.simulate", "report", "other", "total"):
            assert row in out
        assert "refs/s" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--backend", "reference", "profile"],
            ["--backend", "fast", "profile"],
            ["--jobs", "2", "--backend", "fast", "profile"],
            ["profile", "--geometry", "8x2"],
        ],
        ids=["reference", "fast", "jobs2", "geometry"],
    )
    def test_profile_rows_add_up_to_each_cell_span(
        self, flags, capsys, monkeypatch
    ):
        """Every printed table's stage rows plus its non-negative other
        row sum to the cell span the sweep recorded for that cell.  Both
        cells simulate POPS: inline, the first generates the trace and the
        second is served it (``trace.generate`` 0); each worker cell
        generates its own."""
        import repro.cli as cli
        from repro.obs.telemetry import CELL_STAGES, stage_seconds

        recorders = []

        class KeptRecorder(cli.SpanRecorder):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorders.append(self)

        monkeypatch.setattr(cli, "SpanRecorder", KeptRecorder)
        argv = FAST + flags + ["--protocols", "dir1nb", "dir4nb"]
        assert main(argv) == 0
        tables = capsys.readouterr().out.strip().split("\n\n")
        (recorder,) = recorders
        cells = {
            tuple(span.name.split(":")[:2]): span
            for span in recorder.spans
            if span.kind == "cell"
        }
        assert len(tables) == len(cells) == 2
        generated: dict = {}
        for table in tables:
            lines = table.splitlines()
            protocol, _, trace = lines[0].split(": ")[1].split()[:3]
            rows = {
                line.split()[0]: float(line.split()[1]) for line in lines[3:-1]
            }
            assert list(rows) == [
                "trace.generate", "core.simulate", "report", "other", "total",
            ]
            assert rows["other"] >= 0.0
            parts = sum(value for name, value in rows.items() if name != "total")
            assert parts == pytest.approx(rows["total"], abs=3e-4)
            cell = cells[(protocol, trace)]
            assert rows["total"] == pytest.approx(cell.duration_s, abs=1e-4)
            seconds = stage_seconds(recorder.spans, cell)
            assert seconds["core.simulate"] > 0.0 and seconds["report"] > 0.0
            generated.setdefault(trace, []).append(seconds["trace.generate"])
            parts = sum(seconds[name] for name in (*CELL_STAGES, "other"))
            assert parts == pytest.approx(seconds["total"])
            assert seconds["total"] == cell.duration_s
        for per_cell in generated.values():
            if "--jobs" in flags:
                assert all(value > 0.0 for value in per_cell)
            else:
                assert sum(value > 0.0 for value in per_cell) == 1
                assert per_cell.count(0.0) == len(per_cell) - 1

    def test_profile_simulates_cells_the_cache_holds(self, tmp_path, capsys):
        """A cache hit has no stages, so profile never reads the cache."""
        import json

        cache = ["--cache-dir", str(tmp_path / "cache")]
        sweep = ["sweep", "--schemes", "dir0b", "--traces", "POPS"]
        assert main(FAST + cache + sweep) == 0
        assert main(FAST + cache + sweep) == 0
        assert "(0 simulated, 1 cached," in capsys.readouterr().err
        metrics = tmp_path / "profile.json"
        assert main(
            FAST + cache
            + ["profile", "--protocols", "dir0b", "dragon",
               "--metrics-json", str(metrics)]
        ) == 0
        out = capsys.readouterr().out
        assert "dir0b / POPS" in out and "dragon / POPS" in out
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["sweep.simulated"] == 2
        assert counters.get("sweep.cache_hits", 0) == 0

    def test_profile_accepts_schemes_alias(self):
        args = build_parser().parse_args(["profile", "--schemes", "wti"])
        assert args.protocols == ["wti"]

    def test_compare_emit_trace_is_valid_chrome_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(
            FAST
            + ["compare", "--schemes", "dir0b", "--emit-trace", str(trace)]
        ) == 0
        assert "wrote Chrome trace" in capsys.readouterr().err
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(event["ph"] == "X" for event in events)
        # One metadata track per sweep cell (3 traces x 1 scheme).
        names = [e["args"]["name"] for e in events if e["ph"] == "M"]
        assert len(names) == 3
        assert all(name.startswith("dir0b/") for name in names)

    def test_sweep_metrics_json_matches_report(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        assert main(
            FAST + SWEEP + ["--metrics-json", str(metrics)]
        ) == 0
        assert "wrote metrics" in capsys.readouterr().err
        payload = json.loads(metrics.read_text())
        assert payload["cells"] == 6
        assert payload["simulated"] == 6
        assert payload["registry"]["counters"]["sweep.simulated"] == 6

    def test_emit_trace_bypasses_cache_with_identical_tables(
        self, tmp_path, capsys
    ):
        import json

        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(FAST + cache + SWEEP) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "trace.json"
        assert main(
            FAST + cache + SWEEP + ["--emit-trace", str(trace)]
        ) == 0
        probed = capsys.readouterr()
        assert probed.out == plain  # probes never perturb results
        assert "(6 simulated, 0 cached, 0 failed)" in probed.err  # cache bypassed
        events = json.loads(trace.read_text())["traceEvents"]
        assert sum(1 for e in events if e["ph"] == "X") > 0

    def test_finite_accepts_obs_flags(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.json"
        assert main(
            FAST
            + [
                "finite",
                "--schemes",
                "dir0b",
                "--geometries",
                "8x2",
                "--metrics-json",
                str(metrics),
            ]
        ) == 0
        assert json.loads(metrics.read_text())["cells"] == 3

    def test_verbose_flag_logs_sweep_lifecycle(self, capsys):
        assert main(FAST + ["-v"] + SWEEP) == 0
        err = capsys.readouterr().err
        assert "sweep started" in err and "sweep finished" in err

    def test_log_json_emits_json_lines(self, capsys):
        import json

        assert main(FAST + ["--log-level", "info", "--log-json"] + SWEEP) == 0
        err = capsys.readouterr().err
        started = [
            line
            for line in err.splitlines()
            if line.startswith("{") and '"sweep started"' in line
        ]
        assert len(started) == 1
        payload = json.loads(started[0])
        assert payload["cells"] == 6
        assert payload["logger"] == "repro.runner.sweep"

    def test_quiet_by_default(self, capsys):
        assert main(FAST + ["compare", "--schemes", "dir0b"]) == 0
        err = capsys.readouterr().err
        assert "sweep started" not in err

    def test_emit_trace_unwritable_path_exits_cleanly(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "trace.json"
        with pytest.raises(SystemExit, match="cannot write"):
            main(FAST + ["compare", "--schemes", "dir0b", "--emit-trace", str(missing)])

    def test_metrics_json_unwritable_path_exits_cleanly(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "metrics.json"
        with pytest.raises(SystemExit, match="cannot write"):
            main(
                FAST
                + ["compare", "--schemes", "dir0b", "--metrics-json", str(missing)]
            )


class TestErrorPaths:
    def test_export_trace_unwritable_path_exits_cleanly(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "out.trace"
        with pytest.raises(SystemExit, match="cannot write"):
            main(FAST + ["export-trace", "POPS", str(missing)])

    def test_export_trace_unknown_trace_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export-trace", "NOPE", "out.trace"])

    def test_modelcheck_nonpositive_config_rejected(self, capsys):
        assert main(["modelcheck", "dir0b", "--caches", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert main(["modelcheck", "dir0b", "--blocks", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_modelcheck_has_no_depth_bound(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["modelcheck", "dir0b", "--depth", "4"])

    def test_modelcheck_violation_exits_nonzero(self, capsys, monkeypatch):
        import repro.core
        from repro.core.modelcheck import ModelCheckReport

        failing = ModelCheckReport(
            protocol="dir0b",
            n_caches=2,
            n_blocks=1,
            states=1,
            edges=2,
            counterexample=((0, 1, 0),),
            error="stale read observed",
        )
        monkeypatch.setattr(
            repro.core, "model_check", lambda *args, **kwargs: failing
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["modelcheck", "dir0b"])
        assert excinfo.value.code == 1
        assert "VIOLATION" in capsys.readouterr().out

class TestTelemetryCli:
    """The distributed-telemetry surface: span export, OpenMetrics,
    heartbeat/status flags, and the ``status`` verb."""

    def test_sweep_emits_spans_openmetrics_and_status(self, tmp_path, capsys):
        import importlib.util
        import json
        from pathlib import Path

        spans = tmp_path / "spans.json"
        metrics = tmp_path / "metrics.om"
        status = tmp_path / "sweep.status.json"
        assert main(
            FAST
            + ["--jobs", "2"]
            + SWEEP
            + [
                "--emit-spans", str(spans),
                "--metrics-openmetrics", str(metrics),
                "--status-file", str(status),
                "--heartbeat-seconds", "0.05",
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "wrote" in err and "spans" in err
        assert "wrote OpenMetrics" in err

        # The span trace passes the real validator and spans two workers.
        tool = Path(__file__).parents[1] / "tools" / "validate_trace.py"
        spec = importlib.util.spec_from_file_location("validate_trace", tool)
        validator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validator)
        summary = validator.validate_trace(spans)
        assert "OK" in summary and "spans" in summary
        events = json.loads(spans.read_text())["traceEvents"]
        worker_pids = {
            e["pid"]
            for e in events
            if e.get("ph") == "X" and e.get("cat") in ("attempt", "stage")
        }
        assert len(worker_pids) >= 2

        text = metrics.read_text()
        assert text.startswith("# TYPE")
        assert "repro_sweep_simulated_total 6" in text
        assert text.endswith("# EOF\n")

        snapshot = json.loads(status.read_text())
        assert snapshot["state"] == "finished"
        assert snapshot["done"] == snapshot["cells"] == 6

        # A follow-up status invocation (separate entry point) renders it.
        assert main(["status", "--status-file", str(status)]) == 0
        out = capsys.readouterr().out
        assert "finished" in out and "6/6 done" in out

    def test_worker_metrics_merge_into_metrics_json(self, tmp_path):
        """Satellite regression, end to end: cache hits scored inside
        --jobs workers must show up in the parent's --metrics-json."""
        import json

        cache = ["--cache-dir", str(tmp_path / "cache")]
        warm = tmp_path / "warm.json"
        assert main(FAST + cache + SWEEP) == 0  # populate the cache
        assert main(
            FAST + ["--jobs", "2"] + cache + SWEEP
            + ["--metrics-json", str(warm)]
        ) == 0
        payload = json.loads(warm.read_text())
        assert payload["registry"]["counters"]["sweep.cache_hits"] == 6
        assert payload["registry"]["counters"]["cache.hit"] >= 6

    def test_compare_accepts_openmetrics_flag(self, tmp_path):
        metrics = tmp_path / "compare.om"
        assert main(
            FAST
            + ["compare", "--schemes", "dir0b",
               "--metrics-openmetrics", str(metrics)]
        ) == 0
        assert metrics.read_text().endswith("# EOF\n")

    def test_negative_heartbeat_is_a_usage_error(self, capsys):
        assert main(FAST + SWEEP + ["--heartbeat-seconds", "-1"]) == 2
        assert "heartbeat" in capsys.readouterr().err

    def test_emit_spans_unwritable_path_exits_cleanly(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "spans.json"
        with pytest.raises(SystemExit, match="cannot write"):
            main(FAST + SWEEP + ["--emit-spans", str(missing)])

    def test_openmetrics_unwritable_path_exits_cleanly(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "m.om"
        with pytest.raises(SystemExit, match="cannot write"):
            main(
                FAST + SWEEP + ["--metrics-openmetrics", str(missing)]
            )


class TestStatusWatch:
    """The --watch loop must survive its snapshot being cleaned away."""

    def _running_snapshot(self, tmp_path):
        from repro.obs import write_status

        path = tmp_path / "sweep.status.json"
        write_status(
            path, {"state": "running", "cells": 2, "done": 1, "ok": 1}
        )
        return path

    def test_watch_exits_zero_when_snapshot_disappears(
        self, tmp_path, capsys, monkeypatch
    ):
        """Satellite regression: a cache clean mid-watch ends the watch
        with exit 0, not a crash or an error exit."""
        import repro.cli as cli

        path = self._running_snapshot(tmp_path)

        def vanish(_seconds):
            path.unlink()

        monkeypatch.setattr(cli.time, "sleep", vanish)
        assert (
            main(["status", "--status-file", str(path), "--watch", "0.01"])
            == 0
        )
        captured = capsys.readouterr()
        assert "running" in captured.out
        assert "disappeared" in captured.err

    def test_missing_snapshot_is_still_an_error_without_watch(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "nope.status.json"
        assert main(["status", "--status-file", str(missing)]) == 1
        assert "no readable snapshot" in capsys.readouterr().err

    def test_cache_dir_discovery_survives_stat_race(
        self, tmp_path, monkeypatch
    ):
        """A snapshot deleted between glob and stat must not crash
        discovery while another candidate remains."""
        import repro.cli as cli
        from pathlib import Path

        survivor = self._running_snapshot(tmp_path)
        doomed = tmp_path / "gone.status.json"
        doomed.write_text("{}")

        real_stat = Path.stat

        def racy_stat(self, **kwargs):
            if self.name == doomed.name:
                raise FileNotFoundError(doomed)
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racy_stat)
        args = cli.build_parser().parse_args(
            ["status", "--cache-dir", str(tmp_path)]
        )
        assert cli._status_snapshot_path(args) == survivor
