"""Tests for distributed sweep telemetry (repro.obs.telemetry + benchgate).

Covers the span recorder and its cross-process merge, OpenMetrics export,
the worker-delta fix (metrics tallied in a subprocess reach the parent
sweep registry), status snapshots and the ``status`` CLI verb, heartbeat
configuration, and the telemetry-on bit-identity contract across every
protocol.
"""

import importlib.util
import logging
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    get_registry,
    read_status,
    render_status,
    set_registry,
    write_status,
)
from repro.obs.telemetry import SPAN_KINDS, Span, attempt_scope, stage
from repro.protocols.registry import PROTOCOLS
from repro.resilience import FaultPlan, FaultSpec
from repro.runner import ResultCache, RunSpec, run_sweep
from repro.runner.sweep import (
    HEARTBEAT_ENV,
    HEARTBEAT_SECONDS,
    _resolve_heartbeat,
)

SCALE = 1.0 / 2048.0


def _load_validator():
    """The real tools/validate_trace.py, imported as a module."""
    path = Path(__file__).parents[1] / "tools" / "validate_trace.py"
    spec = importlib.util.spec_from_file_location("validate_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _specs(protocols=("dir0b", "dir1b", "dir2b", "dir4b")):
    return [
        RunSpec(protocol=p, trace="POPS", scale=SCALE, seed=11)
        for p in protocols
    ]


def _signature(result):
    """The deterministic counter signature of one simulation result."""
    return (
        result.references,
        dict(result.counters.events),
        dict(result.counters.ops.ops),
        result.counters.ops.transactions,
        result.counters.fanout.as_dict(),
    )


@dataclass(frozen=True)
class CacheTouchSpec(RunSpec):
    """A spec whose run() exercises a ResultCache *inside* the worker.

    The cache is constructed with the default (process-wide) registry —
    exactly the pattern that used to lose its counters when the run
    happened in a CellExecutor subprocess.
    """

    scratch_dir: str = ""

    def run(self, probe=None, traces=None):
        cache = ResultCache(self.scratch_dir)
        cache.get(self.cache_key())  # miss
        result = super().run(probe=probe, traces=traces)
        cache.put(self.cache_key(), result)
        cache.get(self.cache_key())  # hit
        return result


@dataclass(frozen=True)
class SlowSpec(RunSpec):
    """A spec that sleeps so a status reader can catch the sweep mid-run."""

    sleep_s: float = 0.3

    def run(self, probe=None, traces=None):
        time.sleep(self.sleep_s)
        return super().run(probe=probe, traces=traces)


class TestSpanRecorder:
    def test_begin_end_records_hierarchy(self):
        recorder = SpanRecorder()
        root = recorder.begin("sweep x", kind="sweep")
        child = recorder.begin("cell y", kind="cell", parent=root, tid=3)
        child.end(status="ok")
        root.end(status="finished")
        assert len(recorder) == 2
        cell, sweep = recorder.spans
        assert cell.parent_id == sweep.span_id
        assert cell.trace_id == sweep.trace_id == recorder.trace_id
        assert cell.tid == 3
        assert cell.attributes["status"] == "ok"
        assert sweep.end_s >= sweep.start_s

    def test_unknown_kind_rejected(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError, match="unknown span kind"):
            recorder.begin("x", kind="nonesuch")

    def test_every_declared_kind_is_accepted(self):
        recorder = SpanRecorder()
        for kind in SPAN_KINDS:
            recorder.event(kind, kind=kind)
        assert len(recorder) == len(SPAN_KINDS)

    def test_end_is_idempotent(self):
        recorder = SpanRecorder()
        active = recorder.begin("x", kind="stage")
        active.end()
        active.end()
        assert len(recorder) == 1

    def test_context_manager_flags_errors(self):
        recorder = SpanRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("boom", kind="stage"):
                raise RuntimeError("nope")
        assert recorder.spans[0].attributes["error"] is True

    def test_serialize_ingest_round_trip(self):
        source = SpanRecorder()
        parent = source.begin("cell", kind="cell")
        source.event("hit", kind="cache_hit", parent=parent, extra=7)
        parent.end()
        sink = SpanRecorder(trace_id=source.trace_id)
        assert sink.ingest(source.serialized()) == 2
        assert [s.to_dict() for s in sink.spans] == [
            s.to_dict() for s in source.spans
        ]

    def test_from_dict_ignores_unknown_keys(self):
        span = Span.from_dict(
            {
                "name": "n", "kind": "stage", "trace_id": "t",
                "span_id": "s", "parent_id": None, "start_s": 1.0,
                "end_s": 2.0, "unknown_future_field": "ignored",
            }
        )
        assert span.duration_s == 1.0

    def test_chrome_trace_passes_the_real_validator(self, tmp_path):
        recorder = SpanRecorder()
        root = recorder.begin("sweep", kind="sweep")
        cell = recorder.begin("cell", kind="cell", parent=root, tid=1)
        recorder.event("retry", kind="retry", parent=cell)
        cell.end()
        root.end()
        destination = tmp_path / "spans.json"
        assert recorder.write_chrome_trace(destination) == 3
        validator = _load_validator()
        summary = validator.validate_trace(destination)
        assert "OK" in summary and "spans" in summary

    def test_stages_hang_under_the_scoped_attempt_only(self):
        assert isinstance(stage("trace.generate"), nullcontext)
        recorder = SpanRecorder()
        attempt = recorder.begin("attempt 1", kind="attempt")
        with attempt_scope(recorder, attempt, tid=3):
            with stage("trace.generate"):
                pass
            with attempt_scope(None, None):
                assert isinstance(stage("core.simulate"), nullcontext)
        assert isinstance(stage("report"), nullcontext)
        (span,) = recorder.spans
        assert (span.name, span.kind, span.tid) == ("trace.generate", "stage", 3)
        assert span.parent_id == attempt.span_id

    def test_chrome_trace_with_no_spans_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no spans"):
            SpanRecorder().write_chrome_trace(tmp_path / "empty.json")


class TestStatusSnapshots:
    def test_write_read_round_trip_is_atomic(self, tmp_path):
        path = tmp_path / "s.status.json"
        write_status(path, {"state": "running", "done": 3})
        status = read_status(path)
        assert status["state"] == "running"
        assert status["schema"] == 1
        assert not list(tmp_path.glob("*.tmp"))

    def test_read_missing_or_torn_returns_none(self, tmp_path):
        assert read_status(tmp_path / "nope.json") is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"state": "run', encoding="utf-8")
        assert read_status(torn) is None

    def test_render_mentions_the_vital_signs(self):
        text = render_status(
            {
                "state": "running", "sweep_id": "abc", "cells": 10,
                "done": 4, "ok": 3, "failed": 1, "running": 2,
                "retries": 1, "timeouts": 0, "cache_hits": 2,
                "repriced": 0, "simulated": 1, "references": 1000,
                "refs_per_sec": 5000.0, "eta_s": 2.5, "wall_s": 1.0,
                "jobs": 4, "ts": time.time(), "pid": 1,
            },
            journal_counts={"ok": 3, "failed": 1},
        )
        assert "4/10 done" in text
        assert "ETA 2.5s" in text
        assert "journal: 3 ok, 1 failed" in text


class TestMergeSnapshot:
    def test_counters_timers_histograms_fold_gauges_overwrite(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(2)
        parent.gauge("g").set(1.0)
        parent.timer("t").add(1.0)
        parent.histogram("h").observe(5.0)
        child = MetricsRegistry()
        child.counter("c").inc(3)
        child.gauge("g").set(9.0)
        child.timer("t").add(2.0)
        child.histogram("h").observe(1.0)
        child.histogram("h").observe(10.0)
        parent.merge_snapshot(child.as_dict())
        assert parent.counter("c").value == 5
        assert parent.gauge("g").value == 9.0
        assert parent.timer("t").count == 2
        assert parent.timer("t").total_seconds == pytest.approx(3.0)
        histogram = parent.histogram("h")
        assert histogram.count == 3
        assert histogram.min == 1.0 and histogram.max == 10.0

    def test_empty_histograms_do_not_poison_bounds(self):
        parent = MetricsRegistry()
        parent.histogram("h").observe(5.0)
        empty = MetricsRegistry()
        empty.histogram("h")  # created but never observed
        parent.merge_snapshot(empty.as_dict())
        assert parent.histogram("h").count == 1
        assert parent.histogram("h").min == 5.0

    def test_set_registry_swaps_and_restores(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            assert set_registry(previous) is fresh
        assert get_registry() is previous


class TestOpenMetrics:
    def test_families_samples_and_terminator(self):
        registry = MetricsRegistry()
        registry.counter("sweep.cache_hits").inc(3)
        registry.gauge("sweep.refs_per_sec").set(1234.5)
        registry.timer("sweep.wall_seconds").add(2.0)
        registry.histogram("sweep.cell_seconds").observe(0.5)
        text = registry.to_openmetrics()
        assert "# TYPE repro_sweep_cache_hits counter" in text
        assert "repro_sweep_cache_hits_total 3" in text
        assert "repro_sweep_refs_per_sec 1234.5" in text
        assert "repro_sweep_wall_seconds_count 1" in text
        assert "repro_sweep_cell_seconds_sum 0.5" in text
        assert "repro_sweep_cell_seconds_min 0.5" in text
        assert text.endswith("# EOF\n")

    def test_names_are_mangled_to_the_charset(self):
        registry = MetricsRegistry()
        registry.counter("cache.hit-rate %").inc()
        text = registry.to_openmetrics()
        assert "repro_cache_hit_rate___total 1" in text

    def test_write_openmetrics(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = tmp_path / "metrics.om"
        registry.write_openmetrics(path)
        assert path.read_text(encoding="utf-8").endswith("# EOF\n")


class TestWorkerDeltaMerge:
    def test_worker_cache_counters_reach_the_parent_registry(self, tmp_path):
        """Satellite regression: a cache hit inside a worker subprocess
        must increment the parent sweep registry's cache counters."""
        scratch = tmp_path / "worker-cache"
        scratch.mkdir()
        specs = [
            CacheTouchSpec(
                protocol=p, trace="POPS", scale=SCALE, seed=11,
                scratch_dir=str(scratch),
            )
            for p in ("dir0b", "dir1b")
        ]
        report = run_sweep(specs, jobs=2)
        counters = report.registry.as_dict()["counters"]
        assert counters.get("cache.hit", 0) >= 2
        assert counters.get("cache.miss", 0) >= 2

    def test_serial_inline_run_still_counts(self, tmp_path):
        scratch = tmp_path / "inline-cache"
        scratch.mkdir()
        spec = CacheTouchSpec(
            protocol="dir0b", trace="POPS", scale=SCALE, seed=11,
            scratch_dir=str(scratch),
        )
        previous = set_registry(MetricsRegistry())
        try:
            run_sweep([spec], jobs=1)
            counters = get_registry().as_dict()["counters"]
        finally:
            set_registry(previous)
        assert counters.get("cache.hit", 0) >= 1


class TestSweepTelemetry:
    def test_parallel_sweep_spans_cover_two_worker_pids(self, tmp_path):
        recorder = SpanRecorder()
        report = run_sweep(_specs(), jobs=4, telemetry=recorder)
        assert len(report.failures) == 0
        kinds = {span.kind for span in recorder.spans}
        assert {"sweep", "cell", "attempt", "stage"} <= kinds
        worker_pids = {
            span.pid
            for span in recorder.spans
            if span.kind in ("attempt", "stage")
        }
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2
        attempts = {s.span_id for s in recorder.spans if s.kind == "attempt"}
        stages = [s for s in recorder.spans if s.kind == "stage"]
        assert {s.parent_id for s in stages} == attempts
        for attempt in attempts:
            assert sorted(s.name for s in stages if s.parent_id == attempt) == [
                "core.simulate", "report", "trace.generate",
            ]
        destination = tmp_path / "sweep-spans.json"
        recorder.write_chrome_trace(destination)
        assert "OK" in _load_validator().validate_trace(destination)

    def test_inline_cells_record_attempt_and_stage_spans(self):
        """An inline cell records the attempt -> trace.generate /
        core.simulate / report stage spans a worker cell does, in the
        sweep's own process."""
        recorder = SpanRecorder()
        report = run_sweep(_specs(("dir0b",)), jobs=1, telemetry=recorder)
        assert len(report.failures) == 0
        by_kind = {}
        for span in recorder.spans:
            by_kind.setdefault(span.kind, []).append(span)
        (cell,) = by_kind["cell"]
        (attempt,) = by_kind["attempt"]
        assert attempt.parent_id == cell.span_id
        assert attempt.attributes["status"] == "ok"
        assert sorted(s.name for s in by_kind["stage"]) == [
            "core.simulate", "report", "trace.generate",
        ]
        assert {s.parent_id for s in by_kind["stage"]} == {attempt.span_id}
        assert {s.pid for s in recorder.spans} == {os.getpid()}

    def test_cell_span_covers_its_cache_put_and_journal_append(
        self, tmp_path, monkeypatch
    ):
        """A cell's result-cache put and journal append happen inside its
        span, so they count in the cell's time (``profile``'s other row)."""
        from repro.resilience import SweepJournal

        writes = []

        def timed(name, method):
            def wrapper(*args, **kwargs):
                start = time.time()
                try:
                    return method(*args, **kwargs)
                finally:
                    writes.append((name, start, time.time()))

            return wrapper

        monkeypatch.setattr(ResultCache, "put", timed("put", ResultCache.put))
        monkeypatch.setattr(
            SweepJournal, "record_cell",
            timed("journal", SweepJournal.record_cell),
        )
        specs = _specs(("dir0b",))
        recorder = SpanRecorder()
        run_sweep(
            specs,
            cache=ResultCache(tmp_path / "cache"),
            journal=SweepJournal.for_sweep(
                tmp_path, [spec.cache_key() for spec in specs]
            ),
            telemetry=recorder,
        )
        (cell,) = [span for span in recorder.spans if span.kind == "cell"]
        assert sorted(name for name, _, _ in writes) == ["journal", "put"]
        for name, start, end in writes:
            assert cell.start_s <= start and end <= cell.end_s, name

    def test_no_span_is_built_without_a_recorder(self, monkeypatch):
        import repro.obs.telemetry as telemetry

        built = []

        class CountedSpan(telemetry.Span):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.name)

        monkeypatch.setattr(telemetry, "Span", CountedSpan)
        report = run_sweep(_specs(("dir0b", "dir4nb")), jobs=1)
        assert len(report.failures) == 0
        assert built == []
        run_sweep(_specs(("dir0b",)), jobs=1, telemetry=SpanRecorder())
        assert "trace.generate" in built  # the counting patch is live

    def test_fault_and_retry_markers_recorded(self):
        recorder = SpanRecorder()
        plan = FaultPlan(
            faults=(FaultSpec(cell="dir0b:*", kind="raise", attempt=1),)
        )
        report = run_sweep(
            _specs(("dir0b", "dir1b")), jobs=2,
            telemetry=recorder, retry=1, faults=plan,
        )
        assert len(report.failures) == 0
        kinds = {span.kind for span in recorder.spans}
        assert "retry" in kinds and "fault" in kinds
        retry = next(s for s in recorder.spans if s.kind == "retry")
        assert retry.attributes["attempt"] == 1

    def test_cache_hit_and_reprice_markers(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = _specs(("dir0b", "dir1b"))
        run_sweep(specs, cache=cache)
        recorder = SpanRecorder()
        run_sweep(specs, cache=cache, telemetry=recorder)
        hits = [s for s in recorder.spans if s.kind == "cache_hit"]
        assert len(hits) == 2
        repriced_specs = [
            RunSpec(
                protocol="dir4b", trace="POPS", scale=SCALE, seed=11,
                characterization=c,
            )
            for c in ("pipelined", "non-pipelined")
        ]
        run_sweep(repriced_specs, telemetry=recorder)
        assert any(s.kind == "reprice" for s in recorder.spans)

    def test_counters_bit_identical_with_full_telemetry(self, tmp_path):
        """Acceptance: every protocol's counters are identical between a
        telemetry-off serial run and a fully instrumented parallel sweep
        (spans + status snapshot + OpenMetrics + merged worker deltas)."""
        specs = [
            RunSpec(protocol=p, trace="POPS", scale=SCALE, seed=11)
            for p in sorted(PROTOCOLS)
        ]
        bare = {s.protocol: _signature(s.run()) for s in specs}
        recorder = SpanRecorder()
        report = run_sweep(
            specs,
            jobs=2,
            telemetry=recorder,
            heartbeat_seconds=0.01,
            status_path=tmp_path / "sweep.status.json",
        )
        instrumented = {
            o.spec.protocol: _signature(o.result) for o in report.outcomes
        }
        assert instrumented == bare
        # The exports exist and are well-formed alongside identical counters.
        assert read_status(tmp_path / "sweep.status.json")["state"] == "finished"
        assert report.registry.to_openmetrics().endswith("# EOF\n")
        assert len(recorder) > len(specs)

    def test_status_snapshot_lands_next_to_the_journal(self, tmp_path):
        from repro.resilience import SweepJournal

        specs = _specs(("dir0b",))
        journal = SweepJournal.for_sweep(
            tmp_path, [s.cache_key() for s in specs]
        )
        run_sweep(specs, journal=journal)
        snapshots = list(tmp_path.glob("*.status.json"))
        assert len(snapshots) == 1
        status = read_status(snapshots[0])
        assert status["state"] == "finished"
        assert status["journal"] == str(journal.path)

    def test_status_write_failure_does_not_kill_the_sweep(self, tmp_path):
        report = run_sweep(
            _specs(("dir0b",)),
            status_path=tmp_path / "no-such-dir" / "s.status.json",
        )
        assert len(report.failures) == 0


class TestHeartbeatConfig:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "99")
        assert _resolve_heartbeat(2.5) == 2.5

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "0.25")
        assert _resolve_heartbeat(None) == 0.25

    def test_default(self, monkeypatch):
        monkeypatch.delenv(HEARTBEAT_ENV, raising=False)
        assert _resolve_heartbeat(None) == HEARTBEAT_SECONDS

    def test_zero_disables_and_negative_rejected(self):
        assert _resolve_heartbeat(0) == 0.0
        with pytest.raises(ValueError, match=">= 0"):
            _resolve_heartbeat(-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "nan", "inf"])
    def test_non_finite_rejected(self, monkeypatch, value):
        # NaN compares false with everything, so it used to slip past the
        # ">= 0" check and silently disable heartbeats.
        if isinstance(value, str):
            monkeypatch.setenv(HEARTBEAT_ENV, value)
            value = None
        with pytest.raises(ValueError, match="finite"):
            _resolve_heartbeat(value)

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV, "soon")
        with pytest.raises(ValueError, match=HEARTBEAT_ENV):
            _resolve_heartbeat(None)

    def test_heartbeat_does_not_count_repriced_cells_as_simulated(
        self, caplog
    ):
        """Two pricings of one simulation: the progress line, the report
        and the registry all say one cell was simulated."""
        specs = [
            RunSpec(
                protocol="dir0b", trace="POPS", scale=SCALE, seed=11,
                characterization=name,
            )
            for name in ("pipelined", "non-pipelined")
        ]
        # setup_logging (run by any earlier CLI test) stops propagation at
        # the "repro" root; re-enable it so caplog's root handler sees us.
        root = logging.getLogger("repro")
        propagate = root.propagate
        root.propagate = True
        try:
            with caplog.at_level(logging.INFO, logger="repro.runner.sweep"):
                report = run_sweep(specs, heartbeat_seconds=1e-9)
        finally:
            root.propagate = propagate
        beats = [
            record.fields
            for record in caplog.records
            if record.getMessage() == "sweep progress"
        ]
        assert beats and beats[-1]["done"] == 2
        assert report.simulations == 1 and report.repricings == 1
        assert report.registry.counter("sweep.simulated").value == 1
        assert [beat["simulated"] for beat in beats] == [1] * len(beats)

    def test_zero_heartbeat_sweep_still_writes_start_and_end(self, tmp_path):
        status = tmp_path / "s.status.json"
        run_sweep(
            _specs(("dir0b",)), heartbeat_seconds=0, status_path=status
        )
        assert read_status(status)["state"] == "finished"


class TestStatusVerb:
    def test_status_renders_mid_sweep_from_another_entry_point(
        self, tmp_path, capsys
    ):
        """A status invocation while the sweep is still running sees a
        'running' snapshot (the CLI path a separate process would take)."""
        status_path = tmp_path / "live.status.json"
        specs = [
            SlowSpec(protocol=p, trace="POPS", scale=SCALE, seed=11)
            for p in ("dir0b", "dir1b", "dir2b", "dir4b")
        ]
        worker = threading.Thread(
            target=run_sweep,
            args=(specs,),
            kwargs={
                "heartbeat_seconds": 0.02,
                "status_path": status_path,
            },
        )
        worker.start()
        try:
            deadline = time.monotonic() + 10.0
            seen_running = False
            while time.monotonic() < deadline:
                status = read_status(status_path)
                if status is not None and status["state"] == "running":
                    seen_running = True
                    break
                time.sleep(0.01)
            assert seen_running
            assert main(["status", "--status-file", str(status_path)]) == 0
        finally:
            worker.join()
        out = capsys.readouterr().out
        assert "sweep" in out and "cells:" in out

    def test_status_picks_newest_snapshot_in_cache_dir(self, tmp_path, capsys):
        old = tmp_path / "old.status.json"
        new = tmp_path / "new.status.json"
        write_status(old, {"state": "finished", "sweep_id": "older"})
        time.sleep(0.05)
        write_status(new, {"state": "finished", "sweep_id": "newer"})
        assert main(["status", "--cache-dir", str(tmp_path)]) == 0
        assert "newer" in capsys.readouterr().out

    def test_status_without_source_is_a_usage_error(self, capsys):
        assert main(["status"]) == 2
        assert "--status-file" in capsys.readouterr().err

    def test_status_missing_snapshot_exits_one(self, tmp_path, capsys):
        assert main(
            ["status", "--status-file", str(tmp_path / "gone.json")]
        ) == 1
        assert "no readable snapshot" in capsys.readouterr().err

    def test_watch_must_be_positive(self, tmp_path):
        assert main(
            ["status", "--status-file", str(tmp_path / "x.json"),
             "--watch", "0"]
        ) == 2
