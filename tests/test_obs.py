"""Tests for the observability subsystem (repro.obs)."""

import io
import json
import logging
import multiprocessing
import sys
import threading

import pytest

from repro.core.simulator import simulate
from repro.obs import (
    ChromeTraceSink,
    CollectingProbe,
    JsonlSink,
    MetricsRegistry,
    RunManifest,
    collect_manifest,
)
from repro.obs import metrics as metrics_module
from repro.obs.log import fields, get_logger, setup_logging
from repro.protocols.registry import PROTOCOLS, create_protocol
from repro.runner import ResultCache, RunSpec, run_sweep
from repro.trace.synthetic import SyntheticWorkload, WorkloadProfile

#: Small fixed-seed workload shared by the bit-identity tests.
PROFILE = WorkloadProfile(name="OBS", length=1500, seed=42, processes=4, processors=4)
N_CACHES = 4
SCALE = 1.0 / 1024.0


def _trace():
    return list(SyntheticWorkload(PROFILE).records())


def _snapshot(result):
    """Everything a probe could plausibly perturb, as comparable data."""
    return (
        result.references,
        dict(result.counters.events),
        dict(result.counters.ops.ops),
        result.counters.ops.transactions,
        result.counters.fanout.as_dict(),
    )


class TestMetricsRegistry:
    def test_counter_accumulates_and_rejects_decrements(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert registry.counter("c").value == 5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1)
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5

    def test_timer_context_accumulates(self):
        registry = MetricsRegistry()
        timer = registry.timer("t")
        with timer.time():
            pass
        with timer.time():
            pass
        assert timer.count == 2
        assert timer.total_seconds >= 0.0
        assert timer.mean_seconds == timer.total_seconds / 2

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        summary = histogram.as_dict()
        assert summary["count"] == 3
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)

    def test_as_dict_round_trips_through_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1.5)
        with registry.timer("c").time():
            pass
        registry.histogram("d").observe(7)
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(registry.as_dict()))
        assert loaded["counters"]["a"] == 1

    def test_tallies_from_many_threads_are_exact(self):
        registry = MetricsRegistry()
        threads, rounds = 8, 2000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def tally(index):
            for round_ in range(rounds):
                registry.counter("shared").inc()
                registry.counter(f"fresh.{round_}").inc()
                registry.timer("t").add(0.5)
                registry.histogram("h").observe(index)

        try:
            workers = [
                threading.Thread(target=tally, args=(i,)) for i in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        snapshot = registry.as_dict()
        assert snapshot["counters"]["shared"] == threads * rounds
        fresh = [v for k, v in snapshot["counters"].items() if k.startswith("fresh.")]
        assert sum(fresh) == threads * rounds
        assert snapshot["timers"]["t"]["count"] == threads * rounds
        assert snapshot["timers"]["t"]["total_s"] == threads * rounds * 0.5
        histogram = snapshot["histograms"]["h"]
        assert histogram["count"] == threads * rounds
        assert (histogram["min"], histogram["max"]) == (0.0, threads - 1.0)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_a_fork_never_inherits_the_lock_held(self):
        context = multiprocessing.get_context("fork")
        with metrics_module._LOCK:  # as if another thread were mid-tally
            child = context.Process(target=MetricsRegistry().counter("c").inc)
            child.start()
        child.join(timeout=20)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestProbeBitIdentity:
    """With and without a probe, every protocol counts identically."""

    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
    def test_probed_run_identical_to_bare_run(self, protocol_name):
        trace = _trace()
        bare = simulate(create_protocol(protocol_name, N_CACHES), trace)
        probe = CollectingProbe()
        probed = simulate(
            create_protocol(protocol_name, N_CACHES), trace, probe=probe
        )
        assert _snapshot(bare) == _snapshot(probed)
        assert len(probe.events) == bare.references

    def test_probe_sees_pipeline_order_and_outcomes(self):
        trace = _trace()
        probe = CollectingProbe()
        result = simulate(create_protocol("dir0b", N_CACHES), trace, probe=probe)
        indices = [event[0] for event in probe.events]
        assert indices == list(range(result.references))
        from collections import Counter

        by_event = Counter(event[4].event for event in probe.events)
        assert dict(by_event) == dict(result.counters.events)


class TestJsonlSink:
    def test_one_line_per_reference_with_expected_fields(self):
        buffer = io.StringIO()
        trace = _trace()
        result = simulate(
            create_protocol("dir0b", N_CACHES), trace, probe=JsonlSink(buffer)
        )
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == result.references
        first = json.loads(lines[0])
        assert set(first) >= {"i", "unit", "access", "block", "event", "ops", "cycles"}
        total_cycles = sum(json.loads(line)["cycles"] for line in lines)
        from repro.interconnect import pipelined_bus

        expected = result.references * result.cycles_per_reference(pipelined_bus())
        assert total_cycles == pytest.approx(expected)

    def test_path_destination_owns_and_closes_the_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        simulate(create_protocol("wti", N_CACHES), _trace(), probe=sink)
        sink.close()
        assert len(path.read_text().splitlines()) > 0


class TestChromeTraceSink:
    def test_emits_loadable_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        with ChromeTraceSink(path) as sink:
            simulate(
                create_protocol("dir0b", N_CACHES),
                _trace(),
                probe=sink.cell("dir0b/OBS"),
            )
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata first
        assert events[0]["args"]["name"] == "dir0b/OBS"
        slices = [event for event in events if event["ph"] == "X"]
        assert len(slices) == 1500
        for event in slices[:50]:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)

    def test_cells_get_distinct_pids(self, tmp_path):
        path = tmp_path / "trace.json"
        with ChromeTraceSink(path) as sink:
            for name in ("dir0b", "wti"):
                simulate(
                    create_protocol(name, N_CACHES),
                    _trace(),
                    probe=sink.cell(name),
                )
        events = json.loads(path.read_text())["traceEvents"]
        pids = {event["pid"] for event in events if event["ph"] == "X"}
        assert pids == {0, 1}

    def test_emit_after_close_raises(self, tmp_path):
        sink = ChromeTraceSink(tmp_path / "trace.json")
        probe = sink.cell("x")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            simulate(create_protocol("dir0b", N_CACHES), _trace(), probe=probe)


class TestRunManifest:
    def test_collect_and_round_trip(self, tmp_path):
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        manifest = collect_manifest(spec.as_dict(), spec.cache_key(), 1.25)
        assert manifest.spec["protocol"] == "dir0b"
        assert manifest.wall_time_s == 1.25
        assert manifest.worker_pid > 0
        path = tmp_path / "m.json"
        manifest.write(path)
        loaded = RunManifest.read(path)
        assert loaded == manifest

    def test_unknown_keys_in_payload_are_ignored(self):
        manifest = collect_manifest({"protocol": "dir0b"}, "key", 0.5)
        payload = manifest.to_dict()
        payload["some_future_field"] = 123
        assert RunManifest.from_dict(payload) == manifest

    def test_sweep_attaches_manifests_and_cache_persists_them(self, tmp_path):
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        cache = ResultCache(tmp_path, registry=MetricsRegistry())
        cold = run_sweep([spec], cache=cache)
        manifest = cold.outcomes[0].manifest
        assert manifest is not None
        assert manifest.cache_key == spec.cache_key()
        assert cache.manifest_path_for(spec.cache_key()).exists()
        warm = run_sweep([spec], cache=cache)
        assert warm.outcomes[0].cached
        assert warm.outcomes[0].manifest == manifest


class TestCorruptCacheEntries:
    def test_corrupt_entry_is_deleted_counted_and_logged(self, tmp_path, caplog):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        key = spec.cache_key()
        cache.path_for(key).write_bytes(b"not a pickle")
        # setup_logging (run by any earlier CLI test) stops propagation at
        # the "repro" root; re-enable it so caplog's root handler sees us.
        root = logging.getLogger("repro")
        propagate = root.propagate
        root.propagate = True
        try:
            with caplog.at_level(logging.WARNING, logger="repro.runner.cache"):
                assert cache.get(key) is None
        finally:
            root.propagate = propagate
        assert not cache.path_for(key).exists()  # regenerated next run
        assert cache.corrupt == 1 and cache.misses == 1
        assert registry.counter("cache.corrupt").value == 1
        assert any("corrupt cache entry" in r.message for r in caplog.records)

    def test_wrong_type_entry_counts_as_corrupt(self, tmp_path):
        import pickle

        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        cache.path_for("bogus").write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get("bogus") is None
        assert registry.counter("cache.corrupt").value == 1
        assert not cache.path_for("bogus").exists()

    def test_plain_miss_is_not_corrupt(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        assert cache.get("never-written") is None
        assert cache.corrupt == 0
        assert registry.counter("cache.miss").value == 1

    def test_corrupt_entry_is_regenerated_by_a_sweep(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        fresh = run_sweep([spec], cache=cache)
        cache.path_for(spec.cache_key()).write_bytes(b"\x00garbage")
        again = run_sweep([spec], cache=cache)
        assert not again.outcomes[0].cached  # resimulated, not trusted
        assert again.cell_table() == fresh.cell_table()
        assert cache.get(spec.cache_key()) is not None  # rewritten


class TestStructuredLogging:
    def test_json_lines_carry_fields(self):
        stream = io.StringIO()
        setup_logging(level="info", json_lines=True, stream=stream)
        try:
            get_logger("test").info("hello", extra=fields(cells=6, jobs=2))
            payload = json.loads(stream.getvalue())
            assert payload["message"] == "hello"
            assert payload["cells"] == 6 and payload["jobs"] == 2
            assert payload["level"] == "info"
            assert payload["logger"] == "repro.test"
        finally:
            setup_logging(level="warning")

    def test_text_formatter_appends_fields(self):
        stream = io.StringIO()
        setup_logging(level="debug", stream=stream)
        try:
            get_logger("test").debug("msg", extra=fields(key="value"))
            assert "[key=value]" in stream.getvalue()
        finally:
            setup_logging(level="warning")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            setup_logging(level="loud")


class TestSweepMetricsRegistry:
    def test_report_registry_reflects_the_sweep(self, tmp_path):
        registry = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=registry)
        specs = [
            RunSpec(protocol=name, trace="POPS", scale=SCALE)
            for name in ("dir0b", "wti")
        ]
        report = run_sweep(specs, cache=cache, registry=registry)
        snapshot = report.registry.as_dict()
        assert snapshot["counters"]["sweep.cells"] == 2
        assert snapshot["counters"]["sweep.simulated"] == 2
        assert snapshot["counters"]["cache.miss"] == 2
        assert snapshot["timers"]["sweep.wall_seconds"]["count"] == 1
        assert snapshot["histograms"]["sweep.cell_seconds"]["count"] == 2
        warm = run_sweep(specs, cache=cache, registry=registry)
        assert warm.registry.as_dict()["counters"]["sweep.cache_hits"] == 2

    def test_metrics_dict_is_json_serialisable(self):
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        report = run_sweep([spec])
        payload = json.loads(json.dumps(report.metrics_dict()))
        assert payload["cells"] == 1
        assert payload["registry"]["counters"]["sweep.simulated"] == 1

    def test_probe_factory_streams_each_cell(self, tmp_path):
        path = tmp_path / "sweep_trace.json"
        specs = [
            RunSpec(protocol=name, trace="POPS", scale=SCALE)
            for name in ("dir0b", "dragon")
        ]
        with ChromeTraceSink(path) as sink:
            report = run_sweep(
                specs,
                jobs=2,  # probes force inline execution
                probe_factory=lambda spec: sink.cell(spec.protocol),
            )
        assert report.simulations == 2
        events = json.loads(path.read_text())["traceEvents"]
        pids = {event["pid"] for event in events if event["ph"] == "X"}
        assert pids == {0, 1}

class TestValidateTraceTool:
    """tools/validate_trace.py against real sweep output (not synthetic
    fixtures): a multi-cell per-reference trace and a span trace from the
    same instrumented sweep must both pass the shipped validator."""

    @staticmethod
    def _validator():
        import importlib.util
        from pathlib import Path

        tool = Path(__file__).parents[1] / "tools" / "validate_trace.py"
        spec = importlib.util.spec_from_file_location("validate_trace", tool)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_real_sweep_traces_validate(self, tmp_path):
        from repro.obs import SpanRecorder

        validator = self._validator()
        specs = [
            RunSpec(protocol=name, trace="POPS", scale=SCALE)
            for name in ("dir0b", "dir1b", "dragon")
        ]
        ref_trace = tmp_path / "refs.json"
        telemetry = SpanRecorder()
        with ChromeTraceSink(ref_trace) as sink:
            report = run_sweep(
                specs,
                probe_factory=lambda spec: sink.cell(spec.cell_id()),
                telemetry=telemetry,
            )
        assert report.simulations == 3

        summary = validator.validate_trace(ref_trace)
        assert "OK" in summary
        assert "3 cell tracks" in summary
        assert "spans" not in summary  # per-reference slices carry no span ids

        span_trace = tmp_path / "spans.json"
        telemetry.write_chrome_trace(span_trace)
        span_summary = validator.validate_trace(span_trace)
        assert "OK" in span_summary
        assert "of them spans" in span_summary

        # And the CLI entry point agrees on both files at once.
        assert validator.main([str(ref_trace), str(span_trace)]) == 0

    def test_validator_rejects_a_broken_trace(self, tmp_path, capsys):
        validator = self._validator()
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "traceEvents": [
                        {"ph": "X", "name": "orphan", "ts": 0, "dur": 1,
                         "pid": 7, "tid": 0}
                    ]
                }
            ),
            encoding="utf-8",
        )
        assert validator.main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err
