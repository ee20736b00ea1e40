"""Tests for the sweep service: schema, job manager, HTTP API, client.

The heavy contracts from the issue live here:

- an HTTP-submitted sweep is bit-identical (counter signatures) to the
  same grid run directly through ``run_sweep``;
- a second identical submission performs **zero** simulations — proven
  through the ``cache.hit`` metric on ``GET /metrics``;
- backpressure is status codes: 422 invalid schema, 429 rate limit,
  503 queue-full / draining;
- cancellation works both for queued jobs and for sweeps already
  running in their child process;
- drain stops admission and waits work out.
"""

import http.client
import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.obs.telemetry import read_status
from repro.runner.sweep import run_sweep
from repro.service import (
    JobManager,
    RequestError,
    ServiceClient,
    ServiceError,
    parse_request,
    start_background,
)
from repro.service.jobs import JobState, QueueFull, RateLimited, TokenBucket
from repro.service.schema import REQUEST_SCHEMA_VERSION

#: 1/512 of the paper's trace lengths — a few thousand references per cell.
FAST_SCALE = 512


def doc(*protocols, scale=FAST_SCALE, traces=("POPS",), **extra):
    """A minimal valid request document."""
    sweep = {
        "protocols": list(protocols),
        "traces": list(traces),
        "scale": scale,
    }
    sweep.update(extra)
    return {"schema": REQUEST_SCHEMA_VERSION, "sweep": sweep}


@contextmanager
def service(tmp_path, **kwargs):
    """A JobManager + live HTTP server + client, torn down afterwards."""
    manager = JobManager(tmp_path / "svc", **kwargs)
    handle = start_background(manager)
    try:
        yield manager, ServiceClient(handle.base_url, client="tester")
    finally:
        handle.stop(drain=False)


# -- schema --------------------------------------------------------------------


class TestSchema:
    def test_minimal_request_resolves_a_grid(self):
        request = parse_request(doc("dir0b", "dragon"))
        assert len(request.specs) == 2
        assert {spec.protocol for spec in request.specs} == {"dir0b", "dragon"}
        assert request.specs[0].scale == pytest.approx(1 / FAST_SCALE)

    def test_identical_grids_share_a_sweep_key(self):
        first = parse_request(doc("dragon", "dir0b"))  # order differs
        second = parse_request(doc("dir0b", "dragon"))
        assert first.sweep_key() == second.sweep_key()

    def test_all_errors_collected_in_one_response(self):
        with pytest.raises(RequestError) as excinfo:
            parse_request(
                {
                    "schema": 99,
                    "sweep": {
                        "protocols": ["nonesuch"],
                        "traces": ["NOPE"],
                        "scale": -4,
                    },
                    "bogus": True,
                }
            )
        fields = {detail["field"] for detail in excinfo.value.details}
        assert {
            "schema",
            "sweep.protocols[0]",
            "sweep.traces[0]",
            "sweep.scale",
            "bogus",
        } <= fields

    def test_unknown_protocol_gets_did_you_mean(self):
        with pytest.raises(RequestError, match="dir0b"):
            parse_request(doc("dir0"))

    def test_unknown_sweep_field_rejected(self):
        with pytest.raises(RequestError, match="sweep.protocol"):
            parse_request({"sweep": {"protocol": ["dir0b"]}})

    def test_grid_bounded_by_max_cells(self):
        with pytest.raises(RequestError, match="at most 1"):
            parse_request(doc("dir0b", "dragon"), max_cells=1)

    def test_jobs_bounded_by_max_jobs(self):
        payload = doc("dir0b")
        payload["options"] = {"jobs": 64}
        with pytest.raises(RequestError, match="at most 2 jobs"):
            parse_request(payload, max_jobs=2)

    def test_options_parsed(self):
        payload = doc("dir0b")
        payload["options"] = {
            "jobs": 2,
            "retries": 1,
            "cell_timeout": 30.0,
            "keep_going": False,
        }
        request = parse_request(payload, max_jobs=4)
        assert request.options.jobs == 2
        assert request.options.retries == 1
        assert request.options.cell_timeout == 30.0
        assert request.options.keep_going is False

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            parse_request([1, 2, 3])


# -- token bucket --------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_limited(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: clock[0])
        bucket.take()
        bucket.take()
        with pytest.raises(RateLimited) as excinfo:
            bucket.take()
        assert excinfo.value.retry_after > 0

    def test_refills_with_time(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=1, clock=lambda: clock[0])
        bucket.take()
        with pytest.raises(RateLimited):
            bucket.take()
        clock[0] += 1.5
        bucket.take()  # refilled

    def test_zero_rate_never_refills(self):
        clock = [0.0]
        bucket = TokenBucket(rate=0.0, burst=1, clock=lambda: clock[0])
        bucket.take()
        clock[0] += 1e9
        with pytest.raises(RateLimited):
            bucket.take()

    def test_none_rate_is_unlimited(self):
        bucket = TokenBucket(rate=None, burst=1)
        for _ in range(100):
            bucket.take()


# -- the flagship contracts over HTTP ------------------------------------------


class TestServiceEndToEnd:
    def test_http_sweep_bit_identical_to_direct_run_sweep(self, tmp_path):
        """Acceptance criterion: same grid, HTTP vs in-process, equal
        counter signatures after the JSON round trip."""
        payload = doc("dir0b", "dragon")
        with service(tmp_path) as (_manager, client):
            job = client.submit(payload)
            done = client.wait(job["id"], timeout=180)
            assert done["state"] == "finished"
            result = client.result(job["id"])

        direct = run_sweep(list(parse_request(payload).specs))
        assert result["cells"] == direct.cells == 2
        assert result["simulated"] == 2
        expected = [
            outcome.result.counters.signature()
            for outcome in direct.outcomes
        ]
        served = [entry["signature"] for entry in result["outcomes"]]
        assert served == expected

    def test_second_submission_dedupes_with_zero_simulations(self, tmp_path):
        """Acceptance criterion: the repeat POST is served entirely from
        the result cache — ``cache.hit`` moves, ``sweep.simulated``
        doesn't, and the job is terminal in the submit response."""
        payload = doc("dir0b", "dragon")
        with service(tmp_path) as (manager, client):
            first = client.submit(payload)
            client.wait(first["id"], timeout=180)

            def metric(name):
                for line in client.metrics().splitlines():
                    if line.startswith(name + " "):
                        return float(line.split()[1])
                return 0.0

            simulated_before = metric("repro_sweep_simulated_total")
            hits_before = metric("repro_cache_hit_total")
            assert simulated_before == 2

            second = client.submit(payload)
            assert second["id"] != first["id"]
            assert second["deduped"] is True
            assert second["state"] == "finished"  # terminal at submit time

            assert metric("repro_sweep_simulated_total") == simulated_before
            assert metric("repro_cache_hit_total") == hits_before + 2
            assert manager.registry.counter("service.jobs_deduped").value == 1

            result = client.result(second["id"])
            assert result["simulated"] == 0
            assert result["cache_hits"] == 2

    def test_inflight_identical_grid_coalesces(self, tmp_path):
        gate = threading.Event()
        with service(tmp_path, start_gate=gate) as (manager, client):
            first = client.submit(doc("dir0b"))
            second = client.submit(doc("dir0b"))
            assert second["id"] == first["id"]
            assert manager.registry.counter("service.jobs_coalesced").value == 1
            gate.set()
            assert client.wait(first["id"], timeout=180)["state"] == "finished"

    def test_events_stream_journal_then_end(self, tmp_path):
        with service(tmp_path) as (_manager, client):
            job = client.submit(doc("dir0b"))
            client.wait(job["id"], timeout=180)
            events = list(client.events(job["id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "snapshot"
        assert kinds[-1] == "end"
        assert "journal" in kinds
        journal = [e["record"] for e in events if e["event"] == "journal"]
        assert any(record.get("status") == "ok" for record in journal)

    def test_partial_cache_hit_produces_marker_events(self, tmp_path):
        """A half-warm grid runs in a child process and its cache_hit
        marker spans come back over the events stream."""
        with service(tmp_path) as (_manager, client):
            warm = client.submit(doc("dir0b"))
            client.wait(warm["id"], timeout=180)
            mixed = client.submit(doc("dir0b", "dragon"))
            snapshot = client.wait(mixed["id"], timeout=180)
            assert snapshot["state"] == "finished"
            assert snapshot["deduped"] is False
            events = list(client.events(mixed["id"]))
        markers = [e["span"] for e in events if e["event"] == "marker"]
        assert any(marker["kind"] == "cache_hit" for marker in markers)


# -- backpressure and lifecycle ------------------------------------------------


class TestBackpressure:
    def test_invalid_schema_is_422_with_details(self, tmp_path):
        with service(tmp_path) as (_manager, client):
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"sweep": {"protocols": ["nonesuch"]}})
        assert excinfo.value.status == 422
        details = excinfo.value.payload["details"]
        assert any("nonesuch" in d["error"] for d in details)

    def test_rate_limit_returns_429_with_retry_after(self, tmp_path):
        with service(tmp_path, rate_per_sec=0.0, burst=1) as (
            manager,
            client,
        ):
            client.submit(doc("dir0b"))
            with pytest.raises(ServiceError) as excinfo:
                client.submit(doc("dragon"))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after > 0
            assert manager.registry.counter("service.rate_limited").value == 1
            # The header advertises whole seconds, rounded up, never 0.
            connection = http.client.HTTPConnection(client.host, client.port)
            connection.request(
                "POST",
                "/sweeps",
                body=json.dumps(doc("dragon")),
                headers={"X-Client": "tester"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            connection.close()
            assert response.status == 429
            advertised = int(response.getheader("Retry-After"))
            assert advertised >= 1
            assert advertised >= payload["retry_after_s"]
            # A different client has its own bucket.
            other = ServiceClient(
                f"http://{client.host}:{client.port}", client="other"
            )
            job = other.submit(doc("dragon"))
            other.wait(job["id"], timeout=180)

    def test_full_queue_returns_503(self, tmp_path):
        gate = threading.Event()
        try:
            with service(
                tmp_path, workers=1, queue_limit=1, start_gate=gate
            ) as (_manager, client):
                first = client.submit(doc("dir0b"))
                deadline = time.monotonic() + 10
                while client.status(first["id"])["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                client.submit(doc("dragon"))  # fills the queue slot
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(doc("firefly"))
                assert excinfo.value.status == 503
        finally:
            gate.set()

    def test_cancel_queued_job(self, tmp_path):
        gate = threading.Event()
        try:
            with service(
                tmp_path, workers=1, queue_limit=4, start_gate=gate
            ) as (_manager, client):
                first = client.submit(doc("dir0b"))
                deadline = time.monotonic() + 10
                while client.status(first["id"])["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                queued = client.submit(doc("dragon"))
                assert client.status(queued["id"])["state"] == "queued"
                cancelled = client.cancel(queued["id"])
                assert cancelled["state"] == "cancelled"
                with pytest.raises(ServiceError) as excinfo:
                    client.result(queued["id"])
                assert excinfo.value.status == 409
        finally:
            gate.set()

    def test_cancel_terminates_a_running_sweep(self, tmp_path):
        # A grid big enough that it cannot finish before the cancel lands
        # (a scale-8 trace is ~400k references per cell).
        with service(tmp_path) as (manager, client):
            job = client.submit(doc("dir0b", "dragon", "firefly", scale=8))
            deadline = time.monotonic() + 30
            managed = manager.get(job["id"])
            while managed.process is None or not managed.process.is_alive():
                assert time.monotonic() < deadline, "sweep process never rose"
                time.sleep(0.01)
            client.cancel(job["id"])
            done = client.wait(job["id"], timeout=30)
            assert done["state"] == "cancelled"
            assert manager.registry.counter("service.jobs_cancelled").value == 1

    def test_unknown_job_is_404(self, tmp_path):
        with service(tmp_path) as (_manager, client):
            with pytest.raises(ServiceError) as excinfo:
                client.status("deadbeef")
        assert excinfo.value.status == 404

    def test_result_before_finish_is_409(self, tmp_path):
        gate = threading.Event()
        try:
            with service(tmp_path, start_gate=gate) as (_manager, client):
                job = client.submit(doc("dir0b"))
                with pytest.raises(ServiceError) as excinfo:
                    client.result(job["id"])
                assert excinfo.value.status == 409
        finally:
            gate.set()


class TestDrainAndTtl:
    def test_drain_finishes_work_then_rejects(self, tmp_path):
        with service(tmp_path) as (manager, client):
            job = client.submit(doc("dir0b"))
            assert manager.drain(timeout=180) is True
            assert client.status(job["id"])["state"] == "finished"
            assert client.health()["draining"] is True
            with pytest.raises(ServiceError) as excinfo:
                client.submit(doc("dragon"))
            assert excinfo.value.status == 503

    def test_graceful_stop_drains_running_jobs(self, tmp_path):
        manager = JobManager(tmp_path / "svc")
        handle = start_background(manager)
        client = ServiceClient(handle.base_url)
        job = client.submit(doc("dir0b"))
        handle.stop(drain=True, timeout=180)  # blocks until the job lands
        managed = manager.get(job["id"])
        assert managed.state == JobState.FINISHED
        assert managed.result_path.exists()

    def test_expired_jobs_are_reaped(self, tmp_path):
        with service(tmp_path) as (manager, client):
            job = client.submit(doc("dir0b"))
            client.wait(job["id"], timeout=180)
            directory = manager.get(job["id"]).directory
            assert directory.exists()
            manager.job_ttl = 0.05  # shrink only once the job is terminal
            time.sleep(0.1)
            assert manager.get(job["id"]) is None  # get() reaps
            assert not directory.exists()
            assert manager.registry.counter("service.jobs_expired").value == 1


# -- manager unit seams --------------------------------------------------------


class TestManagerUnits:
    def test_submit_rejects_when_queue_full_without_http(self, tmp_path):
        gate = threading.Event()
        manager = JobManager(
            tmp_path / "svc", workers=1, queue_limit=1, start_gate=gate
        )
        try:
            first = manager.submit(doc("dir0b"))
            deadline = time.monotonic() + 10
            while first.state != JobState.RUNNING:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            manager.submit(doc("dragon"))
            with pytest.raises(QueueFull):
                manager.submit(doc("firefly"))
            assert manager.registry.counter("service.queue_rejected").value == 1
        finally:
            gate.set()
            manager.shutdown(cancel_running=True)

    def test_request_and_status_files_written_at_submit(self, tmp_path):
        gate = threading.Event()
        manager = JobManager(tmp_path / "svc", start_gate=gate)
        try:
            job = manager.submit(doc("dir0b"))
            assert (job.directory / "request.json").exists()
            snapshot = job.snapshot()
            assert snapshot["cells"] == 1
            assert snapshot["state"] in (JobState.QUEUED, JobState.RUNNING)
        finally:
            gate.set()
            manager.shutdown(cancel_running=True)


# -- one settle step: every terminal path leaves the same traces ---------------


def wait_for(job, state, timeout=60.0):
    deadline = time.monotonic() + timeout
    while job.state != state:
        assert time.monotonic() < deadline, f"job {job.job_id} still {job.state}"
        time.sleep(0.01)
    return job


@contextmanager
def gated_manager(tmp_path, **kwargs):
    """A one-worker manager whose worker holds each job at the start gate."""
    gate = threading.Event()
    manager = JobManager(
        tmp_path / "svc", workers=1, start_gate=gate, recover=False, **kwargs
    )
    try:
        yield manager, gate
    finally:
        gate.set()
        manager.shutdown(cancel_running=True)


class TestSettle:
    def test_cancelled_queued_job_status_reads_cancelled(self, tmp_path):
        with gated_manager(tmp_path) as (manager, _gate):
            wait_for(manager.submit(doc("dir0b")), JobState.RUNNING)
            queued = manager.submit(doc("dragon"))
            assert queued.state == JobState.QUEUED
            manager.cancel(queued.job_id)
            assert queued.state == JobState.CANCELLED
            assert read_status(queued.status_path)["state"] == "cancelled"

    def test_cancelled_job_at_the_gate_status_reads_cancelled(self, tmp_path):
        with gated_manager(tmp_path) as (manager, gate):
            job = wait_for(manager.submit(doc("dir0b")), JobState.RUNNING)
            manager.cancel(job.job_id)
            manager.cancel(job.job_id)  # a repeat is not a second cancellation
            gate.set()
            wait_for(job, JobState.CANCELLED)
            assert read_status(job.status_path)["state"] == "cancelled"
            assert job.process is None
            assert manager.registry.counter("service.jobs_cancelled").value == 1

    def test_failed_deduped_job_counts_and_writes_its_status(
        self, tmp_path, monkeypatch
    ):
        import repro.service.jobs as jobs

        manager = JobManager(tmp_path / "svc", recover=False)
        try:
            wait_for(manager.submit(doc("dir0b")), JobState.FINISHED)

            def broken(*args, **kwargs):
                raise OSError("disk on fire")

            monkeypatch.setattr(jobs, "run_sweep", broken)
            job = manager.submit(doc("dir0b"))
            assert job.deduped and job.state == JobState.FAILED
            assert job.error == "OSError: disk on fire"
            assert manager.registry.counter("service.jobs_failed").value == 1
            status = read_status(job.status_path)
            assert status["state"] == "failed"
            assert status["error"] == "OSError: disk on fire"
        finally:
            manager.shutdown()

    def test_reaper_removes_a_directory_holding_a_stray_tmp(self, tmp_path):
        manager = JobManager(tmp_path / "svc", recover=False)
        try:
            job = wait_for(manager.submit(doc("dir0b")), JobState.FINISHED)
            # What a write cut short by terminate() or kill -9 leaves behind.
            (job.directory / "status.json.123.tmp").write_text("{")
            manager.job_ttl = 0.05
            time.sleep(0.1)
            assert manager.get(job.job_id) is None
            assert not job.directory.exists()
        finally:
            manager.shutdown()


class TestLimitsFailFast:
    @pytest.mark.parametrize(
        "limits, message",
        [
            ({"burst": 0}, "burst must be >= 1"),
            ({"rate_per_sec": -1.0}, "rate must be >= 0"),
        ],
    )
    def test_bad_limit_rejected_at_construction(self, tmp_path, limits, message):
        with pytest.raises(ValueError, match=message):
            JobManager(tmp_path / "svc", recover=False, **limits)

    def test_serve_with_zero_burst_exits_2_before_binding(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.service

        def bind(*args, **kwargs):
            raise AssertionError("serve bound a port despite a bad limit")

        monkeypatch.setattr(repro.service, "run_service", bind)
        status = main(
            ["--cache-dir", str(tmp_path / "svc"), "serve", "--burst", "0"]
        )
        assert status == 2
        assert "serve: burst must be >= 1, got 0" in capsys.readouterr().err
