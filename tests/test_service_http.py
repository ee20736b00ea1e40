"""The sweep service's HTTP contract, byte for byte where it matters.

``tests/test_service.py`` drives the API through :class:`ServiceClient`;
these tests speak raw HTTP (``http.client`` or a bare socket) so they pin
what a client of any kind sees: status codes, JSON error bodies on every
failure (including requests too broken to route), the ``Location`` and
``Retry-After`` headers, the OpenMetrics content type, and the framing of
``Content-Length``.  The events stream's handling of a journal line caught
mid-append is unit-tested on its helper.
"""

import ast
import http.client
import json
import math
import socket
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.resilience.retry import RetryPolicy
from repro.service import JobManager, ServiceClient, ServiceError, start_background
from repro.service.http import MAX_BODY_BYTES, SweepService, _Handler, complete_lines
from repro.service.schema import REQUEST_SCHEMA_VERSION

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

DOC = {
    "schema": REQUEST_SCHEMA_VERSION,
    "sweep": {"protocols": ["dir0b"], "traces": ["POPS"], "scale": 512},
}


@contextmanager
def gated_service(tmp_path, **kwargs):
    """A live service whose workers never start a job (the gate stays shut)."""
    gate = threading.Event()
    manager = JobManager(tmp_path / "svc", start_gate=gate, **kwargs)
    handle = start_background(manager)
    try:
        yield manager, handle
    finally:
        gate.set()
        handle.stop(drain=False)


def request(handle, method, path, body=None, headers=None):
    """One request over ``http.client``: (status, headers, raw body)."""
    connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        raw = response.read()
        return response.status, dict(response.getheaders()), raw
    finally:
        connection.close()


def raw_exchange(handle, data: bytes):
    """Send ``data`` on a bare socket; returns (status, headers, body).

    ``status`` is None when the server closed without answering.
    """
    with socket.create_connection((handle.host, handle.port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    if not reply:
        return None, {}, b""
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def assert_json_error(status, headers, body, expected_status):
    assert status == expected_status, (status, body)
    content_type = {k.lower(): v for k, v in headers.items()}["content-type"]
    assert content_type == "application/json"
    assert "error" in json.loads(body)


class TestRoutesAndStatuses:
    def test_non_json_body_is_400(self, tmp_path):
        with gated_service(tmp_path) as (_manager, handle):
            status, headers, body = request(
                handle, "POST", "/sweeps", body=b"{not json"
            )
        assert_json_error(status, headers, body, 400)
        assert "not JSON" in json.loads(body)["error"]

    def test_body_over_limit_is_413(self, tmp_path):
        with gated_service(tmp_path) as (_manager, handle):
            reply = raw_exchange(
                handle,
                b"POST /sweeps HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
            )
        assert_json_error(*reply, 413)

    @pytest.mark.parametrize(
        "section, field, literal",
        [
            ("sweep", "scale", b"NaN"),
            ("sweep", "scale", b"Infinity"),
            ("sweep", "scale", b"1" + b"0" * 400),
            ("options", "cell_timeout", b"NaN"),
            ("options", "cell_timeout", b"Infinity"),
        ],
        ids=["scale-nan", "scale-inf", "scale-huge-int", "timeout-nan", "timeout-inf"],
    )
    def test_non_finite_number_is_422_naming_the_field(
        self, tmp_path, section, field, literal
    ):
        # The stdlib's json reads NaN and Infinity as floats, and a
        # 401-digit literal as an int no float can hold.
        body = json.dumps(DOC).encode()[:-1]
        if section == "sweep":
            body = body.replace(b'"scale": 512', b'"scale": ' + literal) + b"}"
        else:
            body += b', "options": {"cell_timeout": ' + literal + b"}}"
        with gated_service(tmp_path) as (_manager, handle):
            status, headers, raw = request(handle, "POST", "/sweeps", body=body)
        assert_json_error(status, headers, raw, 422)
        details = json.loads(raw)["details"]
        assert {"field": f"{section}.{field}", "error": "must be a finite number"} in (
            details
        )

    def test_unknown_route_is_404(self, tmp_path):
        with gated_service(tmp_path) as (_manager, handle):
            reply = request(handle, "GET", "/nowhere")
        assert_json_error(*reply, 404)

    def test_unknown_action_is_404(self, tmp_path):
        with gated_service(tmp_path) as (manager, handle):
            job = manager.submit(DOC)
            reply = request(handle, "GET", f"/sweeps/{job.job_id}/nowhere")
        assert_json_error(*reply, 404)

    @pytest.mark.parametrize(
        "method, path",
        [("PUT", "/sweeps"), ("POST", "/metrics"), ("POST", "/healthz")],
    )
    def test_wrong_method_is_405(self, tmp_path, method, path):
        with gated_service(tmp_path) as (_manager, handle):
            reply = request(handle, method, path, body=b"")
        assert_json_error(*reply, 405)

    def test_delete_cancels_a_queued_job(self, tmp_path):
        with gated_service(tmp_path, workers=1) as (manager, handle):
            manager.submit(DOC)  # holds the only worker at the gate
            job = manager.submit(
                {**DOC, "sweep": {**DOC["sweep"], "protocols": ["dragon"]}}
            )
            assert job.state == "queued"
            status, _headers, body = request(handle, "DELETE", f"/sweeps/{job.job_id}")
            assert status == 200
            assert json.loads(body)["state"] == "cancelled"
            assert manager.get(job.job_id).state == "cancelled"

    def test_created_job_is_201_with_location(self, tmp_path):
        with gated_service(tmp_path) as (_manager, handle):
            status, headers, body = request(
                handle,
                "POST",
                "/sweeps",
                body=json.dumps(DOC).encode(),
                headers={"Content-Type": "application/json"},
            )
        assert status == 201
        job_id = json.loads(body)["id"]
        assert headers["Location"] == f"/sweeps/{job_id}"

    def test_metrics_is_openmetrics_text(self, tmp_path):
        with gated_service(tmp_path) as (_manager, handle):
            status, headers, body = request(handle, "GET", "/metrics")
        assert status == 200
        assert (
            headers["Content-Type"]
            == "application/openmetrics-text; version=1.0.0"
        )
        assert body.decode().rstrip().endswith("# EOF")

    def test_every_response_closes_its_connection(self, tmp_path):
        with gated_service(tmp_path) as (_manager, handle):
            _status, headers, _body = request(handle, "GET", "/healthz")
        assert headers["Connection"] == "close"

    @pytest.mark.parametrize(
        "request_line",
        [b"GARBAGE\r\n\r\n", b"GET / x HTTP/1.1\r\n\r\n", b"GET /\r\n\r\n"],
    )
    def test_malformed_request_line_is_400_json(self, tmp_path, request_line):
        with gated_service(tmp_path) as (_manager, handle):
            reply = raw_exchange(handle, request_line)
        assert_json_error(*reply, 400)


class TestConcurrentRequests:
    def test_every_request_counted_and_identical_submits_coalesce(self, tmp_path):
        """Eight clients at once on a short switch interval: every request
        is counted, and identical submissions coalesce onto one job."""
        clients, rounds = 8, 10
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with gated_service(tmp_path, workers=1) as (manager, handle):
                ids, errors = [], []

                def client():
                    try:
                        for _ in range(rounds):
                            request(handle, "GET", "/healthz")
                            _status, _headers, body = request(
                                handle, "POST", "/sweeps", json.dumps(DOC)
                            )
                            ids.append(json.loads(body)["id"])
                    except Exception as error:  # surfaced below
                        errors.append(error)

                threads = [threading.Thread(target=client) for _ in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                counted = manager.registry.counter("service.http_requests").value
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert counted == 2 * clients * rounds
        assert len(ids) == clients * rounds
        assert len(set(ids)) == 1


class TestFraming:
    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400_json(self, tmp_path, length):
        with gated_service(tmp_path) as (_manager, handle):
            reply = raw_exchange(
                handle,
                b"POST /sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + length
                + b"\r\n\r\n",
            )
        assert_json_error(*reply, 400)
        assert "Content-Length" in json.loads(reply[2])["error"]

    def test_retry_after_rounds_a_subsecond_wait_up(self, tmp_path):
        # 2.5 tokens/s on a stopped clock: the second request waits 0.4 s,
        # which "%.0f" would have advertised as "Retry-After: 0".
        with gated_service(
            tmp_path, rate_per_sec=2.5, burst=1, clock=lambda: 0.0
        ) as (_manager, handle):
            submit = dict(
                body=json.dumps(DOC).encode(),
                headers={"Content-Type": "application/json", "X-Client": "c"},
            )
            first, _headers, _body = request(handle, "POST", "/sweeps", **submit)
            status, headers, body = request(handle, "POST", "/sweeps", **submit)
        assert first == 201
        assert status == 429
        wait = json.loads(body)["retry_after_s"]
        assert wait == pytest.approx(0.4)
        advertised = int(headers["Retry-After"])
        assert advertised >= 1
        assert advertised >= math.ceil(wait)


def finishes_within(seconds, target, *args, **kwargs) -> bool:
    """Run ``target`` on a daemon thread; did it return within ``seconds``?"""
    thread = threading.Thread(target=target, args=args, kwargs=kwargs, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    return not thread.is_alive()


class TestStalledClients:
    """Each connection holds a thread: a stall is bounded by the handler's
    socket timeout, and stopping the server never waits on one."""

    @pytest.mark.parametrize(
        "sent",
        [
            b"",  # not even a request line
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n",  # headers never end
            b"POST /sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{}",
        ],
    )
    def test_a_stalled_request_is_dropped_after_the_timeout(
        self, tmp_path, monkeypatch, sent
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.5)
        with gated_service(tmp_path) as (manager, handle):
            started = time.monotonic()
            reply = raw_exchange(handle, sent)
            elapsed = time.monotonic() - started
            status, _headers, _body = request(handle, "GET", "/healthz")
        assert reply == (None, {}, b"")
        assert 0.4 < elapsed < 10.0
        assert status == 200

    def test_stop_does_not_wait_on_a_silent_connection(self, tmp_path):
        with gated_service(tmp_path) as (_manager, handle):
            with socket.create_connection((handle.host, handle.port), timeout=30):
                request(handle, "GET", "/healthz")  # the silent one is accepted
                assert finishes_within(5.0, handle.stop, drain=False)

    def test_closing_the_server_ends_an_open_events_stream(self, tmp_path):
        gate = threading.Event()
        manager = JobManager(tmp_path / "svc", start_gate=gate)
        server = SweepService(manager, port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            connection = http.client.HTTPConnection("127.0.0.1", port)
            connection.request("POST", "/sweeps", body=json.dumps(DOC))
            job_id = json.loads(connection.getresponse().read())["id"]
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            connection.request("GET", f"/sweeps/{job_id}/events")
            response = connection.getresponse()
            assert json.loads(response.readline())["event"] == "snapshot"
            assert finishes_within(5.0, server.shutdown)
            assert finishes_within(5.0, server.server_close)
            rest = response.read()  # EOF: the stream was dropped, not ended
            assert b'"end"' not in rest
            assert manager.get(job_id).snapshot()["state"] in ("queued", "running")
        finally:
            gate.set()
            manager.shutdown(cancel_running=True)


class TestCompleteLines:
    def test_torn_tail_is_left_for_the_next_read(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        journal.write_bytes(b'{"cell": 1}\n{"cell": 2, "sta')
        offset = 0

        def poll():
            nonlocal offset
            with open(journal, "rb") as handle:
                handle.seek(offset)
                lines, consumed = complete_lines(handle.read())
            offset += consumed
            return [json.loads(line) for line in lines]

        assert poll() == [{"cell": 1}]
        assert poll() == []  # still torn: nothing consumed
        with open(journal, "ab") as handle:
            handle.write(b'tus": "ok"}\n{"cell": 3}\n')
        assert poll() == [{"cell": 2, "status": "ok"}, {"cell": 3}]
        assert poll() == []

    def test_chunk_without_newline_consumes_nothing(self):
        assert complete_lines(b"") == ([], 0)
        assert complete_lines(b'{"half"') == ([], 0)
        assert complete_lines(b"a\n\nb\n") == ([b"a", b"", b"b"], 5)


class TestClientPlumbing:
    def test_error_bodies_decode_on_every_call(self, tmp_path):
        with gated_service(tmp_path) as (_manager, handle):
            client = ServiceClient(handle.base_url)
            with pytest.raises(ServiceError) as excinfo:
                list(client.events("deadbeef"))
        assert excinfo.value.status == 404
        assert "deadbeef" in excinfo.value.payload["error"]

    def test_metrics_and_events_do_not_retry(self, monkeypatch):
        import repro.service.client as client_module

        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = ServiceClient(f"http://127.0.0.1:{port}", retry=RetryPolicy(retries=2))
        with pytest.raises(OSError):
            client.metrics()
        with pytest.raises(OSError):
            list(client.events("deadbeef"))
        assert sleeps == []
        with pytest.raises(OSError):
            client.health()
        assert len(sleeps) == 2


def test_no_module_imports_asyncio():
    """The service runs on threads alone: one concurrency model."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "asyncio" for name in names):
                offenders.append(str(path.relative_to(SRC)))
    assert offenders == []
