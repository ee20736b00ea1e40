"""The HTTP front end over :class:`~repro.service.jobs.JobManager`.

Pure stdlib: :class:`http.server.ThreadingHTTPServer` answers each
request on its own thread, and the handler calls the manager directly
from that thread — the manager is thread-safe, so the whole service runs
on one concurrency model.  Every response closes its connection
(``Connection: close``), and every error carries a JSON body, down to a
request line too malformed to route.  Each connection holds a thread, so
a client that stalls mid-request for ``_Handler.timeout`` seconds is
dropped without a reply, and stopping the server never waits on request
threads.

Routes (see ``docs/service.md`` for the full reference)::

    POST   /sweeps               submit a sweep          201 / 200 dedupe
    GET    /sweeps               list jobs
    GET    /sweeps/{id}          status snapshot         404 unknown
    GET    /sweeps/{id}/result   finished report JSON    409 until terminal
    GET    /sweeps/{id}/events   NDJSON progress stream
    POST   /sweeps/{id}/cancel   request cancellation
    DELETE /sweeps/{id}          alias for cancel
    GET    /metrics              OpenMetrics exposition
    GET    /healthz              liveness (always 200 while serving)
    GET    /readyz               readiness: 503 while recovering/draining

Backpressure surfaces as status codes, never queues hidden in the
server: 422 invalid schema, 429 rate-limited (with ``Retry-After``),
503 queue-full or draining.

:func:`run_service` is the blocking entry the ``serve`` CLI verb uses —
it installs SIGTERM/SIGINT handlers that drain the manager before the
server stops.  :func:`start_background` runs the same server on a daemon
thread and hands back a :class:`ServiceHandle`, which is how the tests,
the benchmark and ``examples/sweep_service.py`` embed a live service
in-process.
"""

from __future__ import annotations

import json
import math
import signal
import socketserver
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from .jobs import JobManager, JobState, QueueFull, RateLimited, ServiceDraining
from .schema import RequestError

__all__ = ["SweepService", "ServiceHandle", "run_service", "start_background"]

#: Largest accepted request body, in bytes.  Sweep documents are small;
#: anything bigger is a mistake or an attack.
MAX_BODY_BYTES = 1 << 20

#: Seconds between poll rounds while streaming a job's events.
EVENT_POLL_SECONDS = 0.2

OPENMETRICS = "application/openmetrics-text; version=1.0.0"

_MARKER_KINDS = frozenset({"cache_hit", "reprice", "retry", "timeout", "fault"})


class _HttpError(Exception):
    """Internal short-circuit: an error status and its JSON payload."""

    def __init__(self, status: int, error: str, headers=(), **extra) -> None:
        super().__init__(error)
        self.status = status
        self.payload = {"error": error, **extra}
        self.headers = headers


def complete_lines(chunk: bytes) -> Tuple[List[bytes], int]:
    """The newline-terminated lines of ``chunk`` and the bytes they span.

    A journal record caught mid-append has no ``\\n`` yet; it is left
    unconsumed, so the next read from the returned offset sees it whole.
    """
    end = chunk.rfind(b"\n") + 1
    return chunk[:end].splitlines(), end


class SweepService(ThreadingHTTPServer):
    """One listening socket mapping HTTP onto a :class:`JobManager`.

    Binds in the constructor (``port=0`` picks an ephemeral port; read it
    back from ``server_address``); :meth:`serve_forever` then answers each
    request on its own daemon thread.
    """

    daemon_threads = True
    #: Never join request threads on close: a stalled client or an open
    #: ``/events`` stream must not hold up shutdown (and the SIGTERM drain).
    block_on_close = False
    #: The listen backlog (the stdlib default of 5 drops bursts).
    request_queue_size = 100

    def __init__(
        self, manager: JobManager, host: str = "127.0.0.1", port: int = 8321
    ) -> None:
        self.manager = manager
        #: Set by :meth:`server_close`; ends every open ``/events`` stream.
        self.closing = threading.Event()
        super().__init__((host, port), _Handler)

    def server_bind(self) -> None:
        # Skip HTTPServer's reverse DNS lookup of the bound address: startup
        # must not wait on a resolver, and nothing here reads server_name.
        socketserver.TCPServer.server_bind(self)

    def server_close(self) -> None:
        self.closing.set()
        super().server_close()

    def handle_error(self, request, client_address) -> None:
        # A client hanging up or stalling mid-request is not a server fault.
        if not isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """One request: route it, call the manager, answer, close."""

    protocol_version = "HTTP/1.1"
    #: Socket timeout in seconds.  Requests arrive whole, so a client that
    #: stalls mid-request line, headers or body, or stops reading a
    #: response, is dropped instead of holding its thread forever.
    timeout = 10.0
    server: SweepService

    def __getattr__(self, name: str):
        # Every method reaches the router, which answers 405 or 404 itself.
        if name.startswith("do_"):
            return self._route
        raise AttributeError(name)

    def parse_request(self) -> bool:
        # HTTP/1.x only: the stdlib would take "GET /" as HTTP/0.9 and
        # answer it without a status line.
        words = self.raw_requestline.split()
        if len(words) != 3 or not words[2].startswith(b"HTTP/1."):
            self.send_error(400, "malformed request line")
            return False
        return super().parse_request()

    def log_message(self, format: str, *args) -> None:
        pass  # the stdlib logs only dropped (timed-out) connections; stay quiet

    def send_error(self, code: int, message=None, explain=None) -> None:
        # The stdlib's error page is HTML, and a request line it could not
        # parse would be answered without a status line.
        self.request_version = self.protocol_version
        self._send_json(code, {"error": message or HTTPStatus(code).phrase})

    # -- responses -------------------------------------------------------------

    def _start(self, status: int, content_type: str, headers=()) -> None:
        self.send_response_only(status)
        for name, value in (("Content-Type", content_type), *headers):
            self.send_header(name, value)
        self.send_header("Connection", "close")

    def _send(self, status: int, content_type: str, body: bytes, headers=()) -> None:
        self._start(status, content_type, headers)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict, headers=()) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self._send(status, "application/json", body, headers)

    # -- routing ---------------------------------------------------------------

    def _route(self) -> None:
        try:
            body = self._read_body()
            self.server.manager.registry.counter("service.http_requests").inc()
            self._dispatch(self.command.upper(), self.path.split("?", 1)[0], body)
        except _HttpError as error:
            self._send_json(error.status, error.payload, error.headers)
        except (ConnectionError, TimeoutError):
            self.close_connection = True  # the client stalled or hung up
        except Exception as error:  # last-resort 500, never a hung socket
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    def _read_body(self) -> bytes:
        text = (self.headers.get("Content-Length") or "0").strip()
        if not (text.isascii() and text.isdigit()):
            raise _HttpError(400, f"invalid Content-Length {text!r}")
        length = int(text)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length else b""

    def _dispatch(self, method: str, path: str, body: bytes) -> None:
        manager = self.server.manager
        if path == "/sweeps":
            if method == "POST":
                return self._post_sweep(body)
            if method == "GET":
                jobs = [job.snapshot() for job in manager.list_jobs()]
                return self._send_json(200, {"jobs": jobs})
            raise _HttpError(405, f"{method} not allowed on {path}")
        if path in ("/metrics", "/healthz", "/readyz") and method != "GET":
            raise _HttpError(405, "GET only")
        if path == "/metrics":
            text = manager.registry.to_openmetrics()
            return self._send(200, OPENMETRICS, text.encode())
        if path == "/healthz":
            # Liveness: the server is answering, so the process is alive —
            # always 200, even mid-recovery or draining.  ``degraded``
            # carries everything a dashboard should worry about.
            return self._send_json(200, {**manager.health_info(), "ok": True})
        if path == "/readyz":
            # Readiness: should a load balancer send new work here?  503
            # while journal replay is rebuilding the job table and while
            # draining; degraded-but-ready states (queue saturation,
            # write-failure counters) stay 200 with the evidence attached.
            info = manager.health_info()
            info["ready"] = ready = not (info["recovering"] or info["draining"])
            return self._send_json(200 if ready else 503, info)
        if not path.startswith("/sweeps/"):
            raise _HttpError(404, f"no route for {path}")
        job_id, _, action = path[len("/sweeps/") :].partition("/")
        if not job_id:
            raise _HttpError(404, "missing job id")
        job = manager.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown sweep {job_id!r}")
        if (action, method) in (("", "DELETE"), ("cancel", "POST")):
            manager.cancel(job_id)
            return self._send_json(200, job.snapshot())
        if (action, method) == ("", "GET"):
            return self._send_json(200, job.snapshot())
        if not action:
            raise _HttpError(405, "GET or DELETE")
        if (action, method) == ("result", "GET"):
            return self._get_result(job)
        if (action, method) == ("events", "GET"):
            return self._stream_events(job)
        raise _HttpError(404, f"unknown action {action!r} for {method}")

    # -- handlers --------------------------------------------------------------

    def _post_sweep(self, body: bytes) -> None:
        manager = self.server.manager
        try:
            payload = json.loads(body.decode() or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _HttpError(400, f"request body is not JSON: {error}") from None
        client = self.headers.get("X-Client", self.client_address[0])
        try:
            job = manager.submit(payload, client, self.headers.get("Idempotency-Key"))
        except RequestError as error:
            raise _HttpError(
                422, "invalid sweep request", details=error.details
            ) from None
        except RateLimited as error:
            manager.registry.counter("service.rate_limited").inc()
            # Whole seconds, rounded up: a 0.4 s wait is "1", never "0".
            retry_after = str(max(1, math.ceil(error.retry_after)))
            raise _HttpError(
                429,
                str(error),
                (("Retry-After", retry_after),),
                retry_after_s=error.retry_after,
            ) from None
        except (QueueFull, ServiceDraining) as error:
            raise _HttpError(503, str(error)) from None
        # 200 for anything that didn't create new work (coalesced onto an
        # existing job, or served inline from the cache); 201 otherwise.
        snapshot = job.snapshot()
        created = not job.deduped and snapshot["state"] in (
            JobState.QUEUED,
            JobState.RUNNING,
        )
        location = (("Location", f"/sweeps/{job.job_id}"),)
        self._send_json(201 if created else 200, snapshot, location)

    def _get_result(self, job) -> None:
        with job.lock:
            state = job.state
        if state != JobState.FINISHED:
            message = f"sweep {job.job_id} is {state}, not finished"
            raise _HttpError(409, message, state=state)
        self._send(200, "application/json", job.result_path.read_bytes())

    def _stream_events(self, job) -> None:
        """NDJSON progress: journal records live, span markers at the end.

        Streams the job's journal lines (one record per cell outcome) as
        they land, interleaved with status snapshots whenever the
        heartbeat file changes, until the job goes terminal; then replays
        the sweep's marker spans (cache hits, retries, faults…) from the
        Chrome trace and closes with an ``end`` event.  The body has no
        length: it ends when the connection closes.
        """
        self._start(200, "application/x-ndjson")
        self.end_headers()

        def emit(events) -> None:
            lines = (json.dumps(event, sort_keys=True) + "\n" for event in events)
            self.wfile.write("".join(lines).encode())

        emit([{"event": "snapshot", "job": job.snapshot()}])
        journal_offset = 0
        last_status: Optional[str] = None
        while True:
            with job.lock:
                terminal = job.state in JobState.TERMINAL
            events = []
            try:
                with open(job.journal_path, "rb") as handle:
                    handle.seek(journal_offset)
                    lines, consumed = complete_lines(handle.read())
                journal_offset += consumed
            except OSError:
                lines = []
            for line in lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a blank or corrupt line, never a torn tail
                events.append({"event": "journal", "record": record})
            try:
                status_text = job.status_path.read_text()
            except OSError:
                status_text = None
            if status_text and status_text != last_status:
                last_status = status_text
                try:
                    status = json.loads(status_text)
                    events.append({"event": "status", "status": status})
                except json.JSONDecodeError:
                    pass
            emit(events)
            if terminal:
                break
            if self.server.closing.wait(EVENT_POLL_SECONDS):
                return  # the server is stopping: drop the stream unfinished

        with job.lock:
            final_state = job.state
        markers = [{"event": "marker", "span": marker} for marker in _markers(job)]
        emit(markers + [{"event": "end", "state": final_state}])


def _markers(job) -> list:
    """The sweep's instantaneous marker spans, from its Chrome trace."""
    try:
        document = json.loads(job.spans_path.read_text())
    except (OSError, json.JSONDecodeError):
        return []
    return [
        {
            "name": slice_.get("name"),
            "kind": slice_.get("cat"),
            "ts_us": slice_.get("ts"),
            "args": slice_.get("args", {}),
        }
        for slice_ in document.get("traceEvents", [])
        if slice_.get("cat") in _MARKER_KINDS
    ]


# -- entry points --------------------------------------------------------------


class ServiceHandle:
    """A service serving on a background thread (tests, examples, bench).

    Made by :func:`start_background`: the constructor binds (raising
    OSError at once if that fails) and starts serving.
    """

    def __init__(self, manager: JobManager, host: str, port: int) -> None:
        self.manager = manager
        self._server = SweepService(manager, host, port)
        self.host, self.port = self._server.server_address[:2]
        threading.Thread(
            # A short poll keeps stop() prompt; requests never wait on it.
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="sweep-service",
            daemon=True,
        ).start()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if drain:
            self.manager.drain(timeout=timeout)
        self.manager.shutdown(cancel_running=not drain)
        self._server.shutdown()  # returns once serve_forever has exited
        self._server.server_close()


def start_background(manager: JobManager, host: str = "127.0.0.1", port: int = 0):
    """Serve ``manager`` on a daemon thread; returns a started handle.

    ``port=0`` binds an ephemeral port — read it back from the handle.
    """
    return ServiceHandle(manager, host, port)


def run_service(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8321,
    drain_timeout: float = 30.0,
    ready_stream=None,
) -> int:
    """Serve until SIGTERM/SIGINT, then drain and exit (the CLI path).

    Prints ``listening on http://host:port`` to ``ready_stream`` (stderr
    by default) once bound — the CI smoke job polls for that line.
    Returns 0 after a clean drain, 1 if jobs had to be abandoned.
    """
    stream = ready_stream if ready_stream is not None else sys.stderr
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, lambda *_: stop.set())
        except ValueError:  # pragma: no cover - not the main thread
            pass
    try:
        handle = start_background(manager, host, port)
        # One write: recovery logs to the same stream from another thread,
        # and print() writes the newline separately, so a log record could
        # land inside the ready line that clients parse.
        stream.write(f"listening on {handle.base_url}\n")
        stream.flush()
        stop.wait()
        print("draining...", file=stream)
        drained = manager.drain(drain_timeout)
        # Every job is terminal after a clean drain, so this cancels only
        # what a timed-out drain abandoned.
        handle.stop(drain=False)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(
        "drained cleanly" if drained else "drain timed out; jobs abandoned",
        file=stream,
    )
    return 0 if drained else 1
