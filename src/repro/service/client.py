"""A stdlib HTTP client for the sweep service.

``http.client`` only — usable from the test suite, the CI smoke job and
any machine with a bare Python.  Every call opens one connection (the
server closes after each response anyway) and decodes JSON bodies;
non-2xx responses raise :class:`ServiceError` carrying the status code
and the decoded error payload.

Pass ``retry=RetryPolicy(retries=N)`` (the deterministic-jitter backoff
from :mod:`repro.resilience`) and the client transparently retries
transient failures — 429 and 503 responses and connection-level errors —
honouring a server ``Retry-After`` when it exceeds the computed backoff.
Retried POSTs are safe because a retrying client stamps every ``submit``
with an ``Idempotency-Key`` header (generated when the caller gives
none), so a request whose *response* was lost returns the original job
instead of creating a duplicate.  The default is no retries: tests that
assert on 429/503 see them raw.

>>> client = ServiceClient("http://127.0.0.1:8321")
>>> job = client.submit({"sweep": {"protocols": ["dir0b"], "scale": 512}})
>>> done = client.wait(job["id"])
>>> result = client.result(job["id"])
"""

from __future__ import annotations

import http.client
import json
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import urlsplit

from ..resilience.retry import RetryPolicy

__all__ = ["ServiceClient", "ServiceError"]

#: HTTP statuses worth retrying: rate limit and queue-full/draining.
RETRYABLE_STATUSES = frozenset({429, 503})


class ServiceError(Exception):
    """A non-2xx response: ``status`` plus the server's error payload."""

    def __init__(self, status: int, payload: object) -> None:
        self.status = status
        self.payload = payload
        detail = ""
        if isinstance(payload, dict) and "error" in payload:
            detail = f": {payload['error']}"
        super().__init__(f"HTTP {status}{detail}")

    @property
    def retry_after(self) -> Optional[float]:
        if isinstance(self.payload, dict):
            value = self.payload.get("retry_after_s")
            if isinstance(value, (int, float)):
                return float(value)
        return None


def _decode(raw: bytes, key: str) -> object:
    """A body's JSON, or its text as ``{key: text}`` when it is not JSON."""
    text = raw.decode(errors="replace")
    try:
        return json.loads(text or "null")
    except json.JSONDecodeError:
        return {key: text}


class ServiceClient:
    """Talks to one sweep service at ``base_url``.

    ``client`` names this caller for the server's per-client rate
    buckets (the ``X-Client`` header); ``timeout`` is the per-request
    socket timeout in seconds.
    """

    def __init__(
        self,
        base_url: str,
        client: str = "python-client",
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self.host = split.hostname
        self.port = split.port or 80
        self.client_name = client
        self.timeout = timeout
        self.retry = retry

    # -- plumbing --------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> Dict:
        attempt = 0
        while True:
            attempt += 1
            try:
                with self._open(method, path, body, extra_headers) as response:
                    return _decode(response.read(), "raw")
            except ServiceError as error:
                if (
                    self.retry is None
                    or attempt > self.retry.retries
                    or error.status not in RETRYABLE_STATUSES
                ):
                    raise
                delay = self.retry.delay(f"{method} {path}", attempt)
                retry_after = error.retry_after
                if retry_after is not None:
                    delay = max(delay, retry_after)
                time.sleep(delay)
            except (ConnectionError, http.client.HTTPException, OSError):
                # The request may have been *applied* before the response
                # was lost; retrying a submit is still safe because it
                # carries an Idempotency-Key (see submit()).
                if self.retry is None or attempt > self.retry.retries:
                    raise
                time.sleep(self.retry.delay(f"{method} {path}", attempt))

    @contextmanager
    def _open(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> Iterator[http.client.HTTPResponse]:
        """One connection and request; yields a 2xx response, else raises.

        A non-2xx response raises :class:`ServiceError` carrying its
        decoded JSON body (or the raw text as ``error``).
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"X-Client": self.client_name}
            if payload is not None:
                headers["Content-Type"] = "application/json"
            headers.update(extra_headers)
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            if response.status >= 400:
                raise ServiceError(response.status, _decode(response.read(), "error"))
            yield response
        finally:
            connection.close()

    # -- API -------------------------------------------------------------------

    def health(self) -> Dict:
        return self._request("GET", "/healthz")

    def ready(self) -> Dict:
        """The readiness payload; raises ServiceError(503) when not ready."""
        return self._request("GET", "/readyz")

    def submit(
        self, request: dict, idempotency_key: Optional[str] = None
    ) -> Dict:
        """POST a sweep document; returns the job snapshot (id, state...).

        When this client retries (``retry=`` was given) and neither the
        caller nor the document supplies an idempotency key, one is
        generated — a duplicate submit caused by a lost response then
        returns the original job instead of double-submitting.
        """
        if (
            idempotency_key is None
            and self.retry is not None
            and not (
                isinstance(request, dict) and request.get("idempotency_key")
            )
        ):
            idempotency_key = uuid.uuid4().hex
        extra = (
            (("Idempotency-Key", idempotency_key),)
            if idempotency_key is not None
            else ()
        )
        return self._request(
            "POST", "/sweeps", body=request, extra_headers=extra
        )

    def list_jobs(self) -> Dict:
        return self._request("GET", "/sweeps")

    def status(self, job_id: str) -> Dict:
        return self._request("GET", f"/sweeps/{job_id}")

    def result(self, job_id: str) -> Dict:
        """The finished report payload (raises 409 ServiceError earlier)."""
        return self._request("GET", f"/sweeps/{job_id}/result")

    def cancel(self, job_id: str) -> Dict:
        return self._request("POST", f"/sweeps/{job_id}/cancel")

    def metrics(self) -> str:
        """The raw OpenMetrics exposition text (never retried)."""
        with self._open("GET", "/metrics") as response:
            return response.read().decode()

    def events(self, job_id: str) -> Iterator[Dict]:
        """Stream the job's NDJSON events until the server closes (never
        retried: a replay would repeat events already yielded)."""
        with self._open("GET", f"/sweeps/{job_id}/events") as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode())

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_seconds: float = 0.2,
    ) -> Dict:
        """Poll ``/sweeps/{id}`` until the job is terminal; returns it.

        Raises :class:`TimeoutError` if it is still live at the deadline.
        """
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.status(job_id)
            if snapshot["state"] in ("finished", "failed", "cancelled"):
                return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"sweep {job_id} still {snapshot['state']} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(poll_seconds)
