"""Coherence-as-a-service: the sweep runner behind an HTTP job API.

The package splits into four layers, each usable on its own:

- :mod:`repro.service.schema` — the versioned request document and the
  JSON result payload (:func:`~repro.service.schema.parse_request`,
  :func:`~repro.service.schema.report_payload`).
- :mod:`repro.service.jobs` — :class:`~repro.service.jobs.JobManager`:
  queueing, dedupe against the shared :class:`~repro.runner.cache.ResultCache`,
  per-client rate limiting, TTL eviction, cancellation and drain.  Plain
  threads + one process per running sweep; it unit-tests without a server.
- :mod:`repro.service.journal` — the crash-safe
  :class:`~repro.service.journal.ServiceJournal` of job state
  transitions that :meth:`~repro.service.jobs.JobManager.recover`
  replays after a restart (or a SIGKILL) so interrupted jobs resume
  without re-simulating finished cells.
- :mod:`repro.service.http` — the HTTP front end
  (:class:`~repro.service.http.SweepService`, a stdlib
  ``ThreadingHTTPServer``, and :func:`~repro.service.http.run_service`)
  mapping the manager onto ``POST /sweeps`` … ``GET /metrics`` from one
  thread per request — the service has no event loop.
- :mod:`repro.service.client` — :class:`~repro.service.client.ServiceClient`,
  a stdlib-only client used by the tests, the CI smoke job and
  ``examples/sweep_service.py``.

See ``docs/service.md`` for the API reference and deployment notes.
"""

from .client import ServiceClient, ServiceError
from .http import ServiceHandle, SweepService, run_service, start_background
from .jobs import JobManager, JobState, QueueFull, RateLimited, ServiceDraining
from .journal import SERVICE_JOURNAL_NAME, ServiceJournal
from .schema import (
    REQUEST_SCHEMA_VERSION,
    RequestError,
    parse_request,
    report_payload,
)

__all__ = [
    "JobManager",
    "JobState",
    "QueueFull",
    "RateLimited",
    "SERVICE_JOURNAL_NAME",
    "ServiceDraining",
    "ServiceJournal",
    "REQUEST_SCHEMA_VERSION",
    "RequestError",
    "parse_request",
    "report_payload",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "SweepService",
    "run_service",
    "start_background",
]
