"""Observability: probes, metrics, manifests, structured logging, spans.

The paper's whole methodology is counting, and this subsystem makes the
reproduction's own execution countable too:

* :mod:`repro.obs.probe` — per-reference event streaming out of the
  pipeline (JSONL and Chrome-trace/Perfetto sinks), zero-cost when off;
* :mod:`repro.obs.metrics` — counters, gauges, wall-time timers and
  histograms in a snapshot-able :class:`MetricsRegistry`;
* :mod:`repro.obs.manifest` — provenance (:class:`RunManifest`) attached
  to every executed sweep cell and serialised next to cached results;
* :mod:`repro.obs.log` — structured (optionally JSON-lines) logging behind
  the CLI's ``--log-level``/``-v``/``--log-json`` flags;
* :mod:`repro.obs.telemetry` — distributed sweep telemetry: hierarchical
  spans joined across worker processes, the per-cell stage spans
  (``trace.generate``, ``core.simulate``, ``report``) that the
  ``repro-coherence profile`` verb tabulates, atomic status snapshots and
  the ``repro-coherence status`` live view;
* :mod:`repro.obs.benchgate` — the benchmark-history ledger and
  regression gate behind ``tools/bench_history.py``.

See ``docs/observability.md`` for the full walkthrough.
"""

from .log import JsonFormatter, TextFormatter, fields, get_logger, setup_logging
from .manifest import RunManifest, collect_manifest, peak_rss_kb
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    get_registry,
    set_registry,
)
from .probe import ChromeTraceSink, CollectingProbe, JsonlSink, ReferenceProbe
from .telemetry import (
    SPAN_KINDS,
    Span,
    SpanRecorder,
    read_status,
    render_status,
    stage_seconds,
    write_status,
)

__all__ = [
    "JsonFormatter",
    "TextFormatter",
    "fields",
    "get_logger",
    "setup_logging",
    "RunManifest",
    "collect_manifest",
    "peak_rss_kb",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "get_registry",
    "set_registry",
    "ChromeTraceSink",
    "CollectingProbe",
    "JsonlSink",
    "ReferenceProbe",
    "SPAN_KINDS",
    "Span",
    "SpanRecorder",
    "read_status",
    "render_status",
    "stage_seconds",
    "write_status",
]
