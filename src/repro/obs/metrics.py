"""Metrics primitives: counters, gauges, wall-time timers, histograms.

A :class:`MetricsRegistry` is a named collection of instruments that any
layer can tally into and any consumer can snapshot as plain JSON-able data
(:meth:`MetricsRegistry.as_dict`, ``--metrics-json`` in the CLI).  The
sweep runner keeps one registry per sweep so reports are self-contained —
including the cost-accounting split between ``sweep.simulated`` and
``sweep.repriced`` (cells served by re-weighting another cell's counters
under a different hardware characterization); the result cache defaults to
the process-wide registry (:func:`get_registry`) so corruption events are
visible no matter which sweep tripped them.

The process-wide registry is exactly that: **per process**.  Instruments
tallied inside a sweep worker subprocess live in that worker's own
``_DEFAULT`` and would vanish with it — which is why the cell executor
swaps in a fresh registry per attempt (:func:`set_registry`), ships its
snapshot back over the result pipe, and the sweep loop folds it into the
parent registry with :meth:`MetricsRegistry.merge_snapshot`.  Code that
tallies into :func:`get_registry` from inside a worker is therefore
visible in ``SweepReport.metrics_dict()``; code that caches a registry
*object* across the fork boundary is not.

Registries export two machine formats: :meth:`MetricsRegistry.as_dict` /
``write_json`` (the ``--metrics-json`` schema shared with the
``BENCH_*.json`` artifacts) and :meth:`MetricsRegistry.to_openmetrics` /
``write_openmetrics`` (OpenMetrics / Prometheus text exposition, behind
``--metrics-openmetrics``).

Instruments are deliberately tiny pure-Python objects — a counter is one
integer — so tallying in hot-ish paths (per sweep cell, per cache lookup)
costs nothing worth measuring.  They are safe to tally from many threads
(the sweep service's request threads share one registry): every
read-modify-write takes one module-wide lock.  Per-*reference*
instrumentation does not go through the registry at all; that is the
probe API's job (:mod:`repro.obs.probe`), which is compiled out of the
hot loop entirely when no probe is attached.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "get_registry",
    "set_registry",
]

#: Guards every read-modify-write on an instrument (``+=`` is not atomic).
_LOCK = threading.Lock()


def _reset_lock() -> None:
    # A child forked while another thread held the lock must not inherit it.
    global _LOCK
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with _LOCK:
            self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Timer:
    """Accumulated wall time over any number of timed sections."""

    __slots__ = ("name", "total_seconds", "count")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total_seconds = 0.0
        self.count = 0

    def add(self, seconds: float) -> None:
        """Fold an externally measured duration in (e.g. from a worker)."""
        self.merge(seconds, 1)

    def merge(self, seconds: float, count: int) -> None:
        with _LOCK:
            self.total_seconds += seconds
            self.count += count

    @contextmanager
    def time(self) -> Iterator["Timer"]:
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(time.perf_counter() - start)

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "total_s": self.total_seconds,
            "count": self.count,
            "mean_s": self.mean_seconds,
        }


class Histogram:
    """Streaming summary (count/sum/min/max/mean) of observed values."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.merge(1, value, value, value)

    def merge(
        self, count: int, total: float, low: Optional[float], high: Optional[float]
    ) -> None:
        """Fold in a summary of ``count`` values (``low``/``high`` may be None)."""
        with _LOCK:
            self.count += count
            self.total += total
            if low is not None and (self.min is None or low < self.min):
                self.min = low
            if high is not None and (self.max is None or high > self.max):
                self.max = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Optional[float]]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshottable as JSON.

    Creation is race-free: ``dict.setdefault`` hands every thread that
    asks for a new name the same instrument.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create accessors ----------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers.setdefault(name, Timer(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms.setdefault(name, Histogram(name))
        return instrument

    def counter_value(self, name: str) -> int:
        """Read a counter without creating it (0 when never tallied).

        Health checks read counters they do not own (``cache.put_errors``,
        ``service.journal_errors``); going through :meth:`counter` would
        materialise empty instruments into every snapshot and exposition.
        """
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    # -- snapshots -------------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """The whole registry as plain JSON-able data."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "timers": {
                name: timer.as_dict()
                for name, timer in sorted(self._timers.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def write_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- cross-process merging -------------------------------------------------

    def merge_snapshot(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold another registry's :meth:`as_dict` snapshot into this one.

        This is how worker-side metrics cross the process boundary: the
        cell executor serialises the worker's registry as plain data over
        the result pipe and the sweep loop merges it here.  Counters and
        timers accumulate, histograms fold their streaming summaries, and
        gauges keep last-write-wins semantics (the snapshot wins).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("timers", {}).items():
            self.timer(name).merge(
                float(data.get("total_s", 0.0)), int(data.get("count", 0))
            )
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            count = int(data.get("count", 0))
            if count == 0:
                continue
            low, high = data.get("min"), data.get("max")
            histogram.merge(
                count,
                float(data.get("sum", 0.0)),
                None if low is None else float(low),
                None if high is None else float(high),
            )

    # -- OpenMetrics exposition ------------------------------------------------

    def to_openmetrics(self, prefix: str = "repro_") -> str:
        """The registry as OpenMetrics / Prometheus text exposition.

        Dotted instrument names are mangled to the OpenMetrics charset
        (``sweep.cache_hits`` → ``repro_sweep_cache_hits``).  Counters
        become ``counter`` families (``_total`` sample), gauges become
        ``gauge`` families, and timers/histograms become ``summary``
        families (``_count``/``_sum``; histograms additionally expose
        their streaming ``_min``/``_max`` as gauges).  The text ends with
        the spec's ``# EOF`` terminator, so the output is a complete
        exposition suitable for the Prometheus textfile collector.
        """
        lines = []

        def family(name: str, kind: str) -> str:
            lines.append(f"# TYPE {name} {kind}")
            return name

        def sample(name: str, value: Union[int, float]) -> None:
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            lines.append(f"{name} {value}")

        for name, counter in sorted(self._counters.items()):
            metric = family(_openmetrics_name(prefix, name), "counter")
            sample(f"{metric}_total", counter.value)
        for name, gauge in sorted(self._gauges.items()):
            metric = family(_openmetrics_name(prefix, name), "gauge")
            sample(metric, gauge.value)
        for name, timer in sorted(self._timers.items()):
            metric = family(_openmetrics_name(prefix, name), "summary")
            sample(f"{metric}_count", timer.count)
            sample(f"{metric}_sum", timer.total_seconds)
        for name, histogram in sorted(self._histograms.items()):
            metric = family(_openmetrics_name(prefix, name), "summary")
            sample(f"{metric}_count", histogram.count)
            sample(f"{metric}_sum", histogram.total)
            for bound in ("min", "max"):
                observed = getattr(histogram, bound)
                if observed is not None:
                    bound_metric = family(f"{metric}_{bound}", "gauge")
                    sample(bound_metric, observed)
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def write_openmetrics(
        self, path: Union[str, Path], prefix: str = "repro_"
    ) -> None:
        Path(path).write_text(self.to_openmetrics(prefix), encoding="utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, timers={len(self._timers)}, "
            f"histograms={len(self._histograms)})"
        )


#: OpenMetrics metric names: [a-zA-Z_:] then [a-zA-Z0-9_:]*.
_OPENMETRICS_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _openmetrics_name(prefix: str, name: str) -> str:
    metric = _OPENMETRICS_INVALID.sub("_", f"{prefix}{name}")
    if metric and metric[0].isdigit():
        metric = f"_{metric}"
    return metric


#: Process-wide default registry for layers with no better home (the result
#: cache's corruption counter, ad-hoc instrumentation in scripts).  Note
#: "process-wide", not "sweep-wide": a worker subprocess has its own copy
#: (see the module docstring), which the cell executor snapshots and ships
#: back to the parent.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry; returns the previous one.

    The cell executor installs a fresh registry at the top of every worker
    attempt so that *everything* the attempt tallies into
    :func:`get_registry` — cache traffic, corrupt-entry deletions, ad-hoc
    instrumentation — is exactly the delta shipped back to the parent
    sweep, instead of vanishing with the worker.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
