"""Distributed sweep telemetry: spans, status snapshots, cross-process IDs.

The rest of :mod:`repro.obs` observes one process at a time; this module
ties a *multi-process* sweep into one causal record.  Three pieces:

**Spans.**  A :class:`Span` is a named, timed interval with a kind from
:data:`SPAN_KINDS`, a parent, and a trace id shared by everything in one
sweep.  :class:`SpanRecorder` collects finished spans in one process;
span identity is a ``(trace_id, span_id)`` pair of random hex tokens, so
a worker subprocess can open child spans under a parent span it has never
seen — the sweep loop passes the pair into the cell executor, the worker
records ``attempt``/``stage`` spans against it, serialises them as plain
dicts over the existing result pipe, and the parent folds them back in
with :meth:`SpanRecorder.ingest`.  The hierarchy is
``sweep → cell → attempt → stage``, with instantaneous marker spans for
the sweep's decision points: ``cache_hit``, ``reprice``, ``retry``,
``timeout`` and ``fault``.

**Stages.**  A stage span is opened where its work happens, by
:func:`stage`: :meth:`~repro.runner.spec.RunSpec.run` times
``trace.generate`` and ``core.simulate``, and the attempt itself times
``report``.  :func:`attempt_scope` names the recorder and attempt span
those stages hang under for the length of one attempt; outside one, a
stage is a ``nullcontext`` and creates no span.  ``repro-coherence
profile`` prints these stages per cell (:func:`stage_seconds`).

**Chrome-trace export.**  :meth:`SpanRecorder.write_chrome_trace` reuses
:class:`~repro.obs.probe.ChromeTraceSink` — each OS pid that recorded a
span becomes a process track, each span a complete slice (``ts``/``dur``
in microseconds since the earliest span) — so ``--emit-spans FILE``
yields a Perfetto-loadable timeline of an entire ``--jobs N`` sweep, and
``tools/validate_trace.py`` validates span traces and per-reference
traces alike.

**Status snapshots.**  :func:`write_status` atomically publishes a small
JSON document (cells done/running/failed, refs/sec, ETA) that the sweep
loop refreshes on its heartbeat cadence; :func:`read_status` and
:func:`render_status` are the consumer half, behind the
``repro-coherence status`` verb — a *different process* tailing the
snapshot and the sweep journal, which is exactly the interface a
long-running sweep service would expose.

Telemetry is strictly an observer: with no recorder attached the sweep
pays nothing, and with one attached the simulated counters are
bit-identical (``tests/test_telemetry.py`` proves both across every
protocol).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .probe import ChromeTraceSink

__all__ = [
    "CELL_STAGES",
    "SPAN_KINDS",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "attempt_scope",
    "read_status",
    "render_status",
    "stage",
    "stage_seconds",
    "write_status",
]

#: Every span kind the sweep hierarchy emits.  The first four are the
#: containment levels; the rest are instantaneous decision markers.
SPAN_KINDS = (
    "sweep",
    "cell",
    "attempt",
    "stage",
    "cache_hit",
    "reprice",
    "retry",
    "timeout",
    "fault",
)

#: The stage spans one cell attempt records, in the order it runs them.
CELL_STAGES = ("trace.generate", "core.simulate", "report")

#: Schema version stamped into status snapshots.
STATUS_SCHEMA_VERSION = 1

#: What a parent ships to a worker so the worker's spans join the tree:
#: ``(trace_id, parent_span_id)``.
SpanContext = Tuple[str, str]


def _token() -> str:
    """A 16-hex-char id, unique across processes (no clock involved)."""
    return os.urandom(8).hex()


@dataclass
class Span:
    """One finished (or in-flight) telemetry interval."""

    name: str
    kind: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    #: wall-clock start/end (``time.time()``), comparable across processes
    start_s: float
    end_s: float = 0.0
    #: OS pid of the process that recorded the span
    pid: int = 0
    #: Chrome-trace thread track hint (cells use their grid index)
    tid: int = 0
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pid": self.pid,
            "tid": self.tid,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Span":
        known = {name for name in cls.__dataclass_fields__}
        data = {key: value for key, value in payload.items() if key in known}
        data["attributes"] = dict(data.get("attributes") or {})
        return cls(**data)


class _ActiveSpan:
    """Context manager for an open span; usable as a parent immediately."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "SpanRecorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    @property
    def span_id(self) -> str:
        return self.span.span_id

    def end(self, **attributes: object) -> Span:
        return self._recorder.end(self, **attributes)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is not None:
            self.span.attributes.setdefault("error", True)
        self.end()


ParentLike = Union[None, str, Span, _ActiveSpan]


def _parent_id(parent: ParentLike) -> Optional[str]:
    if parent is None or isinstance(parent, str):
        return parent
    if isinstance(parent, _ActiveSpan):
        return parent.span.span_id
    return parent.span_id


class SpanRecorder:
    """Collects one process's finished spans; mergeable across processes.

    The parent sweep creates one (minting a fresh ``trace_id``); workers
    create theirs from the shipped :data:`SpanContext` so ids line up.
    Recording is append-only and allocation-light — the recorder is never
    consulted by the simulation, only written to.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else _token()
        self.spans: List[Span] = []

    # -- recording -------------------------------------------------------------

    def begin(
        self,
        name: str,
        kind: str,
        parent: ParentLike = None,
        tid: int = 0,
        **attributes: object,
    ) -> _ActiveSpan:
        """Open a span now; close it with ``.end()`` (or ``with``)."""
        if kind not in SPAN_KINDS:
            known = ", ".join(SPAN_KINDS)
            raise ValueError(f"unknown span kind {kind!r}; known: {known}")
        span = Span(
            name=name,
            kind=kind,
            trace_id=self.trace_id,
            span_id=_token(),
            parent_id=_parent_id(parent),
            start_s=time.time(),
            pid=os.getpid(),
            tid=tid,
            attributes=dict(attributes),
        )
        return _ActiveSpan(self, span)

    def span(
        self,
        name: str,
        kind: str,
        parent: ParentLike = None,
        tid: int = 0,
        **attributes: object,
    ) -> _ActiveSpan:
        """Alias of :meth:`begin` reading naturally in ``with`` statements."""
        return self.begin(name, kind, parent=parent, tid=tid, **attributes)

    def end(self, active: _ActiveSpan, **attributes: object) -> Span:
        span = active.span
        if span.end_s == 0.0:  # idempotent: manual end + __exit__ both call
            span.end_s = time.time()
            span.attributes.update(attributes)
            self.spans.append(span)
        return span

    def event(
        self,
        name: str,
        kind: str,
        parent: ParentLike = None,
        tid: int = 0,
        **attributes: object,
    ) -> Span:
        """Record an instantaneous marker span (cache_hit, retry, ...)."""
        active = self.begin(name, kind, parent=parent, tid=tid, **attributes)
        return self.end(active)

    # -- cross-process merge ---------------------------------------------------

    def serialized(self) -> List[dict]:
        """All finished spans as plain dicts (the result-pipe payload)."""
        return [span.to_dict() for span in self.spans]

    def ingest(self, payloads: Iterable[Mapping[str, object]]) -> int:
        """Fold spans serialised by another process into this recorder."""
        added = 0
        for payload in payloads:
            self.spans.append(Span.from_dict(payload))
            added += 1
        return added

    # -- export ----------------------------------------------------------------

    def write_chrome_trace(self, destination: Union[str, Path]) -> int:
        """Write every recorded span as a Chrome-trace file; returns #slices.

        One process track per OS pid (named after the root span recorded
        there), spans as complete slices with ``ts``/``dur`` in integer
        microseconds relative to the earliest span, ``cat`` = span kind.
        The output passes ``tools/validate_trace.py`` and loads in
        Perfetto next to per-reference traces.
        """
        if not self.spans:
            raise ValueError("no spans recorded; nothing to write")
        epoch = min(span.start_s for span in self.spans)
        pid_labels: Dict[int, str] = {}
        for span in self.spans:
            label = (
                f"sweep parent (pid {span.pid})"
                if span.kind == "sweep"
                else f"worker (pid {span.pid})"
            )
            if span.kind == "sweep" or span.pid not in pid_labels:
                pid_labels[span.pid] = label
        ordered = sorted(self.spans, key=lambda span: span.start_s)
        with ChromeTraceSink(destination) as sink:
            for pid in sorted(pid_labels):
                sink.track(pid_labels[pid], pid=pid)
            for span in ordered:
                args: Dict[str, object] = {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                }
                if span.parent_id is not None:
                    args["parent_id"] = span.parent_id
                args.update(span.attributes)
                sink.slice(
                    pid=span.pid,
                    tid=span.tid,
                    name=span.name,
                    ts=max(0, int((span.start_s - epoch) * 1e6)),
                    dur=max(0, int(span.duration_s * 1e6)),
                    cat=span.kind,
                    args=args,
                )
        return len(ordered)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanRecorder(trace_id={self.trace_id!r}, spans={len(self.spans)})"


# -- stages --------------------------------------------------------------------

#: ``(recorder, attempt span, tid)`` of the attempt running in this
#: context, or ``None`` when no recorder is watching.
_ATTEMPT: ContextVar[Optional[Tuple[SpanRecorder, _ActiveSpan, int]]] = (
    ContextVar("repro_attempt", default=None)
)


@contextmanager
def attempt_scope(
    recorder: Optional[SpanRecorder], span: Optional[_ActiveSpan], tid: int = 0
) -> Iterator[None]:
    """Hang every :func:`stage` opened in the block under ``span``.

    With ``recorder=None`` the block's stages record nothing, even when an
    enclosing scope has a recorder.
    """
    token = _ATTEMPT.set(None if recorder is None else (recorder, span, tid))
    try:
        yield
    finally:
        _ATTEMPT.reset(token)


def stage(name: str) -> ContextManager[object]:
    """A stage span under the current attempt; a no-op outside one."""
    current = _ATTEMPT.get()
    if current is None:
        return nullcontext()
    recorder, parent, tid = current
    return recorder.span(name, kind="stage", parent=parent, tid=tid)


def stage_seconds(spans: Sequence[Span], cell: Span) -> Dict[str, float]:
    """Where one cell span's wall time went, stage by stage.

    Sums the :data:`CELL_STAGES` spans under each of the cell's attempts,
    then adds ``other`` (the cell's time outside every stage: dispatch
    and, for a worker cell, its process spawn and result pipe) and
    ``total`` (the cell span's duration), so the stage rows and ``other``
    add up to ``total``.
    """
    attempts = {
        span.span_id
        for span in spans
        if span.kind == "attempt" and span.parent_id == cell.span_id
    }
    seconds = dict.fromkeys(CELL_STAGES, 0.0)
    for span in spans:
        if span.kind == "stage" and span.parent_id in attempts:
            seconds[span.name] = seconds.get(span.name, 0.0) + span.duration_s
    total = cell.duration_s
    seconds["other"] = max(0.0, total - sum(seconds.values()))
    seconds["total"] = total
    return seconds


# -- status snapshots ----------------------------------------------------------


def write_status(path: Union[str, Path], payload: Mapping[str, object]) -> None:
    """Atomically publish a status snapshot (tmp file + ``os.replace``).

    Readers (the ``status`` verb, a future service endpoint) always see a
    complete JSON document, never a torn write.  Failures are the
    caller's problem to degrade — the sweep loop logs-and-continues, a
    dead status file must never kill a live sweep.
    """
    path = Path(path)
    document = dict(payload)
    document.setdefault("schema", STATUS_SCHEMA_VERSION)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    os.replace(tmp, path)


def read_status(path: Union[str, Path]) -> Optional[dict]:
    """The snapshot at ``path``, or None when missing/torn (never raises)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def render_status(
    status: Mapping[str, object],
    journal_counts: Optional[Mapping[str, int]] = None,
) -> str:
    """A human-readable live view of one sweep's status snapshot."""

    def number(key: str, default: float = 0) -> float:
        value = status.get(key, default)
        return value if isinstance(value, (int, float)) else default

    state = str(status.get("state", "unknown"))
    age = max(0.0, time.time() - number("ts"))
    total = int(number("cells"))
    done = int(number("done"))
    ok = int(number("ok"))
    failed = int(number("failed"))
    running = int(number("running"))
    pending = int(number("pending", max(0, total - done - running)))
    percent = (100.0 * done / total) if total else 0.0
    lines = [
        f"sweep {status.get('sweep_id', '?')} — {state} "
        f"(pid {int(number('pid'))}, jobs {int(number('jobs', 1))}, "
        f"snapshot {age:.1f}s old)",
        f"cells: {done}/{total} done ({percent:.0f}%) — {ok} ok, "
        f"{failed} failed, {running} running, {pending} pending",
        f"work:  {int(number('simulated'))} simulated, "
        f"{int(number('cache_hits'))} cache hits, "
        f"{int(number('repriced'))} repriced, "
        f"{int(number('retries'))} retries, "
        f"{int(number('timeouts'))} timeouts",
    ]
    refs_line = (
        f"refs:  {int(number('references')):,} done — "
        f"{number('refs_per_sec'):,.0f} refs/sec"
    )
    eta = status.get("eta_s")
    if isinstance(eta, (int, float)):
        refs_line += f" — ETA {eta:.1f}s"
    lines.append(refs_line)
    lines.append(f"wall:  {number('wall_s'):.2f}s elapsed")
    if journal_counts is not None:
        lines.append(
            f"journal: {journal_counts.get('ok', 0)} ok, "
            f"{journal_counts.get('failed', 0)} failed cells recorded"
        )
    return "\n".join(lines)
