"""The per-reference probe API: stream protocol events out of the pipeline.

A probe receives every reference the :class:`~repro.core.pipeline.ReferencePipeline`
processes — the sharing unit, block, Table 4 event class, the primitive bus
operations it emitted, and the bus-cycle cost under a chosen cost model —
without perturbing the simulation.  Attach one by constructing the pipeline
with ``probe=...`` (or ``simulate(..., probe=...)``); with no probe attached
the hot loop pays a single ``is None`` check per reference, and the
benchmark suite guards that this stays under a few percent of throughput.

Two file sinks are included:

* :class:`JsonlSink` — one JSON object per reference, grep/jq-friendly;
* :class:`ChromeTraceSink` — Chrome trace format (the JSON
  ``{"traceEvents": [...]}`` flavour), loadable in ``chrome://tracing`` or
  `Perfetto <https://ui.perfetto.dev>`_.  Each simulation cell becomes a
  process track (``pid``), each sharing unit a thread track (``tid``); the
  timeline x-axis is the reference index and each slice's width is its
  bus-cycle cost, so expensive references are literally wider.

Sinks price ops with the pipelined bus by default; pass any
:class:`~repro.interconnect.bus.BusCostModel` to change that.  Events are
streamed to disk incrementally, so tracing multi-million-reference runs
does not buffer them in memory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, List, Optional, Tuple, Union

from ..interconnect.bus import BusCostModel, pipelined_bus
from ..protocols.base import AccessOutcome
from ..trace.record import AccessType

__all__ = [
    "ChromeTraceSink",
    "CollectingProbe",
    "JsonlSink",
    "ReferenceProbe",
]


class ReferenceProbe:
    """Base probe: override :meth:`on_reference`; close to flush resources.

    Probes are observers only — the pipeline's counters and protocol state
    are bit-identical with and without one attached.  The fast backend
    honours a probe by routing the run through its reference-fidelity path
    (correct, but forgoing the table kernel's speed).
    """

    def on_reference(
        self,
        index: int,
        unit: int,
        access: AccessType,
        block: int,
        outcome: AccessOutcome,
    ) -> None:
        """Called once per reference, after the pipeline fully processed it.

        ``index`` counts references seen by this probe, from 0.
        """

    def close(self) -> None:
        """Flush and release any resources (file handles)."""

    def __enter__(self) -> "ReferenceProbe":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CollectingProbe(ReferenceProbe):
    """Buffer every event in memory (tests and interactive inspection)."""

    def __init__(self) -> None:
        self.events: List[Tuple[int, int, AccessType, int, AccessOutcome]] = []

    def on_reference(
        self,
        index: int,
        unit: int,
        access: AccessType,
        block: int,
        outcome: AccessOutcome,
    ) -> None:
        self.events.append((index, unit, access, block, outcome))


def _priced(outcome: AccessOutcome, bus: BusCostModel) -> float:
    return sum(bus.cost_of(op) * count for op, count in outcome.ops)


class JsonlSink(ReferenceProbe):
    """One JSON object per reference, newline-delimited."""

    def __init__(
        self,
        destination: Union[str, Path, IO[str]],
        bus: Optional[BusCostModel] = None,
    ) -> None:
        if hasattr(destination, "write"):
            self._handle: IO[str] = destination  # type: ignore[assignment]
            self._owns_handle = False
        else:
            self._handle = Path(destination).open("w", encoding="utf-8")
            self._owns_handle = True
        self.bus = bus if bus is not None else pipelined_bus()

    def on_reference(
        self,
        index: int,
        unit: int,
        access: AccessType,
        block: int,
        outcome: AccessOutcome,
    ) -> None:
        record = {
            "i": index,
            "unit": unit,
            "access": access.name.lower(),
            "block": block,
            "event": outcome.event.value,
            "ops": {op.value: count for op, count in outcome.ops},
            "cycles": _priced(outcome, self.bus),
        }
        if outcome.invalidation_fanout is not None:
            record["fanout"] = outcome.invalidation_fanout
        self._handle.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()


class ChromeTraceSink:
    """Chrome-trace-format writer; cells become process tracks.

    Not itself a probe: call :meth:`cell` for a :class:`ReferenceProbe`
    bound to one simulation cell (one ``pid`` track), then :meth:`close`
    once to finalise the file.  A single-cell shortcut::

        with ChromeTraceSink("out.json") as sink:
            simulate(protocol, trace, probe=sink.cell("dir0b/POPS"))

    The sink is also the substrate for span-level telemetry
    (:mod:`repro.obs.telemetry`): :meth:`track` declares an arbitrary
    ``pid`` track (a real worker OS pid, say) and :meth:`slice` emits a
    complete event onto it, so per-reference probes and multi-process
    sweep spans share one file format and one validator
    (``tools/validate_trace.py``).
    """

    def __init__(
        self,
        destination: Union[str, Path],
        bus: Optional[BusCostModel] = None,
    ) -> None:
        self.path = Path(destination)
        self.bus = bus if bus is not None else pipelined_bus()
        self._handle: Optional[IO[str]] = self.path.open("w", encoding="utf-8")
        self._handle.write('{"traceEvents": [')
        self._first = True
        self._next_pid = 0

    def _emit(self, event: dict) -> None:
        if self._handle is None:
            raise ValueError(f"trace sink {self.path} is closed")
        if not self._first:
            self._handle.write(",\n")
        self._first = False
        self._handle.write(json.dumps(event))

    def track(self, label: str, pid: Optional[int] = None) -> int:
        """Declare (and name) a ``pid`` track; returns the pid used.

        With ``pid=None`` the next free small integer is assigned (the
        per-cell probe convention); an explicit pid — a worker OS pid, for
        span telemetry — is named verbatim.  Either way the
        ``process_name`` metadata event Perfetto needs is emitted exactly
        once per track.
        """
        if pid is None:
            pid = self._next_pid
            self._next_pid += 1
        self._emit(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        return pid

    def slice(
        self,
        pid: int,
        tid: int,
        name: str,
        ts: int,
        dur: float,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        """Emit one complete (``ph: "X"``) event onto a declared track."""
        event = {
            "name": name,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": pid,
            "tid": tid,
        }
        if cat is not None:
            event["cat"] = cat
        if args:
            event["args"] = args
        self._emit(event)

    def cell(self, label: str) -> "_ChromeCellProbe":
        """A probe streaming one simulation cell onto its own pid track."""
        return _ChromeCellProbe(self, self.track(label))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.write(']}\n')
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ChromeTraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _ChromeCellProbe(ReferenceProbe):
    """One cell's track: tid = sharing unit, ts = reference index, dur = cycles."""

    def __init__(self, sink: ChromeTraceSink, pid: int) -> None:
        self._sink = sink
        self._pid = pid

    def on_reference(
        self,
        index: int,
        unit: int,
        access: AccessType,
        block: int,
        outcome: AccessOutcome,
    ) -> None:
        cycles = _priced(outcome, self._sink.bus)
        event = {
            "name": outcome.event.value,
            "cat": access.name.lower(),
            "ph": "X",
            "ts": index,
            "dur": cycles,
            "pid": self._pid,
            "tid": unit,
            "args": {"block": block, "cycles": cycles},
        }
        if outcome.invalidation_fanout is not None:
            event["args"]["fanout"] = outcome.invalidation_fanout
        self._sink._emit(event)
