"""The trace-driven multiprocessor simulator (pipeline front-end).

One simulation run feeds every record of a multiprocessor trace through a
coherence protocol's state machine, classifying references into Table 4
events and tallying the primitive bus operations they cost.  Following the
paper's method (Section 4.1), hardware costs are *not* applied here — the
returned :class:`SimulationResult` carries raw counts, and any number of bus
models can be priced against it afterwards.

Sharing is classified at **process** level by default (one cache per
process, Section 4.4); pass ``SharingModel.PROCESSOR`` to key caches by CPU
instead.  Caches are infinite (the paper's methodology) unless a
``geometry`` is given, in which case a set-associative LRU stage injects
displacements (see :mod:`repro.core.pipeline`, which owns the single
reference-feed loop behind :func:`simulate`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..memory.cache import CacheGeometry
from ..protocols.base import CoherenceProtocol
from ..trace.record import DEFAULT_BLOCK_SIZE, TraceRecord
from ..trace.stream import SharingModel
from .pipeline import ReferencePipeline, SimulationResult

if TYPE_CHECKING:
    from ..obs.probe import ReferenceProbe

__all__ = [
    "BACKENDS",
    "SimulationResult",
    "make_pipeline",
    "simulate",
]

#: Selectable simulation backends (the ``--backend`` knob).
BACKENDS = ("reference", "fast")


def make_pipeline(
    backend: str,
    protocol: CoherenceProtocol,
    **kwargs,
):
    """Construct the pipeline implementing ``backend``.

    ``"reference"`` is the canonical per-reference loop
    (:class:`~repro.core.pipeline.ReferencePipeline`); ``"fast"`` is the
    table-driven backend (:class:`~repro.core.fastsim.FastPipeline`), which
    produces bit-identical counters and falls back to reference fidelity for
    configurations the table kernel cannot express.  Both accept the same
    keyword arguments.
    """
    if backend == "reference":
        return ReferencePipeline(protocol, **kwargs)
    if backend == "fast":
        from .fastsim import FastPipeline

        return FastPipeline(protocol, **kwargs)
    raise ValueError(
        f"unknown simulation backend {backend!r}; expected one of {BACKENDS}"
    )


def simulate(
    protocol: CoherenceProtocol,
    trace: Iterable[TraceRecord],
    trace_name: str = "trace",
    block_size: int = DEFAULT_BLOCK_SIZE,
    sharing_model: SharingModel = SharingModel.PROCESS,
    check_invariants_every: int = 0,
    geometry: Optional[CacheGeometry] = None,
    probe: Optional["ReferenceProbe"] = None,
    backend: str = "reference",
) -> SimulationResult:
    """Run ``protocol`` over ``trace`` and return the tallied result.

    Args:
        protocol: a freshly constructed protocol (its cache count bounds the
            number of distinct sharing units the trace may contain).
        trace: any iterable of trace records.
        trace_name: label carried into the result.
        block_size: bytes per block (the paper uses 16 throughout).
        sharing_model: classify sharing by process (paper default) or by
            processor.
        check_invariants_every: if positive, assert the single-writer
            invariant on the sharing table every N references (slow; meant
            for tests).
        geometry: finite-cache geometry; ``None`` (default) simulates the
            paper's infinite caches.
        probe: per-reference observer streaming protocol events to a sink
            (see :mod:`repro.obs.probe`); never affects the counted result.
        backend: ``"reference"`` (default) or ``"fast"`` — the table-driven
            backend, bit-identical on counters (see
            :mod:`repro.core.fastsim` and docs/performance.md).

    Raises:
        ValueError: if the trace contains more sharing units than the
            protocol has caches, or the backend name is unknown.
    """
    pipeline = make_pipeline(
        backend,
        protocol,
        geometry=geometry,
        block_size=block_size,
        sharing_model=sharing_model,
        check_invariants_every=check_invariants_every,
        probe=probe,
    )
    return pipeline.run(trace, trace_name)
