"""Trace streams and the transforms the paper's methodology applies to them.

A *trace* is any iterable of :class:`~repro.trace.record.TraceRecord`.  The
helpers here implement the trace-level decisions described in Section 4.4 of
the paper:

* **Sharing classification** — the paper considers *process* sharing rather
  than *processor* sharing: a block counts as shared only if more than one
  process touches it.  :class:`SharingModel` names the choice; the
  simulator keeps one cache per sharing unit and assigns the dense cache
  indices itself (:meth:`repro.core.pipeline.ReferencePipeline.resolve_unit`).
* **Lock-test exclusion** — the Section 5.2 experiment re-runs the
  simulations "excluding all the tests on locks"; :func:`exclude_lock_spins`
  drops exactly those records.
* Miscellaneous utilities: truncation, materialisation, round-robin
  interleaving of per-processor streams.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Iterator, List, Sequence

from .record import TraceRecord

__all__ = [
    "SharingModel",
    "Trace",
    "exclude_lock_spins",
    "exclude_os",
    "take",
    "materialize",
    "interleave",
]


class SharingModel(enum.Enum):
    """How references are grouped into caches for sharing classification.

    The paper (Section 4.4) uses ``PROCESS`` sharing: "a block is considered
    shared only if it is accessed by more than one process", excluding the
    sharing induced purely by process migration.  ``PROCESSOR`` sharing keys
    caches by physical CPU instead; the paper reports that the two give
    similar numbers on its traces because migration is rare.
    """

    PROCESS = "process"
    PROCESSOR = "processor"


#: A trace is any iterable of records.
Trace = Iterable[TraceRecord]


def exclude_lock_spins(trace: Trace) -> Iterator[TraceRecord]:
    """Drop spin reads on locks (the Section 5.2 experiment).

    Only the *test* reads of test-and-test-and-set loops are removed; the
    test-and-set write and all other references survive.
    """
    return (record for record in trace if not record.is_lock_spin)


def exclude_os(trace: Trace) -> Iterator[TraceRecord]:
    """Drop operating-system references, leaving the pure user-mode trace."""
    return (record for record in trace if not record.is_os)


def take(trace: Trace, n: int) -> Iterator[TraceRecord]:
    """First ``n`` records of a trace."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return itertools.islice(iter(trace), n)


def materialize(trace: Trace) -> List[TraceRecord]:
    """Force a lazy trace into a list (useful for multi-protocol reuse)."""
    return list(trace)


def interleave(
    streams: Sequence[Iterable[TraceRecord]],
    run_lengths: Iterable[int],
) -> Iterator[TraceRecord]:
    """Interleave per-processor streams into one global trace.

    ``run_lengths`` supplies, for each scheduling turn, how many consecutive
    references the currently selected stream contributes before the scheduler
    rotates to the next stream.  Exhausted streams are skipped; iteration ends
    when every stream is exhausted.  Program order within each stream is
    preserved, which is all that trace-driven simulation requires.
    """
    iterators: List[Iterator[TraceRecord]] = [iter(s) for s in streams]
    alive = list(range(len(iterators)))
    lengths = iter(run_lengths)
    position = 0
    while alive:
        if position >= len(alive):
            position = 0
        index = alive[position]
        try:
            run = next(lengths)
        except StopIteration:
            run = 1
        emitted = 0
        exhausted = False
        while emitted < max(1, run):
            try:
                yield next(iterators[index])
            except StopIteration:
                exhausted = True
                break
            emitted += 1
        if exhausted:
            alive.pop(position)
        else:
            position += 1
