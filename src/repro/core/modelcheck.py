"""Exhaustive model checking of coherence protocols on small configurations.

A breadth-first search drives the oracle-checked
:class:`~repro.core.pipeline.ReferencePipeline` through a read, a write and
an *eviction* by every cache of every block until no new state appears, so
there is no depth bound.  A state is each block's
:meth:`~repro.protocols.base.CoherenceProtocol.block_state` plus whether
memory holds its latest version (the oracle checks every held copy after
every step).  A finite cache reaches the protocol only through ``evict``,
so this alphabet covers every cache geometry.  Blocks are independent:
``n`` blocks reach the one-block state count to the power ``n``.  A
violation comes back as a shortest sequence, read off the parent links.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple, Union

from ..protocols.base import CoherenceProtocol
from ..trace.record import AccessType
from .counters import SimulationCounters
from .oracle import CoherenceViolation
from .pipeline import ReferencePipeline

__all__ = ["EVICT", "ModelCheckReport", "model_check"]

#: One step of a checked program: (cache, READ, WRITE or EVICT, block).
Step = Tuple[int, Union[AccessType, str], int]
EVICT = "evict"  # the step action that displaces the block from the cache

_LETTER = {AccessType.READ: "R", AccessType.WRITE: "W", EVICT: "E"}


@dataclass(frozen=True)
class ModelCheckReport:
    """Outcome of an exhaustive search."""

    protocol: str
    n_caches: int
    n_blocks: int
    states: int
    edges: int
    counterexample: Optional[Sequence[Step]]
    error: Optional[str]

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def render(self) -> str:
        verdict = "OK" if self.ok else f"VIOLATION: {self.error}"
        text = (
            f"{self.protocol}: caches={self.n_caches} blocks={self.n_blocks} "
            f"-> {self.states} states, {self.edges} edges: {verdict}"
        )
        if self.counterexample:
            pretty = ", ".join(
                f"P{cache}{_LETTER[action]}b{block}"
                for cache, action, block in self.counterexample
            )
            text += f"\n  counterexample: {pretty}"
        return text


def _state_key(pipeline: ReferencePipeline, n_blocks: int) -> Hashable:
    protocol, oracle = pipeline.protocol, pipeline.oracle
    return tuple(
        (protocol.block_state(block), oracle.memory_current(block))
        for block in range(n_blocks)
    )


def _take(
    pipeline: ReferencePipeline, step: Step, counters: SimulationCounters
) -> None:
    """Apply one step, then check that every held copy is current."""
    cache, action, block = step
    if action is EVICT:
        for op, count in pipeline.oracle.evict(cache, block):
            counters.ops.add(op, count)
    else:
        pipeline.step(cache, action, block, counters)
    pipeline.oracle.check_all_copies()


def _path(parents: Dict, key: Hashable) -> Tuple[Step, ...]:
    """A shortest step sequence from the initial state to ``key``."""
    steps = []
    while parents[key] is not None:
        key, step = parents[key]
        steps.append(step)
    return tuple(reversed(steps))


def _explore(
    protocol_factory: Callable[[int], CoherenceProtocol],
    n_caches: int,
    n_blocks: int = 1,
    *,
    evictions: bool = True,
    companion: object = None,
) -> Tuple[ModelCheckReport, Dict[Hashable, Optional[Tuple[Hashable, Step]]]]:
    """Breadth-first search of every reachable state.

    Returns the report and the parent links (state key -> ``(parent key,
    step)``, ``None`` for the initial state).  A ``companion`` is copied
    with each state and, on every edge, given ``companion.step(step,
    counters)`` with the reference's counters: a differential check.
    """
    if n_caches < 1 or n_blocks < 1:
        raise ValueError("n_caches and n_blocks must both be >= 1")
    actions = (AccessType.READ, AccessType.WRITE) + ((EVICT,) if evictions else ())
    alphabet = list(itertools.product(range(n_caches), actions, range(n_blocks)))
    protocol = protocol_factory(n_caches)
    root = ReferencePipeline(protocol, check_values=True)
    parents = {_state_key(root, n_blocks): None}
    frontier = deque([(_state_key(root, n_blocks), (root, companion))])
    edges, counterexample, error = 0, None, None
    while frontier and counterexample is None:
        key, node = frontier.popleft()
        for step in alphabet:
            pipeline, beside = child = copy.deepcopy(node)
            counters = SimulationCounters()
            edges += 1
            try:
                _take(pipeline, step, counters)
            except CoherenceViolation as violation:
                counterexample, error = _path(parents, key) + (step,), str(violation)
                break
            if beside is not None:
                beside.step(step, counters)
            child_key = _state_key(pipeline, n_blocks)
            if child_key not in parents:
                parents[child_key] = (key, step)
                frontier.append((child_key, child))
    report = ModelCheckReport(
        protocol.name, n_caches, n_blocks, len(parents), edges, counterexample, error
    )
    return report, parents


def model_check(
    protocol_factory: Callable[[int], CoherenceProtocol],
    n_caches: int = 2,
    n_blocks: int = 1,
) -> ModelCheckReport:
    """Verify coherence over every state reachable on a small machine.

    ``report.ok`` is False iff some sequence of reads, writes and evictions
    made a cache observe stale data; ``report.counterexample`` is then a
    shortest such sequence.
    """
    return _explore(protocol_factory, n_caches, n_blocks)[0]
