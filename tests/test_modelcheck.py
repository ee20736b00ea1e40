"""Tests for the reachable-state coherence model checker."""

import copy
import itertools
import random
from collections import deque
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulationCounters
from repro.core.modelcheck import EVICT, _explore, _path, _state_key, _take, model_check
from repro.core.oracle import CoherenceViolation
from repro.core.pipeline import ReferencePipeline
from repro.protocols import create_protocol, protocol_names
from repro.protocols.base import NO_OPS, AccessOutcome
from repro.protocols.directory.dir0b import Dir0B
from repro.protocols.events import Event
from repro.trace.record import AccessType

#: Reachable single-block states with evictions at 2 and 3 caches: a search
#: that stops early, or a change to what a protocol can reach, shows here.
STATES = {
    "berkeley": (9, 21),
    "coarse": (11, 26),
    "competitive": (27, 174),
    "competitive2": (15, 54),
    "competitive8": (51, 630),
    "dir0b": (7, 12),
    "dir1b": (7, 12),
    "dir1nb": (6, 8),
    "dir2b": (7, 12),
    "dir2nb": (8, 14),
    "dir4b": (7, 12),
    "dir4nb": (8, 20),
    "dirnnb": (7, 12),
    "dragon": (9, 21),
    "firefly": (7, 12),
    "illinois": (9, 15),
    "softflush": (6, 8),
    "tang": (7, 12),
    "writeonce": (9, 15),
    "wti": (5, 9),
    "yenfu": (9, 15),
}
R, W = AccessType.READ, AccessType.WRITE
ALPHABET = {n: [(c, a, 0) for c in range(n) for a in (R, W, EVICT)] for n in (2, 3)}


def _run(factory, n_caches, steps):
    pipeline = ReferencePipeline(factory(n_caches), check_values=True)
    for step in steps:
        _take(pipeline, step, SimulationCounters())
    return pipeline


@pytest.mark.parametrize("n_caches", (2, 3))
@pytest.mark.parametrize("name", protocol_names())
def test_every_reachable_state_is_coherent(name, n_caches):
    report = model_check(partial(create_protocol, name), n_caches=n_caches)
    assert report.ok, report.render()
    assert report.states == STATES[name][n_caches - 2]
    assert report.edges == report.states * 3 * n_caches


@pytest.mark.parametrize("name", protocol_names())
def test_blocks_are_independent(name):
    report = model_check(partial(create_protocol, name), n_blocks=2)
    assert report.ok and report.states == STATES[name][0] ** 2


@lru_cache(maxsize=None)
def _parents(name):
    return _explore(partial(create_protocol, name), 3)[1]


#: Pairs of bookkeeping marks whose every successor a passing walk has
#: checked, per protocol; later examples skip them.
_WALKED = {}


def _frozen(value):
    """A hashable copy of a protocol attribute, nested containers included."""
    if isinstance(value, dict):
        return frozenset((key, _frozen(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(map(_frozen, value))
    if isinstance(value, set):
        return frozenset(value)
    slots = getattr(type(value), "__slots__", ())
    if slots:  # SharingTable, DigitCode
        return tuple(_frozen(getattr(value, name)) for name in slots)
    return value


def _mark(pipeline):
    """The protocol's bookkeeping and memory's freshness, read without
    ``block_state`` (the code under test).  Int attributes are parameters
    or tallies that grow without bound, and the RNG of DiriNB's random
    policy is not used by the registered (fifo) protocols; both are left
    out so that a walk ends."""
    bookkeeping = tuple(
        (name, _frozen(value))
        for name, value in vars(pipeline.protocol).items()
        if not isinstance(value, (int, random.Random))
    )
    return bookkeeping, pipeline.oracle.memory_current(0)


def _walk_in_step(name, first, second):
    """Step two pipelines side by side until no new pair of bookkeeping
    marks appears, requiring one key and one signature at every step.

    Pairs are told apart by :func:`_mark`, not by the key, so a key that
    forgets state cannot cut the walk short.  A walk's pairs count as
    walked only once it passes, so a failing example fails again when
    hypothesis replays it.
    """
    walked = _WALKED.setdefault(name, set())
    seen = {(_mark(first), _mark(second))} - walked
    frontier = deque([(first, second)] if seen else [])
    while frontier:
        pair = frontier.popleft()
        for step in ALPHABET[3]:
            futures = []
            children = copy.deepcopy(pair)
            for pipeline in children:
                counters = SimulationCounters()
                _take(pipeline, step, counters)
                futures.append((_state_key(pipeline, 1), counters.signature()))
            assert futures[0] == futures[1], step
            marks = tuple(map(_mark, children))
            if marks not in seen and marks not in walked:
                seen.add(marks)
                frontier.append(children)
    walked |= seen


@pytest.mark.parametrize("name", protocol_names())
@settings(max_examples=25, deadline=None)
@given(steps=st.lists(st.sampled_from(ALPHABET[3]), max_size=12))
def test_equal_keys_mean_equal_futures(name, steps):
    """The state key is sound: a drawn sequence and the explorer's shortest
    path to the same key, stepped alike, agree on every later key and
    counter signature."""
    drawn = _run(partial(create_protocol, name), 3, steps)
    path = _path(_parents(name), _state_key(drawn, 1))
    shortest = _run(partial(create_protocol, name), 3, path)
    _walk_in_step(name, drawn, shortest)


class _SkipsInvalidation(Dir0B):  # two-party bug: no sharer is invalidated
    name = "broken"

    def _write_hit_clean(self, cache, block):
        self.sharing.set_dirty(block, cache)
        return AccessOutcome(event=Event.WH_BLK_CLEAN, invalidation_fanout=0)


class _InvalidatesTheWrongSharer(_SkipsInvalidation):  # a three-party bug
    name = "broken-wrong-sharer"

    def _write_hit_clean(self, cache, block):
        remote = self.sharing.remote_holders(block, cache)
        if remote:  # only the lowest-indexed sharer; the others stay stale
            self.sharing.remove_holder(block, (remote & -remote).bit_length() - 1)
        return super()._write_hit_clean(cache, block)


class _DropsDirtyVictims(Dir0B):  # a dirty victim leaves without WRITE_BACK
    name = "broken-dirty-evict"

    def evict(self, cache, block):
        super().evict(cache, block)
        return NO_OPS


@pytest.mark.parametrize(
    "protocol, n_caches, shortest",
    [
        (_SkipsInvalidation, 2, ((0, R, 0), (1, R, 0), (0, W, 0))),
        (_InvalidatesTheWrongSharer, 3, ((0, R, 0), (1, R, 0), (2, R, 0), (0, W, 0))),
        (_DropsDirtyVictims, 2, ((0, W, 0), (0, EVICT, 0), (0, R, 0))),
    ],
)
def test_bugs_are_found_with_a_shortest_counterexample(protocol, n_caches, shortest):
    report = model_check(protocol, n_caches=n_caches)
    assert report.counterexample == shortest and "version" in report.error
    with pytest.raises(CoherenceViolation):
        _run(protocol, n_caches, shortest)
    for length in range(len(shortest)):
        for steps in itertools.product(ALPHABET[n_caches], repeat=length):
            _run(protocol, n_caches, steps)


def test_bugs_hidden_from_smaller_searches():
    assert model_check(_InvalidatesTheWrongSharer, n_caches=2).ok  # one sharer
    assert all(_explore(_DropsDirtyVictims, n, evictions=False)[0].ok for n in (2, 3))


def test_render_and_validation():
    assert "P0Wb0, P0Eb0, P0Rb0" in model_check(_DropsDirtyVictims).render()
    assert "7 states, 42 edges: OK" in model_check(Dir0B).render()
    for config in ({"n_caches": 0}, {"n_blocks": 0}):
        with pytest.raises(ValueError):
            model_check(Dir0B, **config)
