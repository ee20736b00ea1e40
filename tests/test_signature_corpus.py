"""Frozen counter-signature corpus: every protocol, both backends.

Each registered protocol is simulated over the three standard traces
(POPS, THOR, PERO at 1/256 scale) under the paper's infinite caches and a
finite 8-set, 4-way LRU geometry with 4 caches, and its full
:meth:`~repro.core.counters.SimulationCounters.signature` is compared
against ``tests/golden/signatures.json``.  The corpus is wider than the
golden regression (one 4,000-reference trace) and the benchmark corpus
(10 protocols): it pins events, bus-op multisets, transactions, the
Figure 1 fan-out histogram, and eviction counts for all 21 schemes.

Both backends must reproduce the *same* committed corpus, so a change to
how the fast backend derives its transition tables cannot drift from the
reference pipeline unnoticed.

To bless an intentional counting change::

    PYTHONPATH=src python -m pytest tests/test_signature_corpus.py \
        --update-golden

which rewrites the corpus from the reference backend.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core.simulator import simulate
from repro.memory.cache import CacheGeometry
from repro.protocols.registry import create_protocol, protocol_names
from repro.trace.record import TraceRecord
from repro.trace.synthetic import SyntheticWorkload
from repro.trace.workloads import standard_profile

CORPUS_PATH = Path(__file__).parent / "golden" / "signatures.json"

TRACES = ("POPS", "THOR", "PERO")
SCALE = 1 / 256
N_CACHES = 4
#: ``None`` is the paper's infinite caches; "8x4" is small enough that
#: every cell evicts.
GEOMETRIES = (None, "8x4")
BACKENDS = ("reference", "fast")
ALL_PROTOCOLS = sorted(protocol_names())


def _cell_key(protocol: str, trace: str, geometry) -> str:
    return f"{protocol}:{trace}:g{geometry or 'inf'}"


@pytest.fixture(scope="module")
def traces() -> Dict[str, List[TraceRecord]]:
    return {
        name: list(SyntheticWorkload(standard_profile(name, scale=SCALE)).records())
        for name in TRACES
    }


def _signatures(protocol: str, traces, backend: str) -> Dict[str, dict]:
    cells = {}
    for trace in TRACES:
        for geometry in GEOMETRIES:
            result = simulate(
                create_protocol(protocol, N_CACHES),
                traces[trace],
                trace_name=trace,
                geometry=None if geometry is None else CacheGeometry.parse(geometry),
                backend=backend,
            )
            cells[_cell_key(protocol, trace, geometry)] = result.counters.signature()
    return cells


@pytest.fixture(scope="module")
def corpus(request, traces) -> Dict[str, dict]:
    if request.config.getoption("--update-golden"):
        signatures = {}
        for protocol in ALL_PROTOCOLS:
            signatures.update(_signatures(protocol, traces, "reference"))
        snapshot = {
            "_meta": {
                "traces": list(TRACES),
                "scale": SCALE,
                "n_caches": N_CACHES,
                "geometries": [geometry or "inf" for geometry in GEOMETRIES],
                "note": "regenerate with pytest --update-golden",
            },
            "signatures": signatures,
        }
        CORPUS_PATH.write_text(
            json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    if not CORPUS_PATH.exists():
        pytest.fail(
            f"missing signature corpus {CORPUS_PATH}; generate it with "
            "pytest --update-golden"
        )
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))["signatures"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_signatures_match_corpus(protocol, backend, traces, corpus):
    for key, signature in _signatures(protocol, traces, backend).items():
        assert key in corpus, f"{key} has no corpus entry; rerun --update-golden"
        assert signature == corpus[key], f"{key} drifted on the {backend} backend"


def test_corpus_covers_the_grid(corpus):
    """Every protocol x trace x geometry cell is pinned, and nothing else."""
    expected = {
        _cell_key(protocol, trace, geometry)
        for protocol in ALL_PROTOCOLS
        for trace in TRACES
        for geometry in GEOMETRIES
    }
    assert set(corpus) == expected


def test_finite_cells_evict(corpus):
    """The finite geometry is small enough to exercise eviction everywhere."""
    for key, signature in corpus.items():
        if key.endswith(":g8x4"):
            assert signature["evictions"] > 0, key
        else:
            assert signature["evictions"] == 0, key
