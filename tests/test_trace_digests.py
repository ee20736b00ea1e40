"""Frozen trace-digest corpus: the generator's exact output, pinned.

Every simulated number in the reproduction starts from the synthetic
generator, so its output is pinned reference by reference: for each case
below, the SHA-256 of ``(cpu, pid, int(access), address, is_lock_spin,
is_os)`` over the whole record stream must match
``tests/golden/trace_digests.json``.  A change to the generator's random
draw order, its interleave, or how a record's fields are filled in fails
here even when the resulting event frequencies happen to agree.

The cases cover the three calibrated profiles at two scales under their
calibrated seed and three others, plus hand-made profiles that reach the
generator paths the calibrated ones barely touch: extra instruction fetches,
frequent migration, more processes than processors, a single process, and
barrier- and OS-heavy mixes.

To bless an intentional generator change::

    PYTHONPATH=src python -m pytest tests/test_trace_digests.py \
        --update-golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, Optional

import pytest

from repro.trace.record import TraceRecord
from repro.trace.synthetic import SyntheticWorkload, WorkloadProfile
from repro.trace.workloads import standard_profile

CORPUS_PATH = Path(__file__).parent / "golden" / "trace_digests.json"

TRACES = ("POPS", "THOR", "PERO")
#: ``None`` is each profile's calibrated seed.
SEEDS = (None, 1, 2, 1988)
SCALES = (512, 128)

#: Hand-made profiles, keyed by the case name stored in the corpus.
CUSTOM = {
    "extra-instr": WorkloadProfile(
        name="custom", length=6_000, seed=7, extra_instr_per_data=1.5
    ),
    "migration": WorkloadProfile(
        name="custom", length=6_000, seed=8, migration_rate=0.05
    ),
    "six-on-four": WorkloadProfile(
        name="custom", length=6_000, seed=9, processes=6, processors=4
    ),
    "one-process": WorkloadProfile(name="custom", length=6_000, seed=10, processes=1),
    "barrier-os": WorkloadProfile(
        name="custom",
        length=6_000,
        seed=11,
        w_barrier=5.0,
        os_activity_fraction=0.5,
    ),
    "neutral": WorkloadProfile(name="custom", length=6_000, seed=12),
}


def _standard_key(trace: str, seed: Optional[int], scale: int) -> str:
    return f"{trace}:s{'calibrated' if seed is None else seed}:1/{scale}"


def _profiles() -> Dict[str, WorkloadProfile]:
    profiles = {
        _standard_key(trace, seed, scale): standard_profile(
            trace, scale=1 / scale, seed=seed
        )
        for trace in TRACES
        for seed in SEEDS
        for scale in SCALES
    }
    profiles.update(CUSTOM)
    return profiles


def digest(records: Iterable[TraceRecord]) -> dict:
    """SHA-256 and length of a record stream's identifying fields."""
    sha = hashlib.sha256()
    count = 0
    for r in records:
        sha.update(
            b"%d,%d,%d,%d,%d,%d\n"
            % (r.cpu, r.pid, int(r.access), r.address, r.is_lock_spin, r.is_os)
        )
        count += 1
    return {"refs": count, "sha256": sha.hexdigest()}


@pytest.fixture(scope="module")
def corpus(request) -> Dict[str, dict]:
    if request.config.getoption("--update-golden"):
        snapshot = {
            "_meta": {
                "fields": "cpu,pid,int(access),address,is_lock_spin,is_os",
                "note": "regenerate with pytest --update-golden",
            },
            "digests": {
                key: digest(SyntheticWorkload(profile).records())
                for key, profile in sorted(_profiles().items())
            },
        }
        CORPUS_PATH.write_text(
            json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    if not CORPUS_PATH.exists():
        pytest.fail(
            f"missing trace-digest corpus {CORPUS_PATH}; generate it with "
            "pytest --update-golden"
        )
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))["digests"]


@pytest.mark.parametrize("key", sorted(_profiles()))
def test_trace_matches_corpus(key, corpus):
    assert key in corpus, f"{key} has no corpus entry; rerun --update-golden"
    found = digest(SyntheticWorkload(_profiles()[key]).records())
    assert found == corpus[key], f"{key}: the generated trace drifted"


def test_corpus_covers_the_cases(corpus):
    assert set(corpus) == set(_profiles())
