"""The benchmark's three workloads, driven through repro's public API.

Each workload builds its grid from the workload seed and runs one
*repetition* as timed passes over one cache:

* cold: every cell simulated into an empty cache;
* warm (:data:`SAMPLES` times): the identical grid again, every cell a
  cache hit;
* reprice (:data:`SAMPLES` times): the grid under a characterization the
  cache has not priced, every cell a base-key hit, a re-price and a
  write-back.

Every pass ends with a priced table, so a pass is the whole path from
specs to numbers.  The service workload's passes live in ``serving.py``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
from repro.characterization import BUILTIN_CHARACTERIZATIONS
from repro.interconnect import pipelined_bus
from repro.resilience import SweepJournal

#: Trace length: 1/128 of the paper's ~3.2M references (~25k per trace),
#: short enough that a run holds many cold passes to take the best of.
SCALE_DENOMINATOR = 128
SCALE = 1.0 / SCALE_DENOMINATOR
#: The seed the corpus was frozen at (and the ``--seed`` default).
DEFAULT_SEED = 1
TRACES = ("POPS", "THOR", "PERO")
#: Figure 2's schemes, in the paper's order.
CORE_SCHEMES = ("dir1nb", "wti", "dir0b", "dragon")
#: The six protocols the fast backend's table kernel cannot compile.
HOLDOUTS = ("dir2nb", "dir4nb", "coarse", "competitive", "competitive2", "competitive8")
#: A finite geometry small enough that the holdouts evict.
HOLDOUT_GEOMETRY = "8x4"
#: Generous per-cell budget; it is what routes every cell through the
#: cell executor's child process.
CELL_TIMEOUT = 120.0
#: The characterization the reprice passes switch to (renamed copies of it).
REPRICE_WITH = "non-pipelined"
#: Warm passes, and reprice passes, per repetition: each is short, so the
#: best of many samples is what holds still on a shared host.
SAMPLES = 32
#: Figure 2 of the paper: average pipelined-bus cycles per reference over
#: POPS, THOR and PERO (the values ``benchmarks/conftest.py`` checks).
PAPER_CYCLES_PIPELINED = {
    "dir1nb": 0.3210,
    "wti": 0.1466,
    "dir0b": 0.0491,
    "dragon": 0.0336,
}


def unwrapped(fn):
    """The default for a pass's ``wrap``: time the pass as it is."""
    return fn


def derive_seed(*parts: object) -> int:
    """A trace seed derived from ``parts``, stable across processes."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


def canonical(signature: dict) -> str:
    return json.dumps(signature, sort_keys=True, separators=(",", ":"))


def cpr_rel_err(cycles: Dict[Tuple[str, str], float]) -> float:
    """Largest relative error of a scheme's 3-trace mean against Figure 2."""
    worst = 0.0
    for scheme, paper in PAPER_CYCLES_PIPELINED.items():
        mean = sum(cycles[(scheme, trace)] for trace in TRACES) / len(TRACES)
        worst = max(worst, abs(mean - paper) / paper)
    return worst


@dataclass
class PassResult:
    """One timed pass: wall time plus what the correctness checks need."""

    seconds: float
    cells: int
    simulated: int
    simulated_refs: int
    #: cell id -> canonical counter signature
    signatures: Dict[str, str]
    #: (scheme, trace) -> pipelined cycles per reference
    cycles: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: service jobs only: (submitted, started, finished) wall clock
    job: Optional[Tuple[float, float, float]] = None
    requests: int = 0
    requests_failed: int = 0


@dataclass
class Repetition:
    """One cold pass, then warm and reprice passes over its cache."""

    cold: PassResult
    warm: List[PassResult]
    reprice: List[PassResult]

    @property
    def passes(self) -> List[PassResult]:
        return [self.cold, *self.warm, *self.reprice]

    @property
    def seconds(self) -> float:
        return sum(p.seconds for p in self.passes)


def reprice_characterizations(directory: Path, count: int = SAMPLES) -> List[str]:
    """``count`` copies of the non-pipelined model, distinct by version.

    Each copy prices identically but has its own content hash, so each is
    a characterization the cache has not priced yet: one reprice sample.
    """
    bundled = BUILTIN_CHARACTERIZATIONS[REPRICE_WITH].read_text(encoding="utf-8")
    if 'version = "1"' not in bundled:
        raise RuntimeError("the bundled non-pipelined model changed its version line")
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        path = directory / f"reprice-{index}.toml"
        path.write_text(
            bundled.replace('version = "1"', f'version = "1-reprice-{index}"'),
            encoding="utf-8",
        )
        paths.append(str(path))
    return paths


# -- runner workloads -------------------------------------------------------


def paper_grid_specs(seed: int, characterization: Optional[str] = None):
    """Figure 2's schemes x the three traces, infinite caches, fast backend."""
    return repro.sweep_grid(
        CORE_SCHEMES,
        traces=TRACES,
        scale=SCALE,
        seeds=(seed,),
        backend="fast",
        characterizations=(characterization,),
    )


def holdout_specs(seed: int, characterization: Optional[str] = None):
    """One cell per holdout, each on its own (trace, seed) pair."""
    return [
        repro.RunSpec(
            protocol=protocol,
            trace=TRACES[index % len(TRACES)],
            scale=SCALE,
            seed=derive_seed("holdouts-finite", seed, index),
            geometry=HOLDOUT_GEOMETRY,
            backend="fast",
            characterization=characterization,
        )
        for index, protocol in enumerate(HOLDOUTS)
    ]


class RunnerWorkload:
    """A grid swept inline by ``run_sweep`` exactly as ``sweep --cache-dir``."""

    def __init__(self, name: str, seed: int, characterizations: List[str]) -> None:
        self.name = name
        build = paper_grid_specs if name == "paper-grid" else holdout_specs
        self.specs = build(seed)
        self.reprice_specs = [build(seed, path) for path in characterizations]
        self.cell_timeout = CELL_TIMEOUT if name == "holdouts-finite" else None

    def open(self, directory: Path):
        """The cache and every pass's journal (opened outside the timing)."""
        cache = repro.ResultCache(directory)
        journals = [
            SweepJournal.for_sweep(directory, [s.cache_key() for s in specs])
            for specs in (self.specs, *self.reprice_specs)
        ]
        return cache, journals

    def _pass(self, specs, cache, journal, wrap=unwrapped) -> PassResult:
        def timed():
            report = repro.run_sweep(
                specs,
                jobs=1,
                cache=cache,
                journal=journal,
                cell_timeout=self.cell_timeout,
                keep_going=True,
            )
            report.pricing_table()
            return report

        timed = wrap(timed)
        start = time.perf_counter()
        report = timed()
        seconds = time.perf_counter() - start
        pipe = pipelined_bus()
        return PassResult(
            seconds=seconds,
            cells=report.cells,
            simulated=report.simulations,
            simulated_refs=report.simulated_references,
            signatures={
                o.spec.cell_id(): canonical(o.result.counters.signature())
                for o in report.successes
            },
            cycles={
                (o.spec.protocol, o.spec.trace): o.result.cycles_per_reference(pipe)
                for o in report.successes
            },
        )

    def repetition(self, directory: Path, wrap=unwrapped) -> Repetition:
        """Cold, warm and reprice passes; ``wrap`` wraps each timed region."""
        cache, (journal, *reprice_journals) = self.open(directory)
        return Repetition(
            cold=self._pass(self.specs, cache, journal, wrap),
            warm=[
                self._pass(self.specs, cache, journal, wrap) for _ in range(SAMPLES)
            ],
            reprice=[
                self._pass(specs, cache, reprice_journal, wrap)
                for specs, reprice_journal in zip(self.reprice_specs, reprice_journals)
            ],
        )


# -- correctness ------------------------------------------------------------


def corpus_summary(name: str, cold: PassResult) -> dict:
    """What the corpus freezes of a cold pass: signatures and cpr_rel_err."""
    return {
        "signatures": cold.signatures,
        "cpr_rel_err": None if name == "holdouts-finite" else cpr_rel_err(cold.cycles),
    }


def check_against_corpus(
    name: str, observed: dict, corpus: dict
) -> Tuple[int, List[str]]:
    """Failed cells, and every mismatch, of a corpus pass against the corpus.

    A cell fails when its signature differs from the frozen one, is
    missing, or is not in the corpus; a ``cpr_rel_err`` mismatch fails at
    least one cell.
    """
    frozen = corpus.get(name, {"signatures": {}, "cpr_rel_err": None})
    problems = []
    if not frozen["signatures"]:
        problems.append(f"{name}: the corpus has no cells for this workload")
    for cell, signature in frozen["signatures"].items():
        if observed["signatures"].get(cell) != signature:
            problems.append(f"{name}: {cell} signature differs from the corpus")
    for cell in set(observed["signatures"]) - set(frozen["signatures"]):
        problems.append(f"{name}: {cell} is not in the corpus")
    failed = len(problems)
    expected, got = frozen["cpr_rel_err"], observed["cpr_rel_err"]
    if (expected is None) != (got is None) or (
        expected is not None and abs(expected - got) > 1e-12
    ):
        problems.append(f"{name}: cpr_rel_err {got} differs from the corpus {expected}")
        failed = max(failed, 1)
    return failed, problems


def check_repetition(rep: Repetition, cells: int) -> Tuple[int, List[str]]:
    """Failed operations, and every problem, of one repetition.

    The cold pass must simulate every cell and the warm and reprice passes
    none, each with the cold pass's counters.  A pass fails each cell it
    lost, each cell whose counters differ and each simulation it should
    not have made (or missed), at most all of its cells; every failed HTTP
    request is one more failed operation.
    """
    failed = 0
    problems = []
    for label, expected, results in (
        ("cold", cells, [rep.cold]),
        ("warm", 0, rep.warm),
        ("reprice", 0, rep.reprice),
    ):
        for result in results:
            lost = max(cells - len(result.signatures), 0)
            differ = sum(
                1
                for cell, signature in result.signatures.items()
                if rep.cold.signatures.get(cell) != signature
            )
            wrong = abs(result.simulated - expected)
            if lost:
                problems.append(f"a {label} pass lost {lost} of {cells} cells")
            if differ:
                problems.append(
                    f"{differ} {label} pass counters differ from the cold pass"
                )
            if wrong:
                problems.append(
                    f"a {label} pass simulated {result.simulated} of {cells} cells"
                )
            if result.requests_failed:
                problems.append(
                    f"{result.requests_failed} requests of a {label} pass failed"
                )
            failed += min(cells, lost + differ + wrong) + result.requests_failed
    return failed, problems


def ready(name: str, directory: str, import_s: float) -> None:
    """Build a workload and open its stores, then report the import time.

    The benchmark runs this in a fresh interpreter (``SETUP_PROBE`` in
    ``run.py``) and times the launch up to the line this prints: import,
    grid construction with its characterization loads, and opening the
    cache and journals.
    """
    if name != "service-roundtrip":
        # What a user sets up: the grid and one re-pricing of it.
        models = reprice_characterizations(Path(directory), count=1)
        RunnerWorkload(name, DEFAULT_SEED, models).open(Path(directory))
    print(json.dumps({"import_s": import_s}), flush=True)
