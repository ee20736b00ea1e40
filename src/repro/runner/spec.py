"""Sweep specifications: one cell of the experiment grid, hashable on disk.

A :class:`RunSpec` names everything that determines a simulation's outcome —
protocol, trace, scale, seed, cache count, block size, cache geometry,
sharing model, hardware characterization — and nothing that doesn't (worker
count, cache directory, progress hooks).  Two consequences fall out of that discipline:

* a spec can be shipped to a worker process and executed there with no
  shared state, and
* :meth:`RunSpec.cache_key` is a *complete* description of the result, so
  the on-disk cache can safely replay it.

The cache key hashes the spec's simulation parameters **plus the fully
resolved workload profile** (every calibrated field, including the seed and
scaled region sizes).  Recalibrating a workload therefore invalidates cached
results automatically; only genuinely identical runs hit.  A schema version
*and the package version* are folded in, so counting-semantics changes and
plain upgrades both retire stale caches — results pickled by an older
``repro`` install can never be served as warm hits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple, Union

from .._version import __version__ as PACKAGE_VERSION
from ..characterization import Characterization, load_characterization
from ..core.simulator import BACKENDS, SimulationResult, simulate
from ..interconnect.bus import BusCostModel, pipelined_bus
from ..memory.cache import CacheGeometry
from ..obs.telemetry import stage
from ..protocols.base import CoherenceProtocol
from ..protocols.registry import (
    PAPER_CORE_SCHEMES,
    PROTOCOLS,
    create_protocol,
    unknown_protocol_message,
)
from ..trace.packed import PackedTrace
from ..trace.record import DEFAULT_BLOCK_SIZE
from ..trace.stream import SharingModel
from ..trace.synthetic import SyntheticWorkload, WorkloadProfile
from ..trace.workloads import DEFAULT_SCALE, standard_profile, standard_trace_names

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "INFINITE_GEOMETRY",
    "RunSpec",
    "normalize_geometry",
    "sweep_grid",
]

#: Bump when counting semantics or the result format change, so previously
#: cached results stop matching.  (The package version is folded into the
#: key as well, so releases retire caches even without a schema bump.)
#: v3: the key grew a ``characterization=`` token (the content hash of the
#: spec's hardware characterization file, or ``none``).
CACHE_SCHEMA_VERSION = 3

#: Spec-string spellings of the paper's infinite caches.
INFINITE_GEOMETRY = "inf"
_INFINITE_SPELLINGS = frozenset({"", INFINITE_GEOMETRY, "infinite"})


def normalize_geometry(
    geometry: Union[None, str, CacheGeometry],
) -> Optional[str]:
    """Canonical geometry spec string: ``None`` for infinite, else "SETSxWAYS".

    Accepts ``None``, the spellings ``"inf"``/``"infinite"``/``""``, a
    spec string like ``"64x4"``, or a :class:`CacheGeometry` instance.
    Raises ``ValueError`` for anything unparsable.
    """
    if geometry is None:
        return None
    if isinstance(geometry, CacheGeometry):
        return geometry.spec
    text = str(geometry).strip().lower()
    if text in _INFINITE_SPELLINGS:
        return None
    return CacheGeometry.parse(text).spec


@dataclass(frozen=True)
class RunSpec:
    """One cell of a sweep: (protocol, trace, scale, config, geometry, seed).

    ``seed=None`` uses the trace's calibrated default seed; an explicit
    seed re-seeds the workload (the sweep's variance axis).  ``geometry``
    is a ``"SETSxWAYS"`` spec string (finite set-associative LRU caches) or
    ``None`` for the paper's infinite caches.  ``backend`` selects the
    simulation engine (``"reference"`` or ``"fast"``); the backends are
    counter-identical, but the cache key still embeds the backend so a
    regression in one can never serve cached results to the other.

    ``characterization`` names a hardware characterization (a bundled name
    like ``"pipelined"`` or a TOML/CSV path; see
    :mod:`repro.characterization`).  It is a *pricing* axis: simulated
    counters never depend on it, so the cache key embeds the file's
    **content hash** (keys change exactly when the file's content changes)
    while :meth:`base_cache_key` — the key with the axis cleared — stays
    shared across characterizations, which is what lets the sweep re-price
    one simulation under k hardware models.
    """

    protocol: str
    trace: str
    scale: float = DEFAULT_SCALE
    n_caches: int = 4
    block_size: int = DEFAULT_BLOCK_SIZE
    sharing_model: SharingModel = SharingModel.PROCESS
    seed: Optional[int] = None
    geometry: Optional[str] = None
    backend: str = "reference"
    characterization: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol", self.protocol.lower())
        object.__setattr__(self, "trace", self.trace.upper())
        if self.protocol not in PROTOCOLS:
            raise ValueError(unknown_protocol_message(self.protocol))
        if self.trace not in standard_trace_names():
            known = ", ".join(standard_trace_names())
            raise ValueError(f"unknown trace {self.trace!r}; known: {known}")
        if not 0 < self.scale < math.inf:  # also rejects NaN
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.n_caches <= 0:
            raise ValueError(f"n_caches must be positive, got {self.n_caches}")
        if self.block_size <= 0:
            raise ValueError(f"block_size must be positive, got {self.block_size}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        object.__setattr__(self, "geometry", normalize_geometry(self.geometry))
        if self.characterization is not None:
            # Fail fast (CharacterizationError is a ValueError) and pin the
            # content hash at construction, so a file edited mid-sweep cannot
            # smear two contents across one grid.
            object.__setattr__(
                self,
                "_characterization_hash",
                load_characterization(self.characterization).content_hash(),
            )

    # -- construction of the pieces -----------------------------------------

    def profile(self) -> WorkloadProfile:
        """The fully resolved workload profile this spec simulates."""
        return standard_profile(self.trace, scale=self.scale, seed=self.seed)

    def build_trace(self) -> PackedTrace:
        return SyntheticWorkload(self.profile()).packed()

    def build_protocol(self) -> CoherenceProtocol:
        return create_protocol(self.protocol, self.n_caches)

    def build_geometry(self) -> Optional[CacheGeometry]:
        """The parsed cache geometry, or ``None`` for infinite caches."""
        if self.geometry is None:
            return None
        return CacheGeometry.parse(self.geometry)

    def load_characterization(self) -> Optional[Characterization]:
        """The spec's hardware characterization, or ``None`` when unset."""
        if self.characterization is None:
            return None
        return load_characterization(self.characterization)

    def bus_model(self) -> BusCostModel:
        """The cost model this cell is priced under (pipelined default)."""
        loaded = self.load_characterization()
        return pipelined_bus() if loaded is None else loaded.bus_model()

    # -- identity ------------------------------------------------------------

    def characterization_hash(self) -> Optional[str]:
        """Content hash of the characterization, pinned at construction."""
        return getattr(self, "_characterization_hash", None)

    def base_spec(self) -> "RunSpec":
        """This spec with the pricing axis cleared.

        Two specs with the same base spec simulate identical counters — the
        paper's Section 4.1 frequency/cost independence — so the sweep
        engine simulates one and re-prices the rest.
        """
        if self.characterization is None:
            return self
        return replace(self, characterization=None)

    def as_dict(self) -> dict:
        """The spec as plain JSON-able data (manifests, ``--metrics-json``)."""
        return {
            "protocol": self.protocol,
            "trace": self.trace,
            "scale": self.scale,
            "n_caches": self.n_caches,
            "block_size": self.block_size,
            "sharing_model": self.sharing_model.value,
            "seed": self.seed,
            "geometry": self.geometry or INFINITE_GEOMETRY,
            "backend": self.backend,
            "characterization": self.characterization,
            "characterization_hash": self.characterization_hash(),
        }

    def cell_id(self) -> str:
        """Human-readable cell identity within a grid (fault-plan matching).

        Spells the axes a grid typically varies —
        ``protocol:TRACE:bBLOCK:gGEOMETRY:sharing:seedSEED`` — so fnmatch
        patterns like ``"dir0b:POPS:*"`` select cells without knowing the
        opaque :meth:`cache_key` hash.  Unlike the cache key it omits
        scale/versions and is **not** a replay identity.
        """
        seed = "cal" if self.seed is None else str(self.seed)
        return (
            f"{self.protocol}:{self.trace}:b{self.block_size}"
            f":g{self.geometry or INFINITE_GEOMETRY}"
            f":{self.sharing_model.value}:seed{seed}"
        )

    def _cache_token(self, characterization_hash: Optional[str]) -> str:
        return "|".join(
            (
                f"version={PACKAGE_VERSION}",
                f"schema={CACHE_SCHEMA_VERSION}",
                f"protocol={self.protocol}",
                f"n_caches={self.n_caches}",
                f"block_size={self.block_size}",
                f"geometry={self.geometry or INFINITE_GEOMETRY}",
                f"sharing={self.sharing_model.value}",
                f"backend={self.backend}",
                f"characterization={characterization_hash or 'none'}",
                f"profile={self.profile()!r}",
            )
        )

    def cache_key(self) -> str:
        """Stable content hash identifying this spec's result on disk.

        The characterization axis contributes its file's *content hash*, so
        renaming or moving a characterization file keeps cached results warm
        while editing any value inside it retires them.
        """
        token = self._cache_token(self.characterization_hash())
        return hashlib.sha256(token.encode("utf-8")).hexdigest()[:40]

    def base_cache_key(self) -> str:
        """The cache key with the pricing axis cleared (re-pricing identity).

        Every characterization of the same simulation shares this key; the
        sweep engine stores results under it (alongside the full key) so a
        later sweep with a brand-new characterization file still costs zero
        simulations.
        """
        token = self._cache_token(None)
        return hashlib.sha256(token.encode("utf-8")).hexdigest()[:40]

    # -- execution -----------------------------------------------------------

    def run(self, probe=None, traces=None) -> SimulationResult:
        """Simulate this cell from scratch (no result cache involved).

        ``probe`` is an optional :class:`~repro.obs.probe.ReferenceProbe`
        streaming the cell's per-reference events; it never changes the
        counted result.  ``traces`` is a ``{profile: trace}`` memo shared
        by the cells of one sweep: the trace is looked up by
        :meth:`profile`, the only input :meth:`build_trace` reads, and
        generated and stored on a miss.  Inside a traced sweep attempt,
        generation and the simulation record ``trace.generate`` and
        ``core.simulate`` stage spans; a memo hit records no
        ``trace.generate``.
        """
        traces = {} if traces is None else traces
        profile = self.profile()
        trace = traces.get(profile)
        if trace is None:
            with stage("trace.generate"):
                trace = traces[profile] = self.build_trace()
        with stage("core.simulate"):
            return simulate(
                self.build_protocol(),
                trace,
                trace_name=self.trace,
                block_size=self.block_size,
                sharing_model=self.sharing_model,
                geometry=self.build_geometry(),
                probe=probe,
                backend=self.backend,
            )


def sweep_grid(
    protocols: Sequence[str] = PAPER_CORE_SCHEMES,
    traces: Optional[Sequence[str]] = None,
    scale: float = DEFAULT_SCALE,
    n_caches: int = 4,
    block_sizes: Sequence[int] = (DEFAULT_BLOCK_SIZE,),
    geometries: Sequence[Union[None, str, CacheGeometry]] = (None,),
    sharing_models: Sequence[SharingModel] = (SharingModel.PROCESS,),
    seeds: Sequence[Optional[int]] = (None,),
    backend: str = "reference",
    characterizations: Sequence[Optional[str]] = (None,),
) -> List[RunSpec]:
    """The cross product of every sweep axis, in deterministic order.

    Axis order (outer to inner): protocol, trace, block size, geometry,
    sharing model, seed, characterization — so results group by protocol
    the way the paper's tables present them, and all pricings of one
    simulation sit adjacent (they share a :meth:`RunSpec.base_cache_key`
    and cost one simulation between them, see ``docs/characterization.md``).
    """
    if not protocols:
        raise ValueError("at least one protocol is required")
    if not characterizations:
        raise ValueError("at least one characterization (or None) is required")
    trace_names: Tuple[str, ...] = tuple(traces or standard_trace_names())
    return [
        RunSpec(
            protocol=protocol,
            trace=trace,
            scale=scale,
            n_caches=n_caches,
            block_size=block_size,
            sharing_model=sharing_model,
            seed=seed,
            geometry=geometry,
            backend=backend,
            characterization=characterization,
        )
        for protocol in protocols
        for trace in trace_names
        for block_size in block_sizes
        for geometry in geometries
        for sharing_model in sharing_models
        for seed in seeds
        for characterization in characterizations
    ]
