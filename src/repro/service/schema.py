"""The sweep service's wire contract: request schema and result payloads.

A sweep submitted over HTTP is a JSON document, validated here against a
**versioned** request schema before anything touches the runner::

    {
      "schema": 1,
      "idempotency_key": "client-retry-token",   // optional, <= 200 chars
      "sweep": {
        "protocols": ["dir0b", "dragon"],
        "traces": ["POPS"],            // default: all standard traces
        "scale": 512,                  // denominator, like the CLI --scale
        "n_caches": 4,
        "block_sizes": [16],
        "geometries": ["inf"],         // "SETSxWAYS" specs or "inf"
        "sharing": ["process"],
        "seeds": [null],               // null = the calibrated default seed
        "backend": "reference",
        "characterizations": [null]    // bundled names or server-side paths
      },
      "options": {
        "jobs": 1,                     // worker processes inside the sweep
        "retries": 0,
        "cell_timeout": null,
        "keep_going": true
      }
    }

:func:`parse_request` validates *everything* and collects every problem —
unknown fields, wrong types, unknown protocols (with the registry's
did-you-mean message), grids larger than the server's ``max_cells`` — into
one :class:`RequestError`, which the HTTP layer renders as a 422 with the
full ``details`` list.  A valid request becomes a :class:`SweepRequest`:
the resolved :class:`~repro.runner.spec.RunSpec` grid plus the runner
options, with :meth:`SweepRequest.sweep_key` as the dedupe identity (the
same grid hash the journal uses, so identical submissions collide no
matter how their axes were spelled).

:func:`report_payload` is the other direction: a finished
:class:`~repro.runner.sweep.SweepReport` as plain JSON, carrying each
cell's spec, provenance flags and **counter signature**
(:meth:`~repro.core.counters.SimulationCounters.signature`) — the same
canonical identity the backend-differential suite compares, so a client
can prove an HTTP-submitted sweep bit-identical to a local ``run_sweep``
of the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..protocols.registry import PROTOCOLS, unknown_protocol_message
from ..resilience.journal import SweepJournal
from ..runner.spec import RunSpec, normalize_geometry, sweep_grid
from ..runner.sweep import SweepReport
from ..trace.stream import SharingModel
from ..trace.workloads import standard_trace_names

__all__ = [
    "MAX_IDEMPOTENCY_KEY_LENGTH",
    "REQUEST_SCHEMA_VERSION",
    "RequestError",
    "SweepOptions",
    "SweepRequest",
    "parse_request",
    "report_payload",
    "validate_idempotency_key",
]

#: Bump when the request document's shape changes incompatibly.  Requests
#: naming a different version are rejected up front (422), never guessed at.
REQUEST_SCHEMA_VERSION = 1

#: Result-payload schema version stamped into ``report_payload`` documents.
RESULT_SCHEMA_VERSION = 1

#: Hard ceiling on a single request's grid unless the server lowers it.
DEFAULT_MAX_CELLS = 4096

_SWEEP_FIELDS = frozenset(
    {
        "protocols",
        "traces",
        "scale",
        "n_caches",
        "block_sizes",
        "geometries",
        "sharing",
        "seeds",
        "backend",
        "characterizations",
    }
)

_OPTION_FIELDS = frozenset({"jobs", "retries", "cell_timeout", "keep_going"})


class RequestError(ValueError):
    """An invalid sweep request: every problem found, as structured data.

    ``details`` is a list of ``{"field": <dotted path>, "error": <message>}``
    dicts — the HTTP layer ships it verbatim in the 422 body so a client
    can fix all its mistakes in one round trip.
    """

    def __init__(self, details: Sequence[Mapping[str, str]]) -> None:
        self.details: List[Dict[str, str]] = [dict(d) for d in details]
        summary = "; ".join(
            f"{d['field']}: {d['error']}" for d in self.details[:3]
        )
        if len(self.details) > 3:
            summary += f" (+{len(self.details) - 3} more)"
        super().__init__(f"invalid sweep request: {summary}")


@dataclass(frozen=True)
class SweepOptions:
    """Runner knobs a request may set (bounded by the server)."""

    jobs: int = 1
    retries: int = 0
    cell_timeout: Optional[float] = None
    keep_going: bool = True


#: Longest accepted client-supplied idempotency key.
MAX_IDEMPOTENCY_KEY_LENGTH = 200


@dataclass(frozen=True)
class SweepRequest:
    """A validated submission: the resolved grid plus runner options."""

    specs: Tuple[RunSpec, ...]
    options: SweepOptions
    #: Client-supplied retry token (body field or Idempotency-Key header):
    #: resubmissions carrying the same key return the original job, even a
    #: terminal one, instead of creating new work.  Not part of sweep_key().
    idempotency_key: Optional[str] = None

    def cache_keys(self) -> List[str]:
        return [spec.cache_key() for spec in self.specs]

    def sweep_key(self) -> str:
        """The grid's dedupe identity (the journal's sweep key)."""
        return SweepJournal.sweep_key(self.cache_keys())


class _Collector:
    """Accumulates validation errors with dotted field paths."""

    def __init__(self) -> None:
        self.details: List[Dict[str, str]] = []

    def error(self, field: str, message: str) -> None:
        self.details.append({"field": field, "error": message})

    def raise_if_any(self) -> None:
        if self.details:
            raise RequestError(self.details)


def _string_list(
    errors: _Collector, field: str, value: object, allow_none_items: bool = False
) -> Optional[List[Optional[str]]]:
    """``value`` as a non-empty list of strings (or None items), else None."""
    if not isinstance(value, (list, tuple)) or not value:
        errors.error(field, "must be a non-empty list")
        return None
    items: List[Optional[str]] = []
    for index, item in enumerate(value):
        if item is None and allow_none_items:
            items.append(None)
        elif isinstance(item, str):
            items.append(item)
        else:
            kind = "strings or nulls" if allow_none_items else "strings"
            errors.error(f"{field}[{index}]", f"must be a list of {kind}")
            return None
    return items


def _number(
    errors: _Collector,
    field: str,
    value: object,
    minimum: Optional[float] = None,
    integer: bool = False,
) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.error(field, "must be a number")
        return None
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond float range
        number = math.inf
    if not math.isfinite(number):  # json reads NaN and Infinity literals
        errors.error(field, "must be a finite number")
        return None
    if integer and not number.is_integer():
        errors.error(field, "must be an integer")
        return None
    if minimum is not None and number < minimum:
        errors.error(field, f"must be >= {minimum:g}")
        return None
    return number


def _parse_sweep_axes(errors: _Collector, sweep: Mapping[str, object]) -> dict:
    """Validate the ``sweep`` section into ``sweep_grid`` keyword arguments."""
    for key in sorted(set(sweep) - _SWEEP_FIELDS):
        errors.error(f"sweep.{key}", "unknown field")
    axes: dict = {}

    protocols = _string_list(errors, "sweep.protocols", sweep.get("protocols"))
    if protocols is not None:
        for index, name in enumerate(protocols):
            if name.lower() not in PROTOCOLS:
                errors.error(
                    f"sweep.protocols[{index}]", unknown_protocol_message(name)
                )
        axes["protocols"] = tuple(name.lower() for name in protocols)

    if "traces" in sweep:
        traces = _string_list(errors, "sweep.traces", sweep.get("traces"))
        if traces is not None:
            known = standard_trace_names()
            for index, name in enumerate(traces):
                if name.upper() not in known:
                    errors.error(
                        f"sweep.traces[{index}]",
                        f"unknown trace {name!r}; known: {', '.join(known)}",
                    )
            axes["traces"] = tuple(name.upper() for name in traces)

    denominator = _number(errors, "sweep.scale", sweep.get("scale", 16), minimum=1e-9)
    if denominator is not None:
        axes["scale"] = 1.0 / denominator

    n_caches = _number(
        errors, "sweep.n_caches", sweep.get("n_caches", 4), minimum=1, integer=True
    )
    if n_caches is not None:
        axes["n_caches"] = int(n_caches)

    block_sizes = sweep.get("block_sizes", [16])
    if not isinstance(block_sizes, (list, tuple)) or not block_sizes:
        errors.error("sweep.block_sizes", "must be a non-empty list")
    else:
        sizes = []
        for index, size in enumerate(block_sizes):
            parsed = _number(
                errors, f"sweep.block_sizes[{index}]", size, minimum=1, integer=True
            )
            if parsed is not None:
                sizes.append(int(parsed))
        axes["block_sizes"] = tuple(sizes)

    geometries = sweep.get("geometries", ["inf"])
    parsed_geometries = _string_list(
        errors, "sweep.geometries", geometries, allow_none_items=True
    )
    if parsed_geometries is not None:
        normalized = []
        for index, geometry in enumerate(parsed_geometries):
            try:
                normalized.append(normalize_geometry(geometry))
            except ValueError as error:
                errors.error(f"sweep.geometries[{index}]", str(error))
        axes["geometries"] = tuple(normalized)

    sharing = sweep.get("sharing", [SharingModel.PROCESS.value])
    parsed_sharing = _string_list(errors, "sweep.sharing", sharing)
    if parsed_sharing is not None:
        models = []
        known_models = ", ".join(model.value for model in SharingModel)
        for index, name in enumerate(parsed_sharing):
            try:
                models.append(SharingModel(name))
            except ValueError:
                errors.error(
                    f"sweep.sharing[{index}]",
                    f"unknown sharing model {name!r}; known: {known_models}",
                )
        axes["sharing_models"] = tuple(models)

    seeds = sweep.get("seeds", [None])
    if not isinstance(seeds, (list, tuple)) or not seeds:
        errors.error("sweep.seeds", "must be a non-empty list")
    else:
        parsed_seeds = []
        for index, seed in enumerate(seeds):
            if seed is None:
                parsed_seeds.append(None)
                continue
            value = _number(
                errors, f"sweep.seeds[{index}]", seed, minimum=0, integer=True
            )
            if value is not None:
                parsed_seeds.append(int(value))
        axes["seeds"] = tuple(parsed_seeds)

    backend = sweep.get("backend", "reference")
    if not isinstance(backend, str):
        errors.error("sweep.backend", "must be a string")
    else:
        axes["backend"] = backend

    characterizations = sweep.get("characterizations", [None])
    parsed_models = _string_list(
        errors, "sweep.characterizations", characterizations, allow_none_items=True
    )
    if parsed_models is not None:
        axes["characterizations"] = tuple(parsed_models)

    return axes


def _parse_options(
    errors: _Collector, options: Mapping[str, object], max_jobs: int
) -> SweepOptions:
    for key in sorted(set(options) - _OPTION_FIELDS):
        errors.error(f"options.{key}", "unknown field")
    jobs = _number(errors, "options.jobs", options.get("jobs", 1), 1, integer=True)
    if jobs is not None and jobs > max_jobs:
        errors.error("options.jobs", f"this server allows at most {max_jobs} jobs")
        jobs = None
    retries = _number(
        errors, "options.retries", options.get("retries", 0), 0, integer=True
    )
    cell_timeout: Optional[float] = None
    if options.get("cell_timeout") is not None:
        cell_timeout = _number(
            errors, "options.cell_timeout", options.get("cell_timeout"), 1e-9
        )
    keep_going = options.get("keep_going", True)
    if not isinstance(keep_going, bool):
        errors.error("options.keep_going", "must be a boolean")
        keep_going = True
    return SweepOptions(
        jobs=int(jobs) if jobs is not None else 1,
        retries=int(retries) if retries is not None else 0,
        cell_timeout=cell_timeout,
        keep_going=keep_going,
    )


def parse_request(
    payload: object,
    max_cells: int = DEFAULT_MAX_CELLS,
    max_jobs: int = 1,
) -> SweepRequest:
    """Validate one submission document into a :class:`SweepRequest`.

    Collects every validation problem before raising, so the 422 response
    names all of them.  ``max_cells`` bounds the resolved grid and
    ``max_jobs`` bounds ``options.jobs`` (both are server policy).
    """
    errors = _Collector()
    if not isinstance(payload, Mapping):
        errors.error("", "request body must be a JSON object")
        errors.raise_if_any()

    known_fields = {"schema", "sweep", "options", "idempotency_key"}
    for key in sorted(set(payload) - known_fields):
        errors.error(key, "unknown field")

    idempotency_key = payload.get("idempotency_key")
    if idempotency_key is not None:
        problem = validate_idempotency_key(idempotency_key)
        if problem is not None:
            errors.error("idempotency_key", problem)
            idempotency_key = None

    schema = payload.get("schema", REQUEST_SCHEMA_VERSION)
    if schema != REQUEST_SCHEMA_VERSION:
        errors.error(
            "schema",
            f"unsupported schema version {schema!r}; this server speaks "
            f"{REQUEST_SCHEMA_VERSION}",
        )

    sweep = payload.get("sweep")
    if not isinstance(sweep, Mapping):
        errors.error("sweep", "required and must be an object")
        errors.raise_if_any()

    options_section = payload.get("options", {})
    if not isinstance(options_section, Mapping):
        errors.error("options", "must be an object")
        options_section = {}

    axes = _parse_sweep_axes(errors, sweep)
    options = _parse_options(errors, options_section, max_jobs=max_jobs)
    errors.raise_if_any()

    try:
        specs = sweep_grid(**axes)
    except ValueError as error:
        # Axis values that validate individually but not jointly (e.g. a
        # characterization file the server cannot load).
        raise RequestError([{"field": "sweep", "error": str(error)}]) from None
    if len(specs) > max_cells:
        raise RequestError(
            [
                {
                    "field": "sweep",
                    "error": (
                        f"grid has {len(specs)} cells; this server allows "
                        f"at most {max_cells} per request"
                    ),
                }
            ]
        )
    return SweepRequest(
        specs=tuple(specs),
        options=options,
        idempotency_key=idempotency_key,
    )


def validate_idempotency_key(value: object) -> Optional[str]:
    """The problem with a client-supplied idempotency key, or None if fine.

    Shared by the body path (``parse_request``) and the header path
    (``Idempotency-Key``, validated in :meth:`JobManager.submit` before
    any parsing), so both spellings obey one contract.
    """
    if not isinstance(value, str):
        return "must be a string"
    if not value:
        return "must not be empty"
    if len(value) > MAX_IDEMPOTENCY_KEY_LENGTH:
        return f"must be at most {MAX_IDEMPOTENCY_KEY_LENGTH} characters"
    return None


def report_payload(report: SweepReport) -> dict:
    """A finished sweep as plain JSON: summary, metrics, per-cell signatures.

    The ``outcomes`` list is in spec order (the runner's determinism
    contract) and each successful cell carries the canonical counter
    signature, so bit-identity against a local run is a straight ``==``
    on this document's ``signature`` fields.
    """
    outcomes = []
    for outcome in report.outcomes:
        entry: dict = {
            "spec": outcome.spec.as_dict(),
            "cell_id": outcome.spec.cell_id(),
            "cache_key": outcome.spec.cache_key(),
            "ok": outcome.ok,
            "cached": outcome.cached,
            "repriced": outcome.repriced,
            "elapsed_s": outcome.elapsed,
        }
        if outcome.ok:
            entry["references"] = outcome.result.references
            entry["signature"] = outcome.result.counters.signature()
        else:
            entry["error"] = outcome.error.to_dict()
        outcomes.append(entry)
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "cells": report.cells,
        "simulated": report.simulations,
        "repriced": report.repricings,
        "cache_hits": report.cache_hits,
        "failures": len(report.failures),
        "wall_s": report.wall_time,
        "jobs": report.jobs,
        "total_references": report.total_references,
        "cell_table": report.cell_table(),
        "metrics": report.metrics_dict(),
        "outcomes": outcomes,
    }
