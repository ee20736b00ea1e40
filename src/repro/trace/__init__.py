"""Trace substrate: records, streams, file formats, and synthetic workloads.

This package provides everything the simulator consumes:

* :mod:`repro.trace.record` — the :class:`TraceRecord` unit and access types;
* :mod:`repro.trace.packed` — :class:`PackedTrace`, the column form the
  generator writes and the fast backend decodes;
* :mod:`repro.trace.stream` — the methodology transforms (sharing model,
  lock-test exclusion, interleaving);
* :mod:`repro.trace.stats` — trace characterisation (paper Table 3);
* :mod:`repro.trace.atum` — ATUM-style trace file formats for real traces;
* :mod:`repro.trace.synthetic` — the parallel-workload engine;
* :mod:`repro.trace.workloads` — calibrated POPS / THOR / PERO profiles.
"""

from .classify import (
    BlockClass,
    BlockProfile,
    SharingProfile,
    classify_blocks,
    sharing_profile,
)
from .packed import PackedTrace
from .record import AccessType, DEFAULT_BLOCK_SIZE, TraceRecord, block_of
from .stats import TraceStats, collect_stats
from .stream import (
    SharingModel,
    exclude_lock_spins,
    exclude_os,
    interleave,
    materialize,
    take,
)
from .synthetic import Region, SyntheticWorkload, WorkloadProfile, generate_trace
from .workloads import (
    DEFAULT_SCALE,
    PAPER_TRACE_LENGTHS,
    pero_profile,
    pops_profile,
    standard_profile,
    standard_profiles,
    standard_trace,
    standard_trace_names,
    thor_profile,
)

__all__ = [
    "BlockClass",
    "BlockProfile",
    "SharingProfile",
    "classify_blocks",
    "sharing_profile",
    "PackedTrace",
    "AccessType",
    "DEFAULT_BLOCK_SIZE",
    "TraceRecord",
    "block_of",
    "TraceStats",
    "collect_stats",
    "SharingModel",
    "exclude_lock_spins",
    "exclude_os",
    "interleave",
    "materialize",
    "take",
    "Region",
    "SyntheticWorkload",
    "WorkloadProfile",
    "generate_trace",
    "DEFAULT_SCALE",
    "PAPER_TRACE_LENGTHS",
    "pero_profile",
    "pops_profile",
    "standard_profile",
    "standard_profiles",
    "standard_trace",
    "standard_trace_names",
    "thor_profile",
]
