"""The fast backend: table-driven simulation over packed trace columns.

:class:`FastPipeline` is a drop-in alternative to
:class:`~repro.core.pipeline.ReferencePipeline` that produces **bit-identical**
:class:`~repro.core.counters.SimulationCounters` (the differential suite in
``tests/test_backend_differential.py`` proves this for every registered
protocol).  Instead of calling the protocol's ``_read``/``_write`` per
reference, it asks the protocol for its
:meth:`~repro.protocols.base.CoherenceProtocol.compile_table` — a 512-entry
dispatch table read off those same methods once, at construction (see
:mod:`repro.protocols.table`) — and then drives a tight integer kernel:

* per-block state is one packed integer — holder mask, dirty owner, and the
  optional aux annotation (Write-Once reserved / Illinois exclusive /
  Yen & Fu single bit);
* each reference encodes its condition code from that integer, looks up the
  matching :class:`~repro.protocols.table.Row`, and tallies *hits per row*
  (plus the remote-copy count ``F`` where a row's costs depend on it);
* at the end of the run the tally is *flushed* into real
  ``SimulationCounters`` — events, op multisets, bus transactions and the
  Figure 1 fan-out histogram are all linear in the per-row hit counts, so
  the flush reconstructs exactly what the reference loop would have counted.

:class:`~repro.trace.packed.PackedTrace` input is decoded straight from its
columns, ``BATCH_SIZE`` references at a time, into unit, access-code and
block lists; no :class:`~repro.trace.record.TraceRecord` objects are
materialised.  Any other iterable of records is packed a batch at a time
first and then takes the same decode.

**Fidelity fallback.**  Some configurations need the reference loop's
per-reference fidelity: protocols whose state does not fit the table
vocabulary (``compile_table()`` is ``None``), oracle value checking, periodic
invariant checks, and probes, which observe every reference.  For those the
pipeline transparently wraps a :class:`ReferencePipeline` and steps it
through every decoded reference, so ``backend="fast"`` is always safe to
request.

Two small infidelities are documented rather than mirrored: in table mode
the protocol object itself is never mutated (all state lives in the kernel),
so per-protocol *diagnostic* attributes (DiriB's ``broadcasts``, Yen & Fu's
``saved_directory_checks``) stay zero; and a trace with too many sharing
units raises the same ``ValueError`` as the reference pipeline but at batch
decode time, i.e. potentially a few thousand references earlier.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from ..obs.probe import ReferenceProbe

from ..interconnect.bus import BusOp
from ..memory.cache import CacheGeometry
from ..protocols.base import CoherenceProtocol
from ..protocols.events import Event
from ..protocols.table import TableError
from ..trace.packed import PackedTrace
from ..trace.record import DEFAULT_BLOCK_SIZE, AccessType, TraceRecord
from ..trace.stream import SharingModel
from .counters import SimulationCounters
from .pipeline import ReferencePipeline

__all__ = ["FastPipeline", "BATCH_SIZE"]

#: References per internal column-decode batch.  A decoded batch holds a
#: unit and a block for every reference, instruction fetches included, so
#: this bounds the decode's memory (about 250 KB) whatever the trace length.
BATCH_SIZE = 1 << 12

_ACCESS_BY_CODE = (AccessType.INSTR, AccessType.READ, AccessType.WRITE)


class FastPipeline:
    """Table-driven pipeline, bit-identical to :class:`ReferencePipeline`.

    Accepts the same constructor arguments; see the module docstring for
    when it runs the vectorised table kernel versus wrapping the reference
    loop.
    """

    def __init__(
        self,
        protocol: CoherenceProtocol,
        *,
        geometry: Optional[CacheGeometry] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sharing_model: SharingModel = SharingModel.PROCESS,
        check_invariants_every: int = 0,
        check_values: bool = False,
        probe: Optional["ReferenceProbe"] = None,
    ) -> None:
        # Derive the table only when the configuration lets the kernel run.
        table = (
            protocol.compile_table()
            if not check_values and check_invariants_every == 0 and probe is None
            else None
        )
        self._by_process = sharing_model is SharingModel.PROCESS
        self.protocol = protocol
        self.block_size = block_size
        self.sharing_model = sharing_model
        if table is not None:
            # The inner reference pipeline only owns the sharing-unit
            # registry; it never steps a reference.
            self._ref = ReferencePipeline(
                protocol, block_size=block_size, sharing_model=sharing_model
            )
            self._table = table
            self._init_kernel(geometry)
        else:
            self._ref = ReferencePipeline(
                protocol,
                geometry=geometry,
                block_size=block_size,
                sharing_model=sharing_model,
                check_invariants_every=check_invariants_every,
                check_values=check_values,
                probe=probe,
            )
            self._table = None
        self._geometry_spec = geometry.spec if geometry is not None else None
        self.oracle = self._ref.oracle

    @property
    def uses_table(self) -> bool:
        """Whether this run executes the table kernel (vs the reference loop)."""
        return self._table is not None

    def _init_kernel(self, geometry: Optional[CacheGeometry]) -> None:
        n_caches = self.protocol.n_caches
        self._n_caches = n_caches
        self._full = (1 << n_caches) - 1
        self._oshift = n_caches
        obits = (n_caches + 1).bit_length()
        self._omask = (1 << obits) - 1
        self._ashift = n_caches + obits
        self._threshold = self._table.threshold
        #: block -> packed state int; presence in the dict == block seen
        self._states: dict = {}
        rows = self._table.rows
        self._rows = rows
        entries = []
        for index in self._table.dispatch:
            if index is None:
                entries.append(None)
                continue
            row = rows[index]
            fan_dyn = row.fanout and row.fclass > 0
            entries.append((index, row.actions, row.aux_action, row.needs_f, fan_dyn))
        self._entries = entries
        # Per-row tallies, flushed into SimulationCounters at the end of feed.
        self._hits = [0] * len(rows)
        self._sumf = [0] * len(rows)
        self._fan: dict = {}
        self._instr = 0
        self._nrefs = 0
        self._ev = 0
        self._dev = 0
        if geometry is not None:
            # Finite-geometry mirror of SetAssociativeLRU: per-unit, per-set
            # insertion-ordered dicts (LRU order = insertion order).
            self._sets = [
                [dict() for _ in range(geometry.n_sets)] for _ in range(n_caches)
            ]
            self._set_mask = geometry.n_sets - 1
            self._assoc = geometry.associativity
        else:
            self._sets = None

    # -- the kernel ------------------------------------------------------------

    def _unmapped(self, code: int) -> TableError:
        dirty = ("none", "local", "remote")[(code >> 3) & 3]
        aux = ("none", "self", "other")[(code >> 7) & 3]
        fclass = (code >> 5) & 3
        return TableError(
            f"protocol {self.protocol.name!r}: no derived transition for "
            f"condition write={bool(code & 1)} first={bool(code & 2)} "
            f"held={bool(code & 4)} dirty={dirty} fclass={fclass} aux={aux} "
            f"(code {code})"
        )

    def _run_data(self, units: list, accesses, blocks: list) -> None:
        """Feed one decoded batch's *data* references through the table kernel.

        ``units``/``accesses``/``blocks`` are one batch from :meth:`_batches`;
        instruction fetches are skipped here (they are tallied separately
        and generate no coherence traffic).
        """
        states = self._states
        entries = self._entries
        threshold = self._threshold
        no_threshold = threshold is None
        oshift = self._oshift
        ashift = self._ashift
        omask = self._omask
        full = self._full
        hits = self._hits
        sumf = self._sumf
        fan = self._fan
        sets = self._sets
        finite = sets is not None
        if finite:
            set_mask = self._set_mask
            assoc = self._assoc
            n_caches = self._n_caches
            ev = 0
            dev = 0
        for unit, access, block in zip(units, accesses, blocks):
            if not access:
                continue
            write = access >> 1
            bit = 1 << unit
            if finite:
                # Mirror of SetAssociativeLRU.before_access: make the block
                # resident, displacing the LRU victim if the set is full.
                lru = sets[unit][block & set_mask]
                if block in lru:
                    del lru[block]  # re-insert == move to MRU position
                    lru[block] = True
                else:
                    if len(lru) >= assoc:
                        victim = next(iter(lru))
                        del lru[victim]
                        ev += 1
                        vstate = states.get(victim)
                        if vstate is not None:
                            # Mirror of protocol.evict(): drop any aux
                            # annotation pointing at this cache, then remove
                            # the holder bit, writing back a dirty victim.
                            vaux = vstate >> ashift
                            aux_cleared = vaux == bit
                            if aux_cleared:
                                vaux = 0
                            vmask = vstate & full
                            if vmask & bit:
                                vmask &= ~bit
                                vowner = ((vstate >> oshift) & omask) - 1
                                if vowner == unit:
                                    vowner = -1
                                    dev += 1
                                states[victim] = (
                                    vmask | (vowner + 1) << oshift | vaux << ashift
                                )
                            elif aux_cleared:
                                states[victim] = (
                                    vmask
                                    | (vstate & (omask << oshift))
                                    | vaux << ashift
                                )
                    lru[block] = True
            state = states.get(block)
            if state is None:
                code = 2 | write  # globally first reference
                mask = 0
                owner = -1
                aux = 0
                F = 0
            else:
                mask = state & full
                owner = ((state >> oshift) & omask) - 1
                aux = state >> ashift
                F = (mask & ~bit).bit_count()
                code = write
                if mask & bit:
                    code |= 4
                if owner >= 0:
                    code |= 8 if owner == unit else 16
                if F:
                    code |= 32 if no_threshold or F <= threshold else 64
                if aux:
                    code |= 128 if aux == bit else 256
            entry = entries[code]
            if entry is None:
                raise self._unmapped(code)
            ridx, actions, aux_act, needs_f, fan_dyn = entry
            hits[ridx] += 1
            if needs_f:
                sumf[ridx] += F
                if fan_dyn:
                    fan[F] = fan.get(F, 0) + 1
            if actions or aux_act or state is None:
                if actions & 1:  # ACT_CLEAR_DIRTY
                    owner = -1
                if actions & 2:  # ACT_MASK_ADD
                    mask |= bit
                elif actions & 4:  # ACT_MASK_ONLY
                    mask = bit
                    if owner != unit:
                        owner = -1
                    if finite and F:
                        # Mirror of after_access: every other cache lost its
                        # holder bit just now, so drop its resident line.
                        set_index = block & set_mask
                        for other in range(n_caches):
                            if other != unit:
                                sets[other][set_index].pop(block, None)
                if actions & 8:  # ACT_SET_DIRTY
                    owner = unit
                if aux_act == 1:  # AUX_CLEAR
                    aux = 0
                elif aux_act == 2:  # AUX_SELF
                    aux = bit
                states[block] = mask | (owner + 1) << oshift | aux << ashift
        if finite:
            self._ev += ev
            self._dev += dev

    def _flush(self, counters: SimulationCounters) -> None:
        """Fold the per-row tallies into ``counters`` and reset them.

        Everything the reference loop counts per reference is linear in the
        per-row hit counts (and in the accumulated ``F`` totals for rows
        with per-remote-copy costs), so this reconstruction is exact.
        """
        rows = self._rows
        hits = self._hits
        sumf = self._sumf
        events = counters.events
        op_counts = counters.ops
        ops = op_counts.ops
        op_counts.references += self._nrefs
        if self._instr:
            events[Event.INSTR] = events.get(Event.INSTR, 0) + self._instr
        transactions = 0
        fan0 = 0
        for ridx, count in enumerate(hits):
            if not count:
                continue
            row = rows[ridx]
            event = row.event
            events[event] = events.get(event, 0) + count
            for op, per_hit in row.base_ops:
                if per_hit:
                    ops[op] = ops.get(op, 0) + per_hit * count
            f_total = sumf[ridx]
            if f_total:
                for op, coeff in row.linear_ops:
                    if coeff:
                        ops[op] = ops.get(op, 0) + coeff * f_total
            if row.used_bus:
                transactions += count
            if row.fanout and row.fclass == 0:
                fan0 += count
        op_counts.transactions += transactions
        fanout = counters.fanout
        for f, count in self._fan.items():
            fanout.add(f, count)
        if fan0:
            fanout.add(0, fan0)
        if self._ev:
            counters.evictions += self._ev
        if self._dev:
            counters.dirty_evictions += self._dev
            ops[BusOp.WRITE_BACK] = ops.get(BusOp.WRITE_BACK, 0) + self._dev
        self._hits = [0] * len(rows)
        self._sumf = [0] * len(rows)
        self._fan = {}
        self._instr = 0
        self._nrefs = 0
        self._ev = 0
        self._dev = 0

    # -- feeding ---------------------------------------------------------------

    def _batches(self, trace) -> Iterator[tuple]:
        """Decode ``trace`` into ``(units, access codes, blocks)`` batches.

        This is the backend's one decode.  Units are registered in
        first-appearance order through the inner pipeline's registry (and
        its overflow check), so a fast run assigns exactly the unit indices
        a reference run would.
        """
        resolve = self._ref.resolve_key
        block_size = self.block_size
        for chunk in _chunks(trace):
            keys = chunk.pid if self._by_process else chunk.cpu
            # Register new units in order of first appearance.
            unit_of = {key: resolve(key) for key in sorted(set(keys), key=keys.index)}
            yield (
                list(map(unit_of.__getitem__, keys)),
                chunk.access,
                [address // block_size for address in chunk.address],
            )

    def feed(
        self, trace: Iterable[TraceRecord], counters: SimulationCounters
    ) -> None:
        """Feed a whole trace through the pipeline, tallying into ``counters``."""
        if self._table is None:
            step = self._ref.step
            kinds = _ACCESS_BY_CODE
            for units, accesses, blocks in self._batches(trace):
                for unit, access, block in zip(units, accesses, blocks):
                    step(unit, kinds[access], block, counters)
            return
        for units, accesses, blocks in self._batches(trace):
            self._nrefs += len(accesses)
            self._instr += accesses.count(AccessType.INSTR)
            self._run_data(units, accesses, blocks)
        self._flush(counters)

    # -- run wrappers ----------------------------------------------------------

    # Shared with the reference pipeline: they only call ``feed`` and read
    # the protocol, block size, sharing model and ``_geometry_spec``.
    run = ReferencePipeline.run
    result = ReferencePipeline.result


def _chunks(trace: Iterable[TraceRecord]) -> Iterator[PackedTrace]:
    """``trace`` as packed chunks of at most ``BATCH_SIZE`` references."""
    if isinstance(trace, PackedTrace):
        for start in range(0, len(trace), BATCH_SIZE):
            yield trace[start : start + BATCH_SIZE]
        return
    records = iter(trace)
    while True:
        chunk = PackedTrace.from_records(islice(records, BATCH_SIZE))
        if not len(chunk):
            return
        yield chunk
