"""Transition tables derived from each protocol's own ``_read``/``_write``.

The fast backend (:mod:`repro.core.fastsim`) does not call a protocol's
``_read``/``_write`` methods per reference.  It looks up a 512-entry
dispatch table indexed by a **condition code** computed from per-block
state:

========  ==========================================================
bit 0     the reference is a write
bit 1     globally first reference to the block (never seen before)
bit 2     the requester already holds the block
bits 3-4  dirty state: 0 = clean, 1 = dirty locally, 2 = dirty remote
bits 5-6  remote-copy class ``fclass``: 0 = no remote copies,
          1 = ``1 <= F <= threshold``, 2 = ``F > threshold``
bits 7-8  aux annotation: 0 = none, 1 = self, 2 = another cache
========  ==========================================================

``F`` is the remote holder count.  The *threshold* splits invalidation
situations into a directed regime and a broadcast regime (Dir0B 0, DiriB
its pointer count, ``None`` for schemes whose costs are one function of
``F``).  The *aux* axis carries the one per-block annotation some protocols
keep beyond the sharing table: Yen & Fu's single bit, Write-Once's reserved
state, Illinois's exclusive state.

The protocol's imperative code is the one definition of its semantics; the
table is *read off* it.  :func:`derive_table` builds, on a private copy of
the protocol, one representative single-block state per condition —
requester cache 0, remote holders ``1..F``, a remote owner or annotation
at cache 1 — calls :meth:`~repro.protocols.base.CoherenceProtocol.access`
at every ``F`` the condition's class admits, and records what happened as
a :class:`Row`: the Table 4 event, constant bus ops, bus ops linear in
``F`` (both checked at every ``F``), whether the reference populates the
Figure 1 fan-out histogram, whether it used the bus, and the first state
update from the kernel's fixed action vocabulary that reproduces the next
state at every ``F``.  Rows are pure data, so the kernel can tally *hits
per row* and reconstruct bit-identical
:class:`~repro.core.counters.SimulationCounters` at flush time — op
multisets, not op sequences, are what the counters observe.

A condition whose representative raises, or whose outcome the vocabulary
cannot express, stays unmapped; the kernel raises :class:`TableError` if a
trace ever reaches one.  Protocols whose behaviour depends on per-block
state beyond the sharing table and one annotation (admission order, coarse
digit codes, per-cache decay counters) must not derive a table —
``compile_table()`` returns ``None`` and the fast backend steps the
reference pipeline instead.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

from ..memory.sharing import NO_OWNER, SharingTable
from ..trace.record import AccessType
from .base import CoherenceProtocol, OpList
from .events import Event

__all__ = ["Row", "TransitionTable", "TableError", "derive_table", "CODE_SPACE"]

#: Size of the condition-code space (9 bits, see module docstring).
CODE_SPACE = 512

# State-update action flags (executed by the kernel in this order).
ACT_CLEAR_DIRTY = 1
ACT_MASK_ADD = 2
ACT_MASK_ONLY = 4
ACT_SET_DIRTY = 8

AUX_KEEP = 0
AUX_CLEAR = 1
AUX_SELF = 2

#: The kernel's sharing-state actions, in the order :func:`derive_table`
#: tries them: no-op updates first.
_ACTIONS = tuple(
    clear | mask | set_dirty
    for mask, clear, set_dirty in product(
        (0, ACT_MASK_ADD, ACT_MASK_ONLY), (0, ACT_CLEAR_DIRTY), (0, ACT_SET_DIRTY)
    )
)


class TableError(RuntimeError):
    """A derived table was driven into a condition it does not map."""


@dataclass(frozen=True)
class Row:
    """One dispatch entry (pure data; the kernel never branches on
    protocol identity)."""

    event: Event
    base_ops: OpList  # constant (op, count) pairs
    linear_ops: OpList  # (op, coeff) pairs, count = coeff * F
    fclass: int  # remote-copy class of the conditions mapping here
    fanout: bool  # record invalidation fan-out (F; constant 0 iff fclass 0)
    actions: int  # ACT_* flags
    aux_action: int  # AUX_*
    used_bus: bool  # the same at every F of the class

    @property
    def needs_f(self) -> bool:
        """Whether the kernel must accumulate ``F`` for this row."""
        return self.fclass > 0 and (bool(self.linear_ops) or self.fanout)


@dataclass
class TransitionTable:
    """A protocol's transition function as a lookup table.

    ``dispatch[code]`` is an index into ``rows`` or ``None`` for conditions
    the protocol can never reach (hitting one raises :class:`TableError`).
    """

    protocol_name: str
    threshold: Optional[int]  # None = no broadcast class (directed covers all F)
    has_aux: bool
    rows: List[Row] = field(default_factory=list)
    dispatch: List[Optional[int]] = field(default_factory=list)


def _conditions(has_aux: bool):
    """Every (write, first, held, dirty, fclass, aux) the encoder can emit."""
    for write in (0, 1):
        yield write, 1, 0, 0, 0, 0  # a never-seen block has no state at all
    for write, held, dirty, fclass, aux in product(
        (0, 1), (0, 1), (0, 1, 2), (0, 1, 2), (0, 1, 2) if has_aux else (0,)
    ):
        if dirty == 1 and not held:
            continue  # the owner is always a holder
        if dirty == 2 and not fclass:
            continue  # a remote owner is a remote holder
        yield write, 0, held, dirty, fclass, aux


def _f_values(fclass: int, threshold: Optional[int], n_caches: int) -> range:
    """The remote-copy counts ``F`` that fall in ``fclass``."""
    top = n_caches - 1
    if fclass == 0:
        return range(1)
    if threshold is None:
        return range(1, top + 1) if fclass == 1 else range(0)
    if fclass == 1:
        return range(1, min(threshold, top) + 1)
    return range(threshold + 1, top + 1)


def _apply(actions: int, mask: int, owner: int) -> Tuple[int, int]:
    """The kernel's sharing-state update, for requester cache 0."""
    if actions & ACT_CLEAR_DIRTY:
        owner = NO_OWNER
    if actions & ACT_MASK_ADD:
        mask |= 1
    elif actions & ACT_MASK_ONLY:
        mask = 1
        if owner != 0:
            owner = NO_OWNER
    if actions & ACT_SET_DIRTY:
        owner = 0
    return mask, owner


def _split_ops(per_f: Dict[int, Dict]) -> Optional[Tuple[OpList, OpList]]:
    """Fit each op's count as ``base + coeff * F`` over the observed ``F``
    (consecutive integers, so the first two fix the line).

    Returns ``(base_ops, linear_ops)``, or ``None`` when some count is not
    such a line with non-negative terms.
    """
    fs = sorted(per_f)
    ops = list(dict.fromkeys(op for f in fs for op in per_f[f]))
    base_ops, linear_ops = [], []
    for op in ops:
        counts = [per_f[f].get(op, 0) for f in fs]
        coeff = counts[1] - counts[0] if len(fs) > 1 else 0
        base = counts[0] - coeff * fs[0]
        if base < 0 or coeff < 0:
            return None
        if any(count != base + coeff * f for f, count in zip(fs, counts)):
            return None
        if base:
            base_ops.append((op, base))
        if coeff:
            linear_ops.append((op, coeff))
    return tuple(base_ops), tuple(linear_ops)


def derive_table(
    protocol: CoherenceProtocol,
    threshold: Optional[int] = None,
    aux: Optional[Dict[int, int]] = None,
) -> TransitionTable:
    """Read ``protocol``'s transition table off its ``_read``/``_write``.

    ``threshold`` is the broadcast threshold that splits the remote-copy
    classes (``None``: one class for every ``F >= 1``).  ``aux`` is the
    protocol's annotation dict (block -> cache), if it keeps one; it
    becomes the table's aux column.  ``protocol`` itself is not mutated:
    the representative states are built on a private copy with an empty
    sharing table, an empty seen set and an empty annotation dict.
    """
    sharing = SharingTable()
    seen: set = set()
    annotations: Dict[int, int] = {}
    memo = {id(protocol.sharing): sharing, id(protocol._seen): seen}
    if aux is not None:
        memo[id(aux)] = annotations
    probe = copy.deepcopy(protocol, memo)
    n_caches = protocol.n_caches
    table = TransitionTable(
        protocol_name=protocol.name,
        threshold=threshold,
        has_aux=aux is not None,
        dispatch=[None] * CODE_SPACE,
    )
    row_index: Dict[Row, int] = {}
    block = 0
    for write, first, held, dirty, fclass, annotated in _conditions(aux is not None):
        access = AccessType.WRITE if write else AccessType.READ
        observed = []
        for f in _f_values(fclass, threshold, n_caches):
            block += 1  # a fresh block per representative state
            if not first:
                seen.add(block)
            for cache in range(1 - held, f + 1):
                sharing.add_holder(block, cache)
            if dirty:
                sharing.set_dirty(block, dirty - 1)
            if annotated:
                annotations[block] = annotated - 1
            before = _snapshot(sharing, annotations, block)
            try:
                outcome = probe.access(0, access, block)
            except (LookupError, ValueError):  # the reference rejects the state
                observed = []
                break
            after = _snapshot(sharing, annotations, block)
            observed.append((f, outcome, before, after))
        row = _row(fclass, observed)
        if row is None:
            continue
        index = row_index.setdefault(row, len(table.rows))
        if index == len(table.rows):
            table.rows.append(row)
        code = write | first << 1 | held << 2 | dirty << 3 | fclass << 5
        table.dispatch[code | annotated << 7] = index
    return table


def _snapshot(sharing: SharingTable, annotations: Dict[int, int], block: int):
    return sharing.holders(block), sharing.dirty_owner(block), annotations.get(block)


def _row(fclass: int, observed) -> Optional[Row]:
    """The row reproducing every observed outcome, or ``None``."""
    if not observed:
        return None  # no F in this class, or the reference raised
    head = observed[0][1]
    fanout = head.invalidation_fanout is not None
    per_f = {}
    for f, outcome, _, _ in observed:
        if (
            outcome.event is not head.event
            or outcome.used_bus != head.used_bus
            or outcome.invalidation_fanout != (f if fanout else None)
        ):
            return None
        counts = per_f[f] = {}
        for op, count in outcome.ops:
            counts[op] = counts.get(op, 0) + count
    split = _split_ops(per_f)
    if split is None:
        return None
    # The first action, and the first aux action, that reproduce every
    # observed next state: (holder mask, dirty owner) and the annotation.
    moves = [(before, after) for _, _, before, after in observed]
    actions = next(
        (
            actions
            for actions in _ACTIONS
            if all(_apply(actions, *old[:2]) == new[:2] for old, new in moves)
        ),
        None,
    )
    aux_action = next(
        (
            aux_action
            for aux_action in (AUX_KEEP, AUX_CLEAR, AUX_SELF)
            if all((old[2], None, 0)[aux_action] == new[2] for old, new in moves)
        ),
        None,
    )
    if actions is None or aux_action is None:
        return None
    return Row(
        event=head.event,
        base_ops=split[0],
        linear_ops=split[1],
        fclass=fclass,
        fanout=fanout,
        actions=actions,
        aux_action=aux_action,
        used_bus=head.used_bus,
    )
