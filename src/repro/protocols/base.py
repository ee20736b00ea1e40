"""Coherence-protocol framework.

A protocol is a state machine over the system-wide
:class:`~repro.memory.sharing.SharingTable`.  For each data reference it

1. classifies the reference into a Table 4 :class:`~repro.protocols.events.Event`,
2. performs the state transitions its policy prescribes, and
3. reports the primitive bus operations the reference cost as an
   :class:`AccessOutcome`.

The split mirrors the paper's observation (Section 5) that a consistency
protocol is "a specification of the state changes of the data in the caches
and the protocol which is used to accomplish that specification": two
protocols with the same state-change specification (Dir0B and WTI) produce
identical event frequencies and differ only in the bus operations attached.

The cost conventions shared by all protocols (derived in Section 4.3 and
validated against the paper's Table 5 cumulative numbers, see DESIGN.md):

* first references to a block are *free* — they happen in a uniprocessor
  infinite cache too and are excluded from the overhead metric;
* a miss satisfied by memory costs one ``MEM_ACCESS``;
* a miss satisfied by a remote dirty copy costs ``FLUSH_REQUEST`` +
  ``WRITE_BACK`` (the requester snarfs the written-back data);
* every cached copy a protocol must remove costs one ``INVALIDATE`` when
  directed, or a single ``BROADCAST_INVALIDATE`` when broadcast;
* directory checks that accompany a miss are overlapped
  (``DIR_CHECK_OVERLAPPED``, free); standalone checks cost ``DIR_CHECK``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Hashable, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .table import TransitionTable

from ..interconnect.bus import BusOp
from ..memory.sharing import NO_OWNER, SharingTable
from ..trace.record import AccessType
from .events import Event

__all__ = ["AccessOutcome", "CoherenceProtocol", "OpList", "NO_OPS"]

#: The bus operations one reference performed: ``(op, count)`` pairs.
OpList = Tuple[Tuple[BusOp, int], ...]

NO_OPS: OpList = ()


@dataclass(frozen=True)
class AccessOutcome:
    """What one memory reference did: its event, bus ops, and fan-out.

    ``invalidation_fanout`` is set (possibly to 0) exactly when the reference
    is a write to a previously-clean block — the population Figure 1 builds
    its histogram over.
    """

    event: Event
    ops: OpList = NO_OPS
    invalidation_fanout: Optional[int] = None

    def op_count(self, op: BusOp) -> int:
        return sum(count for kind, count in self.ops if kind is op)

    @property
    def used_bus(self) -> bool:
        """True when the reference consumed at least one bus cycle's op.

        Overlapped directory checks are free and do not constitute a bus
        transaction on their own.
        """
        return any(
            kind is not BusOp.DIR_CHECK_OVERLAPPED and count > 0
            for kind, count in self.ops
        )


_INSTR_OUTCOME = AccessOutcome(event=Event.INSTR)


class CoherenceProtocol(abc.ABC):
    """Base class: per-reference classification + state transition + costing.

    Subclasses implement :meth:`_read` and :meth:`_write` for data
    references; instruction fetches never generate coherence traffic
    (Section 4) and are handled here.

    Attributes:
        n_caches: number of caches (= sharing units) in the system.
        sharing: the authoritative holder/dirty state for every block.
    """

    #: short identifier, e.g. ``"dir0b"`` (subclasses must override)
    name: ClassVar[str] = "abstract"
    #: presentation label, e.g. ``"Dir0B"``
    label: ClassVar[str] = "abstract"
    #: ``"directory"`` or ``"snoopy"``
    kind: ClassVar[str] = "abstract"

    def __init__(self, n_caches: int) -> None:
        if n_caches <= 0:
            raise ValueError(f"n_caches must be positive, got {n_caches}")
        self.n_caches = n_caches
        self.sharing = SharingTable()
        self._seen: Set[int] = set()

    # -- public API -----------------------------------------------------------

    def access(self, cache: int, access: AccessType, block: int) -> AccessOutcome:
        """Process one reference by ``cache`` to ``block``."""
        if access is AccessType.INSTR:
            return _INSTR_OUTCOME
        if not 0 <= cache < self.n_caches:
            raise ValueError(
                f"cache index {cache} out of range for {self.n_caches} caches"
            )
        first_ref = block not in self._seen
        if first_ref:
            self._seen.add(block)
        if access is AccessType.READ:
            return self._read(cache, block, first_ref)
        return self._write(cache, block, first_ref)

    def evict(self, cache: int, block: int) -> OpList:
        """Displace ``block`` from ``cache`` (finite-cache extension).

        Returns the bus operations the displacement cost: a dirty victim is
        written back; clean victims vanish silently.  Subclasses with extra
        per-block directory state should override and clean it up.
        """
        if not self.sharing.is_held(block, cache):
            return NO_OPS
        dirty = self.sharing.is_dirty_in(block, cache)
        self.sharing.remove_holder(block, cache)
        if dirty:
            return ((BusOp.WRITE_BACK, 1),)
        return NO_OPS

    def seen(self, block: int) -> bool:
        """Whether the trace has referenced ``block`` before."""
        return block in self._seen

    def block_state(self, block: int) -> Hashable:
        """A hashable snapshot of everything this protocol keeps about
        ``block``: two snapshots are equal only if every later sequence of
        references and evictions behaves identically on the block.  The
        default is its holders, dirty owner and whether it has been seen;
        a subclass that keeps more per-block state extends it.
        """
        sharing = self.sharing
        return (sharing.holders(block), sharing.dirty_owner(block), block in self._seen)

    def compile_table(self) -> Optional["TransitionTable"]:
        """This protocol's transition function as a lookup table.

        The fast backend (:mod:`repro.core.fastsim`) uses the table to
        process references without calling :meth:`access`.  Protocols whose
        per-block state fits the table vocabulary (sharing mask + dirty
        owner + at most one cache-valued annotation) override this with one
        :func:`~repro.protocols.table.derive_table` call, which reads the
        table off their own :meth:`_read`/:meth:`_write`; the default
        ``None`` routes the fast backend through the reference pipeline
        instead.  A subclass inherits its parent's derivation, run on the
        subclass's own code, so one that keeps per-block state outside the
        sharing table and that one annotation dict must opt out by
        returning ``None`` (as ``DirCoarse`` and ``DiriNB`` do).
        """
        return None

    # -- helpers for subclasses ------------------------------------------------

    def _remote_dirty_owner(self, cache: int, block: int) -> int:
        """Dirty owner of ``block`` if it is a cache other than ``cache``."""
        owner = self.sharing.dirty_owner(block)
        if owner == cache:
            return NO_OWNER
        return owner

    # -- protocol policy ---------------------------------------------------------

    @abc.abstractmethod
    def _read(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        """Handle a data read."""

    @abc.abstractmethod
    def _write(self, cache: int, block: int, first_ref: bool) -> AccessOutcome:
        """Handle a data write."""

    # -- introspection ----------------------------------------------------------

    @classmethod
    def directory_bits_per_block(cls, n_caches: int) -> int:
        """Directory storage per main-memory block, in bits (Section 6).

        Snoopy protocols keep no central directory and return 0.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(n_caches={self.n_caches})"
