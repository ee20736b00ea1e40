"""Synthetic multiprocessor workload engine.

The paper evaluates coherence schemes on ATUM address traces of three
parallel MACH applications (POPS, THOR, PERO).  Those traces are not
available, so this module implements the closest synthetic equivalent: a
small cooperative execution model of a parallel program whose processes run
real activities against genuinely shared state —

* **compute** bursts over a private working set,
* **shared reads** of read-mostly data (code tables, netlists),
* **migratory** read-modify-write of protected records,
* **producer/consumer** exchanges through mailboxes,
* **test-and-test-and-set locks** whose spin reads arise from *actual*
  contention (a process scheduled while another holds the lock emits spin
  reads, exactly the behaviour Section 4.4 describes), and
* **barriers** implemented as a shared counter with spin-wait.

A round-robin scheduler with randomised run lengths interleaves the process
streams into one global trace, optionally migrating processes between CPUs.
Roughly 10% of activity is operating-system service touching per-CPU kernel
regions plus a small shared-kernel region, matching the paper's traces.

The engine is fully deterministic given a profile's seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Iterator, List, Optional, Sequence, Tuple

from .packed import FLAG_OS, FLAG_SPIN, PackedTrace
from .record import AccessType, TraceRecord

__all__ = ["Region", "WorkloadProfile", "SyntheticWorkload", "generate_trace"]

#: One reference as a process emits it: ``(access code, address, flags)``;
#: the scheduler adds the CPU and pid when it appends it to the trace.
Ref = Tuple[int, int, int]

_INSTR, _READ, _WRITE = (int(kind) for kind in AccessType)


@dataclass(frozen=True)
class Region:
    """A contiguous, block-aligned range of the address space."""

    name: str
    base_block: int
    n_blocks: int
    block_size: int

    def __post_init__(self) -> None:
        if self.n_blocks <= 0:
            raise ValueError(f"region {self.name!r} must have at least 1 block")

    def block_address(self, index: int) -> int:
        """Byte address of the first word of block ``index`` in this region."""
        if not 0 <= index < self.n_blocks:
            raise IndexError(
                f"block {index} out of range for region {self.name!r} "
                f"({self.n_blocks} blocks)"
            )
        return (self.base_block + index) * self.block_size

    def random_block_address(self, rng: random.Random) -> int:
        """Byte address of a uniformly chosen block in this region."""
        return (self.base_block + rng.randrange(self.n_blocks)) * self.block_size

    def hot_block_address(
        self,
        rng: random.Random,
        hot_fraction: float = 0.2,
        hot_probability: float = 0.75,
    ) -> int:
        """A hot/cold skewed block choice (a cheap stand-in for Zipf).

        Most accesses land in a small "hot" prefix of the region, which is
        how shared structures behave in real programs: a few records are
        touched by everyone while the tail is visited occasionally.
        """
        hot_blocks = max(1, int(self.n_blocks * hot_fraction))
        if rng.random() < hot_probability:
            index = rng.randrange(hot_blocks)
        else:
            index = rng.randrange(self.n_blocks)
        return (self.base_block + index) * self.block_size


class _AddressSpaceAllocator:
    """Hands out non-overlapping block-aligned regions."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self._next_block = 1  # leave block 0 unused so address 0 never appears

    def allocate(self, name: str, n_blocks: int) -> Region:
        region = Region(name, self._next_block, n_blocks, self.block_size)
        self._next_block += n_blocks
        return region


@dataclass(frozen=True)
class WorkloadProfile:
    """Tunable description of one synthetic parallel application.

    The default values are neutral; the calibrated application profiles the
    benchmarks use live in :mod:`repro.trace.workloads`.

    Activity weights are relative probabilities of each activity being chosen
    at the top of a process's main loop.
    """

    name: str
    length: int = 100_000  #: total references to emit
    seed: int = 1988
    processes: int = 4
    processors: int = 4
    block_size: int = 16

    # --- reference mix ---------------------------------------------------
    #: extra instruction fetches emitted per data reference (on average);
    #: one instruction is always emitted per data reference, so 0.0 gives a
    #: 50% instruction share before spins are counted.
    extra_instr_per_data: float = 0.0
    #: probability that a private compute access is a write (vs a read)
    private_write_fraction: float = 0.22
    #: private accesses per compute burst (inclusive range)
    compute_burst: Tuple[int, int] = (4, 12)

    # --- working sets (blocks) -------------------------------------------
    private_blocks_per_process: int = 220
    instr_blocks_per_process: int = 400
    shared_readonly_blocks: int = 96
    migratory_blocks: int = 48
    mailbox_blocks_per_process: int = 16
    kernel_private_blocks_per_cpu: int = 48
    kernel_shared_blocks: int = 16

    # --- activity weights -------------------------------------------------
    w_compute: float = 10.0
    w_shared_read: float = 2.0
    w_migratory: float = 1.0
    w_produce: float = 1.0
    w_consume: float = 1.0
    w_lock: float = 1.5
    w_barrier: float = 0.02

    # --- activity shapes ---------------------------------------------------
    #: shared-readonly blocks read per shared-read activity (inclusive range)
    shared_read_burst: Tuple[int, int] = (2, 6)
    #: consecutive writes to the same shared block per logical update
    #: (multi-word records mean several writes land in one block; only the
    #: first write of a run costs anything in an invalidation protocol)
    shared_write_run: Tuple[int, int] = (2, 4)
    #: read-modify-write operations per migratory activity
    migratory_burst: Tuple[int, int] = (1, 3)
    #: blocks written per produce / read per consume activity
    mailbox_burst: Tuple[int, int] = (1, 4)
    #: number of contended locks in the application
    n_locks: int = 4
    #: blocks of data guarded by each lock (touched in critical sections)
    guarded_blocks_per_lock: int = 24
    #: data accesses performed inside a critical section (inclusive range)
    critical_section: Tuple[int, int] = (2, 6)
    #: extra scheduling turns a lock holder keeps the lock after its critical
    #: section (larger values mean longer spins for contenders)
    lock_hold_turns: Tuple[int, int] = (0, 2)

    # --- system behaviour ---------------------------------------------------
    os_activity_fraction: float = 0.10
    #: probability per scheduling turn that the scheduled process migrates
    migration_rate: float = 0.00002
    #: scheduler run length (references granted per turn, inclusive range)
    run_length: Tuple[int, int] = (8, 24)

    def scaled(self, scale: float) -> "WorkloadProfile":
        """A copy of this profile with length *and* working sets scaled.

        Region sizes scale with the trace length so that first-reference
        rates (a per-block, not per-reference, quantity) stay constant
        across scales; steady-state rates (spins, invalidations) are
        per-reference and unaffected.  Lock/guarded/barrier regions are
        deliberately not scaled — contention structure must not dilute.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")

        def blocks(n: int) -> int:
            return max(8, int(n * scale))

        return dataclass_replace(
            self,
            length=max(1, int(self.length * scale)),
            private_blocks_per_process=blocks(self.private_blocks_per_process),
            instr_blocks_per_process=blocks(self.instr_blocks_per_process),
            shared_readonly_blocks=blocks(self.shared_readonly_blocks),
            migratory_blocks=blocks(self.migratory_blocks),
            mailbox_blocks_per_process=blocks(self.mailbox_blocks_per_process),
            kernel_private_blocks_per_cpu=blocks(
                self.kernel_private_blocks_per_cpu
            ),
            kernel_shared_blocks=blocks(self.kernel_shared_blocks),
        )


def dataclass_replace(profile: WorkloadProfile, **changes) -> WorkloadProfile:
    """``dataclasses.replace`` under a name that reads well at call sites."""
    from dataclasses import replace

    return replace(profile, **changes)


@dataclass
class _Lock:
    """A test-and-test-and-set lock with the blocks it protects."""

    lock_region: Region
    guarded: Region
    holder: Optional[int] = None  #: pid currently holding the lock
    hold_turns_left: int = 0

    @property
    def address(self) -> int:
        return self.lock_region.block_address(0)


@dataclass
class _Barrier:
    """A sense-reversing barrier: one counter block all processes touch."""

    region: Region
    waiting: int = 0
    generation: int = 0

    @property
    def address(self) -> int:
        return self.region.block_address(0)


class _SharedWorld:
    """All the state the synthetic processes genuinely share."""

    def __init__(self, profile: WorkloadProfile, rng: random.Random) -> None:
        alloc = _AddressSpaceAllocator(profile.block_size)
        self.shared_readonly = alloc.allocate(
            "shared_ro", profile.shared_readonly_blocks
        )
        self.migratory = alloc.allocate("migratory", profile.migratory_blocks)
        self.kernel_shared = alloc.allocate(
            "kernel_shared", profile.kernel_shared_blocks
        )
        self.mailboxes: List[Region] = [
            alloc.allocate(f"mailbox{p}", profile.mailbox_blocks_per_process)
            for p in range(profile.processes)
        ]
        self.locks: List[_Lock] = []
        for index in range(profile.n_locks):
            lock_region = alloc.allocate(f"lock{index}", 1)
            guarded = alloc.allocate(
                f"guarded{index}", profile.guarded_blocks_per_lock
            )
            self.locks.append(_Lock(lock_region=lock_region, guarded=guarded))
        self.barrier = _Barrier(alloc.allocate("barrier", 1))
        self.kernel_private: List[Region] = [
            alloc.allocate(f"kernel_cpu{c}", profile.kernel_private_blocks_per_cpu)
            for c in range(profile.processors)
        ]
        self.instr: List[Region] = [
            alloc.allocate(f"instr{p}", profile.instr_blocks_per_process)
            for p in range(profile.processes)
        ]
        self.private: List[Region] = [
            alloc.allocate(f"private{p}", profile.private_blocks_per_process)
            for p in range(profile.processes)
        ]
        self.rng = rng


class _Process:
    """One synthetic process: an endless generator of trace records."""

    def __init__(
        self,
        pid: int,
        profile: WorkloadProfile,
        world: _SharedWorld,
        rng: random.Random,
    ) -> None:
        self.pid = pid
        self.cpu = pid % profile.processors
        self.profile = profile
        self.world = world
        self.rng = rng
        self._instr_cursor = 0
        self._activities = self._build_activity_table()

    # -- reference constructors -----------------------------------------------

    def _instr_fetch(self, flags: int) -> Ref:
        region = self.world.instr[self.pid]
        address = region.block_address(self._instr_cursor % region.n_blocks)
        self._instr_cursor += 1
        return (_INSTR, address, flags)

    def _data(
        self,
        access: int,
        address: int,
        *,
        spin: bool = False,
        os: bool = False,
    ) -> Iterator[Ref]:
        """A data access preceded by its instruction fetch(es)."""
        os_flag = FLAG_OS if os else 0
        yield self._instr_fetch(os_flag)
        extra = self.profile.extra_instr_per_data
        while extra > 0 and self.rng.random() < min(extra, 1.0):
            yield self._instr_fetch(os_flag)
            extra -= 1.0
        yield (access, address, os_flag | (FLAG_SPIN if spin else 0))

    # -- activities -----------------------------------------------------------

    def _compute(self) -> Iterator[Ref]:
        """Private work: uniform reads and writes over the private set.

        Blocks are usually read before they are first written, so each
        private block contributes one write-to-clean transition (a
        fan-out-0 ``wh-blk-cln``) before settling into dirty write hits —
        the population that dominates the paper's Figure 1 bucket 0.
        """
        lo, hi = self.profile.compute_burst
        region = self.world.private[self.pid]
        rng = self.rng
        for _ in range(rng.randint(lo, hi)):
            address = region.random_block_address(rng)
            if rng.random() < self.profile.private_write_fraction:
                yield from self._data(_WRITE, address)
            else:
                yield from self._data(_READ, address)

    def _shared_read(self) -> Iterator[Ref]:
        lo, hi = self.profile.shared_read_burst
        region = self.world.shared_readonly
        for _ in range(self.rng.randint(lo, hi)):
            yield from self._data(_READ, region.random_block_address(self.rng))

    def _write_run(self, address: int) -> Iterator[Ref]:
        """One logical update: several consecutive writes into one block."""
        lo, hi = self.profile.shared_write_run
        for _ in range(self.rng.randint(lo, hi)):
            yield from self._data(_WRITE, address)

    def _migratory(self) -> Iterator[Ref]:
        """Read-modify-write of a shared record (migratory sharing).

        A minority of updates are *blind* (no read first — e.g. overwriting
        a status word), which is what produces genuine write misses to
        blocks living in other caches (``wm-blk-cln``/``wm-blk-drty``).
        """
        lo, hi = self.profile.migratory_burst
        region = self.world.migratory
        for _ in range(self.rng.randint(lo, hi)):
            address = region.hot_block_address(self.rng)
            if self.rng.random() < 0.7:
                yield from self._data(_READ, address)
            yield from self._write_run(address)

    def _produce(self) -> Iterator[Ref]:
        """Write fresh values into this process's outgoing mailbox."""
        lo, hi = self.profile.mailbox_burst
        region = self.world.mailboxes[self.pid]
        for _ in range(self.rng.randint(lo, hi)):
            yield from self._write_run(region.hot_block_address(self.rng))

    def _consume(self) -> Iterator[Ref]:
        """Read the neighbouring process's mailbox.

        Consumption is pairwise (each process drains its ring neighbour),
        matching the paper's observation that shared blocks usually live in
        very few caches at a time.
        """
        if self.profile.processes < 2:
            return
        partner = (self.pid + 1) % self.profile.processes
        region = self.world.mailboxes[partner]
        lo, hi = self.profile.mailbox_burst
        for _ in range(self.rng.randint(lo, hi)):
            yield from self._data(_READ, region.hot_block_address(self.rng))

    def _lock_activity(self) -> Iterator[Ref]:
        """Acquire a contended lock (spinning if held), work, release.

        Test-and-test-and-set: while the lock is held elsewhere the process
        repeatedly *tests* (spin reads, which hit in its own cache under
        coherent caching); on observing it free it issues the test-and-set
        write.
        """
        lock = self.rng.choice(self.world.locks)
        # Spin until free.  Each yielded read is a lock test; the scheduler
        # interleaves other processes between our turns, so the holder
        # eventually releases (holders release within a bounded number of
        # their own turns).  The free-check and the claim happen with no
        # yield in between, so acquisition is atomic with respect to the
        # cooperative scheduler — exactly one waiter wins each release.
        while True:
            if lock.holder is None or lock.holder == self.pid:
                lock.holder = self.pid
                break
            yield from self._data(_READ, lock.address, spin=True)
        # The winning test observes the lock free, then test-and-sets it.
        yield from self._data(_READ, lock.address, spin=True)
        yield from self._data(_WRITE, lock.address)
        lo, hi = self.profile.lock_hold_turns
        lock.hold_turns_left = self.rng.randint(lo, hi)
        # Critical section: read-modify-write the guarded data.
        cs_lo, cs_hi = self.profile.critical_section
        for _ in range(self.rng.randint(cs_lo, cs_hi)):
            address = lock.guarded.random_block_address(self.rng)
            yield from self._data(_READ, address)
            if self.rng.random() < 0.4:
                yield from self._write_run(address)
        # Hold across extra scheduler turns to lengthen contender spins.
        # Kernel service keeps occurring while the lock is held.
        for _ in range(lock.hold_turns_left):
            if self.rng.random() < self.profile.os_activity_fraction:
                yield from self._os_service()
            else:
                yield from self._compute()
        # Release: write the lock word.
        yield from self._data(_WRITE, lock.address)
        lock.holder = None

    def _barrier_activity(self) -> Iterator[Ref]:
        """Arrive at the global barrier and spin until everyone has."""
        barrier = self.world.barrier
        generation = barrier.generation
        # Arrival: read-increment-write the counter.
        yield from self._data(_READ, barrier.address)
        yield from self._data(_WRITE, barrier.address)
        barrier.waiting += 1
        if barrier.waiting >= self.profile.processes:
            barrier.waiting = 0
            barrier.generation += 1
            return
        spin_guard = 0
        while barrier.generation == generation:
            yield from self._data(_READ, barrier.address, spin=True)
            spin_guard += 1
            if spin_guard > 64:
                # Other processes may never arrive (they draw activities
                # independently); give up rather than spin forever.  Real
                # programs reach barriers collectively; the trace-level
                # effect (shared counter ping-pong) has already occurred.
                break

    def _os_service(self) -> Iterator[Ref]:
        """Kernel activity: mostly per-CPU structures plus shared kernel data."""
        region = self.world.kernel_private[self.cpu]
        for _ in range(self.rng.randint(2, 6)):
            address = region.random_block_address(self.rng)
            if self.rng.random() < 0.25:
                yield from self._data(_WRITE, address, os=True)
            else:
                yield from self._data(_READ, address, os=True)
        if self.rng.random() < 0.3:
            shared = self.world.kernel_shared
            address = shared.random_block_address(self.rng)
            yield from self._data(_READ, address, os=True)
            if self.rng.random() < 0.15:
                yield from self._data(_WRITE, address, os=True)

    # -- main loop ----------------------------------------------------------

    def _build_activity_table(self) -> Sequence[Tuple[float, str]]:
        profile = self.profile
        table = [
            (profile.w_compute, "_compute"),
            (profile.w_shared_read, "_shared_read"),
            (profile.w_migratory, "_migratory"),
            (profile.w_produce, "_produce"),
            (profile.w_consume, "_consume"),
            (profile.w_lock, "_lock_activity"),
            (profile.w_barrier, "_barrier_activity"),
        ]
        return [(weight, name) for weight, name in table if weight > 0]

    def run(self) -> Iterator[Ref]:
        """Endless stream of this process's references."""
        weights = [weight for weight, _ in self._activities]
        names = [name for _, name in self._activities]
        os_fraction = self.profile.os_activity_fraction
        while True:
            if os_fraction > 0 and self.rng.random() < os_fraction:
                yield from self._os_service()
                continue
            name = self.rng.choices(names, weights=weights)[0]
            yield from getattr(self, name)()


class SyntheticWorkload:
    """Generates the interleaved multiprocessor trace for a profile."""

    def __init__(self, profile: WorkloadProfile) -> None:
        if profile.processes <= 0 or profile.processors <= 0:
            raise ValueError("profile needs at least one process and processor")
        self.profile = profile

    def packed(self) -> PackedTrace:
        """Generate exactly ``profile.length`` references as columns.

        Processes run lazily, one reference at a time, so lock and barrier
        state read between references always reflects the interleave so far.
        """
        profile = self.profile
        rng = random.Random(profile.seed)
        world = _SharedWorld(profile, rng)
        processes = [
            _Process(pid, profile, world, random.Random(rng.randrange(2**62)))
            for pid in range(profile.processes)
        ]
        streams = [process.run() for process in processes]
        trace = PackedTrace((), (), (), (), ())
        access_col = trace.access.append
        address_col = trace.address.append
        flags_col = trace.flags.append
        emitted = 0
        turn = 0
        lo, hi = profile.run_length
        while emitted < profile.length:
            index = turn % len(processes)
            turn += 1
            process = processes[index]
            if profile.migration_rate > 0 and rng.random() < profile.migration_rate:
                # Migration rebalances: the scheduler swaps this process
                # with whichever process owns the destination CPU, keeping
                # the one-process-per-processor steady state of the paper's
                # 4-process / 4-CPU traces.
                destination = rng.randrange(profile.processors)
                for other in processes:
                    if other is not process and other.cpu == destination:
                        other.cpu = process.cpu
                        break
                process.cpu = destination
            run = min(rng.randint(lo, hi), profile.length - emitted)
            for access, address, flags in islice(streams[index], run):
                access_col(access)
                address_col(address)
                flags_col(flags)
            trace.cpu.extend(repeat(process.cpu, run))
            trace.pid.extend(repeat(process.pid, run))
            emitted += run
        return trace

    def records(self) -> Iterator[TraceRecord]:
        """Exactly ``profile.length`` records, generated up front."""
        return iter(self.packed())


def generate_trace(profile: WorkloadProfile) -> Iterator[TraceRecord]:
    """Convenience wrapper: the trace stream for ``profile``."""
    return SyntheticWorkload(profile).records()
