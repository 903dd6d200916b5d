"""Trace-driven profiler.

Replays an :class:`~repro.profiling.tracer.AllocationTrace` through a
composed allocator mapped onto a memory hierarchy, and produces a
:class:`~repro.profiling.metrics.ProfileResult` — the per-configuration
"simulation (i.e. execution) of our dynamic application" step of the
DATE'06 flow.

Besides the allocator's own metadata accesses, the profiler charges the
*application's* accesses to the allocated payloads
(:data:`DEFAULT_PAYLOAD_ACCESS_FACTOR` accesses per allocated byte, charged to
the level the owning pool lives on):
data placed in the scratchpad is not only cheaper to manage but also cheaper
to use, which is what makes the pool-mapping parameter matter for energy,
exactly as in the paper's methodology.

Two replay paths produce byte-identical results:

* the **kernel path** (:class:`SegmentReplaySession`, the default) splits
  each columnar :class:`~repro.profiling.compiled.CompiledTrace` segment
  into one event stream per pool, as
  :class:`~repro.profiling.batch.BatchReplayEngine` splits a trace: fixed
  pools replay on the flat :class:`FixedPoolKernel` the batch engine runs
  too, slab and general pools on their own methods.  It serves one-shot
  replay (:meth:`Profiler.run` replays the whole trace as a single
  segment) and streaming replay alike;
* the **event loop** (:meth:`Profiler._replay_events`) walks the event
  objects and calls ``malloc``/``free`` per event.  It is the only oracle:
  the executable specification the kernel path is tested against (see
  ``tests/test_replay_identity.py`` and ``tests/test_stream.py``).  It serves
  exactly what the kernel path cannot express (:func:`kernel_can_replay`):
  an allocator that is not exactly a
  :class:`~repro.allocator.composed.ComposedAllocator` of unused pools in a
  standard stack (the identity suites reach the oracle through a trivial
  subclass), and a trace that re-binds a live request id.

Every path records the same ``per_pool["__profile__"]`` section,
``{"oom_failures": N}``: allocations that found no pool with room are
counted and skipped, and their frees are skipped with them.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..allocator.blocks import Block, BlockStatus
from ..allocator.composed import ComposedAllocator
from ..allocator.errors import OutOfMemoryError
from ..allocator.freelist import LIFOFreeList
from ..allocator.heap import PoolAddressSpace
from ..allocator.pool import FixedSizePool, GeneralPool
from ..allocator.slab import SlabPool
from ..allocator.stats import PoolStats
from ..memhier.access import breakdown_accesses, footprint_by_level
from ..memhier.energy import EnergyModel
from ..memhier.mapping import PoolMapping
from .compiled import CompiledTrace
from .events import AllocationEvent
from .metrics import MetricSet, ProfileResult
from .tracer import AllocationTrace

#: Application data accesses charged per allocated payload byte (one write to
#: initialise plus an average of one read of the data during its lifetime).
#: Integral, so every running payload total is an exact float (below 2**53)
#: whatever the summation order: the kernel path counts bytes and multiplies
#: once, and matches the event loop's per-event sums bit for bit.
DEFAULT_PAYLOAD_ACCESS_FACTOR = 2.0


class Profiler:
    """Replays traces through configured allocators and collects metrics."""

    def __init__(
        self,
        mapping: PoolMapping,
        energy_model: EnergyModel | None = None,
    ) -> None:
        self.mapping = mapping
        self.energy_model = energy_model or EnergyModel(mapping.hierarchy)

    def run(
        self,
        allocator: ComposedAllocator,
        trace: AllocationTrace,
        configuration_id: str = "",
    ) -> ProfileResult:
        """Profile ``allocator`` over ``trace`` and return the metrics.

        The trace replays as one segment of a :class:`SegmentReplaySession`,
        or through the event loop for an allocator the kernel path does not
        take (:func:`kernel_can_replay`) and for a malformed trace that
        re-binds a live request id (which a streaming session on the kernel
        path refuses; see :attr:`CompiledTrace.has_live_rebinding`).
        """
        session = SegmentReplaySession(self, allocator, name=trace.name)
        compiled = trace.compiled() if session._runners is not None else None
        if compiled is not None and not compiled.has_live_rebinding:
            session.replay_segment(compiled)
        else:
            session._runners = None
            session._replay_events(trace)
            session.events_seen = len(trace)
        return session.finish(configuration_id)

    # -- replay: the event loop (the oracle) ---------------------------------

    def _replay_events(
        self,
        allocator: ComposedAllocator,
        events: Iterable[AllocationEvent],
        address_of: dict[int, int],
        payload_accesses_by_pool: dict[str, float],
    ) -> int:
        """Replay the event objects one by one (the reference semantics).

        Live addresses and payload accesses accumulate into the containers
        passed in, so a session can carry them across segments; returns the
        number of failed allocations.
        """
        factor = DEFAULT_PAYLOAD_ACCESS_FACTOR
        oom_failures = 0
        for event in events:
            if event.is_alloc:
                try:
                    address = allocator.malloc(event.size)
                except OutOfMemoryError:
                    oom_failures += 1
                    continue
                address_of[event.request_id] = address
                owner = allocator.owner_of(address)
                if owner is not None:
                    payload_accesses_by_pool[owner.name] = (
                        payload_accesses_by_pool.get(owner.name, 0.0)
                        + event.size * factor
                    )
            else:
                address = address_of.pop(event.request_id, None)
                if address is None:
                    # The matching allocation failed (OOM) and was skipped.
                    continue
                allocator.free(address)
        return oom_failures

    def _collect(
        self,
        allocator: ComposedAllocator,
        trace_name: str,
        operation_count: int,
        configuration_id: str,
        payload_accesses_by_pool: dict[str, float],
    ) -> ProfileResult:
        """Turn raw allocator counters into a :class:`ProfileResult`."""
        breakdown = breakdown_accesses(allocator, self.mapping)
        footprints = footprint_by_level(allocator, self.mapping, peak=True)

        # The "memory accesses" metric of the paper counts the accesses of
        # the DM allocation subsystem itself (metadata reads/writes), so it
        # is recorded before application payload accesses are added.
        allocator_accesses = breakdown.total

        # Charge application payload accesses to the level of the owning
        # pool: they do not count towards the accesses metric but they do
        # make the pool-mapping parameter matter for energy and time.
        for pool_name, payload_accesses in payload_accesses_by_pool.items():
            module = self.mapping.module_of(pool_name)
            level = breakdown.level(module.name)
            # Half the payload accesses are writes (initialisation), half reads.
            level.reads += int(payload_accesses / 2)
            level.writes += int(payload_accesses / 2)

        result = ProfileResult(
            configuration_id=configuration_id or allocator.name,
            trace_name=trace_name,
        )
        result.operation_count = operation_count
        result.leaked_blocks = allocator.live_blocks

        total_energy = self.energy_model.total_energy_nj(
            breakdown, footprints, operation_count
        )
        total_cycles = self.energy_model.execution_cycles(breakdown, operation_count)

        result.totals = MetricSet(
            accesses=allocator_accesses,
            footprint=sum(footprints.values()),
            energy_nj=total_energy,
            cycles=total_cycles,
        )

        for module in self.mapping.hierarchy:
            level = result.level(module.name)
            accesses = breakdown.levels.get(module.name)
            if accesses is not None:
                level.reads = accesses.reads
                level.writes = accesses.writes
            level.footprint = footprints.get(module.name, 0)
            level.energy_nj = module.energy_for(level.reads, level.writes)

        for pool in allocator.pools:
            result.per_pool[pool.name] = pool.stats.snapshot()
            result.per_pool[pool.name]["module"] = self.mapping.module_of(pool.name).name

        return result


class FixedPoolKernel:
    """A strict :class:`~repro.allocator.pool.FixedSizePool` on flat integers.

    The one fixed-pool replay kernel, run by :class:`SegmentReplaySession`
    and by :class:`~repro.profiling.batch.BatchReplayEngine`.  Every block
    has the pool's gross size, so the free list is a stack of addresses
    (newest last, as :class:`~repro.allocator.freelist.LIFOFreeList` stores
    it) and the live table maps a slot to its address.  A warm allocate
    always charges one read, two writes and one visit and a free one read
    and one write, so :meth:`feed` counts them and updates the
    :class:`~repro.allocator.stats.PoolStats` once; a cold allocate grows
    through the real :meth:`PoolAddressSpace.grow`.  State carries from one
    feed to the next, and :meth:`write_back` leaves the real pool, if any,
    in the state its own methods would have.
    """

    __slots__ = ("block_size", "gross", "space", "pool", "stats", "stack", "live", "carved")

    def __init__(self, block_size: int, gross: int, space: PoolAddressSpace, pool=None) -> None:
        self.block_size = block_size
        self.gross = gross
        self.space = space
        self.pool = pool
        self.stats = pool.stats if pool is not None else PoolStats()
        self.stack: list[int] = []
        #: slot -> address of the live allocations, in allocation order.
        self.live: dict[int, int] = {}
        #: Whether a growth chunk was carved into more than one block.
        self.carved = False

    @property
    def payload(self) -> int:
        """Payload bytes of every successful allocation so far."""
        return self.stats.alloc_ops * self.block_size

    def feed(self, codes, slot_sizes=None, slot_base: int = 0) -> list[int]:
        """Replay ``codes`` (``slot`` for an ALLOC, ``~slot`` for a FREE).

        Returns the slots of the allocations the address space had no room
        for: each is a failed allocation that leaves the pool as it was, and
        its FREE is skipped, as the route's next pool serves both.  Every
        allocation has the block size, so ``slot_sizes`` goes unread.
        """
        stats = self.stats
        gross = self.gross
        stack = self.stack
        pop = stack.pop
        push = stack.append
        live = self.live
        release = live.pop
        live_n = start = len(live)
        peak = stats.peak_live_payload // self.block_size
        frees = 0
        cold = 0
        refused: list[int] = []
        for code in codes:
            if code >= 0:
                if stack:
                    live[code] = pop()
                else:
                    # Grow and carve: one header write per carved block
                    # plus the allocated block's, as FixedSizePool does.
                    try:
                        grown = self.space.grow(gross)
                    except OutOfMemoryError:
                        stats.failed_allocs += 1
                        refused.append(code)
                        continue
                    stats.grow_footprint(grown.size)
                    count = grown.size // gross
                    if count > 1:
                        stack.extend(range(grown.start + gross, grown.end, gross))
                        self.carved = True
                    stats.accesses.writes += count + 1
                    cold += 1
                    live[code] = grown.start
                live_n += 1
                if live_n > peak:
                    peak = live_n
            else:
                address = release(~code, None)
                if address is not None:
                    push(address)
                    live_n -= 1
                    frees += 1
        allocs = live_n - start + frees
        warm = allocs - cold
        stats.accesses.reads += warm + frees
        stats.accesses.writes += 2 * warm + frees
        stats.free_list_visits += warm
        stats.alloc_ops += allocs
        stats.free_ops += frees
        stats.live_blocks = live_n
        stats.live_payload = live_n * self.block_size
        stats.live_gross = live_n * gross
        stats.peak_live_payload = peak * self.block_size
        return refused

    def write_back(self) -> None:
        """Rebuild the real pool's free list, live table and freed set.

        A chunk is carved only when the stack is empty, and pops take the
        newest address, so the never-used addresses are the bottom ``carved
        blocks - peak live blocks`` of the stack; the rest were freed.
        """
        pool = self.pool
        gross = self.gross
        name = pool.name
        stack = self.stack
        pool.free_list._blocks = [Block(address, gross, pool_name=name) for address in stack]
        if self.stats.free_ops or self.carved:
            pool.free_list.last_insertion_visits = 1  # LIFOFreeList.push's visit
        pool._live = {
            address: Block(address, gross, BlockStatus.ALLOCATED, self.block_size, name)
            for address in self.live.values()
        }
        unused = self.stats.footprint // gross - self.stats.peak_live_payload // self.block_size
        pool._freed_addresses = set(stack[unused:])


class PoolDriver:
    """:class:`FixedPoolKernel`'s interface over a pool's own methods (the
    runner of slab and general pools)."""

    __slots__ = ("pool", "live", "payload")

    def __init__(self, pool) -> None:
        self.pool = pool
        self.live: dict[int, int] = {}
        self.payload = 0

    @property
    def stats(self) -> PoolStats:
        return self.pool.stats

    def feed(self, codes, slot_sizes, slot_base: int = 0) -> list[int]:
        """As :meth:`FixedPoolKernel.feed`; an ALLOC's size is
        ``slot_sizes[slot - slot_base]``."""
        allocate = self.pool.allocate
        release = self.pool.free
        live = self.live
        payload = self.payload
        refused: list[int] = []
        for code in codes:
            if code >= 0:
                size = slot_sizes[code - slot_base]
                try:
                    live[code] = allocate(size)
                except OutOfMemoryError:
                    refused.append(code)
                    continue
                payload += size
            else:
                address = live.pop(~code, None)
                if address is not None:
                    release(address)
        self.payload = payload
        return refused

    def write_back(self) -> None:
        """Nothing to do: the pool holds its own state."""


def _pool_runners(allocator: ComposedAllocator) -> list | None:
    """One runner per pool when the kernel path takes ``allocator``, else None.

    It takes an exact :class:`ComposedAllocator` (a subclass could redefine
    the owner map and dispatch counter the path maintains) whose pools are
    unused and form a *standard stack*: strict fixed or slab pools with
    distinct block sizes in front of a general pool that accepts every size,
    as :meth:`~repro.profiling.batch.BatchReplayEngine._plan` accepts.
    """
    if type(allocator) is not ComposedAllocator:
        return None
    *dedicated, general = allocator.pools
    if type(general) is not GeneralPool or general.max_block_size is not None:
        return None
    if any(pool.stats != PoolStats() for pool in allocator.pools):
        return None
    runners: list = []
    for pool in dedicated:
        if type(pool) is FixedSizePool and type(pool.free_list) is LIFOFreeList:
            runners.append(FixedPoolKernel(pool.block_size, pool.gross_size, pool.space, pool))
        elif type(pool) is SlabPool:
            runners.append(PoolDriver(pool))
        else:
            return None
    sizes = {pool.block_size for pool in dedicated}
    if len(sizes) < len(dedicated) or not all(pool.strict for pool in dedicated):
        return None
    return runners + [PoolDriver(general)]


def kernel_can_replay(allocator: ComposedAllocator) -> bool:
    """Whether the kernel path takes ``allocator`` (:func:`_pool_runners`);
    a trace that re-binds a live request id takes the event loop anyway."""
    return _pool_runners(allocator) is not None


class SegmentReplaySession:
    """Replays :class:`CompiledTrace` *segments*, carrying state across them.

    :meth:`Profiler.run` replays a whole trace as a single segment; the
    streaming layer (:mod:`repro.stream`) feeds bounded segments of an
    unbounded stream through one allocator.  The final
    :class:`~repro.profiling.metrics.ProfileResult` is byte-identical to the
    event loop over the whole trace, for any segmentation (property-tested
    in ``tests/test_stream.py``).

    On the kernel path (:func:`kernel_can_replay`) a segment replays the way
    the batch engine replays a trace.  It splits into one stream per pool by
    the standard stack's size routing.  Each dedicated pool replays its
    stream, a fixed pool on a :class:`FixedPoolKernel` and a slab pool on
    its own methods; the allocations a full pool refuses, and their frees,
    join the general pool's stream in event order.  The general pool
    replays on its own methods, and an allocation it refuses is an OOM
    failure.  Allocations alive at a segment boundary are carried in a
    ``global slot -> (address, pool position)`` table, so a later FREE goes
    to the pool holding the block.  Pools are independent given their
    streams, so every pool counter comes out as the event loop's; the owner
    map is brought up to date at each boundary, and :meth:`finish` writes
    the kernels' state back into their pools.

    Every other allocator sends each segment's reconstructed events through
    the event loop, :meth:`Profiler._replay_events`, with the live address
    table carried instead; streams that re-bind a live request id
    (malformed; rejected by ``AllocationTrace.validate``) are only supported
    that way.
    """

    def __init__(
        self,
        profiler: Profiler,
        allocator: ComposedAllocator,
        name: str = "stream",
    ) -> None:
        self.profiler = profiler
        self.allocator = allocator
        self.name = name
        self.oom_failures = 0
        self.events_seen = 0
        #: One runner per pool on the kernel path; None on the event loop.
        self._runners = _pool_runners(allocator)
        #: global slot -> (address, pool position) of allocations alive
        #: across a segment boundary (the kernel path).
        self._survivors: dict[int, tuple[int, int]] = {}
        #: request id -> address of live allocations (the event loop).
        self._address_of: dict[int, int] = {}
        self._payload_by_name: dict[str, float] = {}

    # -- segment replay ----------------------------------------------------

    def replay_segment(self, segment: CompiledTrace) -> None:
        """Replay one segment, updating the carried state."""
        if self._runners is None:
            self._replay_events(segment.events())
        elif segment.has_live_rebinding:
            raise ValueError(
                "segment replay requires a well-formed trace (an ALLOC "
                "re-binds a live request id); only the event loop, taken "
                "by a ComposedAllocator subclass, replays such a stream"
            )
        else:
            self._replay_by_pool(segment)
        self.events_seen += len(segment)

    def _replay_events(self, events: Iterable[AllocationEvent]) -> None:
        """Event-loop replay (the reference semantics) on the carried state."""
        self.oom_failures += self.profiler._replay_events(
            self.allocator,
            events,
            self._address_of,
            self._payload_by_name,
        )

    def _replay_by_pool(self, segment: CompiledTrace) -> None:
        """Replay one segment pool by pool (the class docstring)."""
        runners = self._runners
        allocator = self.allocator
        pools = allocator.pools
        allocs = sum(pool.stats.alloc_ops for pool in pools)
        frees = sum(pool.stats.free_ops for pool in pools)
        streams, crossed = self._split(segment)
        slot_sizes = segment.slot_sizes
        base = segment.slot_base
        refused: list[int] = []
        for runner, codes in zip(runners[:-1], streams):
            if codes:
                refused += runner.feed(codes, slot_sizes, base)
        general = streams[-1]
        if refused:
            spilled = set(refused)
            spilled.update(~slot for slot in refused)
            general = self._split(segment, spilled)[0][-1]
        runners[-1].feed(general, slot_sizes, base)
        # Every ALLOC is one pool allocation or an OOM failure, and every
        # executed FREE one pool free; each charges one dispatch read.
        allocs = sum(pool.stats.alloc_ops for pool in pools) - allocs
        frees = sum(pool.stats.free_ops for pool in pools) - frees
        allocator._dispatch_accesses += segment.slot_count + frees
        self.oom_failures += segment.slot_count - allocs
        # Survivors and owner map at the boundary, in allocation order.
        survivors = self._survivors
        owner_of = allocator._owner_of
        for slot in crossed:
            del owner_of[survivors.pop(slot)[0]]
        fresh = []
        for position, runner in enumerate(runners):
            for slot, address in reversed(runner.live.items()):
                if slot < base:
                    break
                fresh.append((slot, address, position))
        for slot, address, position in sorted(fresh):
            survivors[slot] = (address, position)
            owner_of[address] = pools[position]

    def _split(self, segment: CompiledTrace, spilled: set[int] | None = None):
        """One code stream per pool, and the earlier-segment slots freed.

        A code goes to the first pool of its size's route: the dedicated
        pool for the size, else the general pool.  A non-positive size has
        no route: its ALLOC fails and its FREE is skipped.  Given the
        ``spilled`` codes (allocations dedicated pools refused, and their
        frees), those go to the general pool and other dedicated codes
        nowhere, so the general stream is what the general pool sees.
        """
        streams: list[list[int]] = [[] for _ in self._runners]
        general = streams[-1]
        nowhere: list[int] = []

        def spill(code: int) -> None:
            if code in spilled:
                general.append(code)

        routes = {}
        for size in set(segment.sizes):
            for position, pool in enumerate(self.allocator.pools[:-1]):
                if pool.block_size == size:
                    routes[size] = streams[position].append if spilled is None else spill
                    break
            else:
                routes[size] = general.append if size > 0 else nowhere.append
        base = segment.slot_base
        slot_sizes = segment.slot_sizes
        survivors = self._survivors
        crossed: list[int] = []
        for kind, size, slot in zip(segment.kinds, segment.sizes, segment.slots):
            if kind:
                routes[size](slot)
            elif slot >= base:
                routes[slot_sizes[slot - base]](~slot)
            else:
                # An earlier segment's allocation, or NO_SLOT (never there).
                entry = survivors.get(slot)
                if entry is not None:
                    streams[entry[1]].append(~slot)
                    crossed.append(slot)
        return streams, crossed

    # -- results -----------------------------------------------------------

    def finish(self, configuration_id: str = "") -> ProfileResult:
        """Final :class:`ProfileResult` over everything replayed so far.

        Byte-identical to what the event loop produces for the concatenated
        trace (same totals, per-level metrics, per-pool snapshots and
        ``__profile__`` section), and the allocator is left in the event
        loop's end state.
        """
        if self._runners is None:
            payload_by_pool = self._payload_by_name
        else:
            for runner in self._runners:
                runner.write_back()
            payload_by_pool = {
                pool.name: runner.payload * DEFAULT_PAYLOAD_ACCESS_FACTOR
                for pool, runner in zip(self.allocator.pools, self._runners)
                if runner.payload
            }
        result = self.profiler._collect(
            self.allocator, self.name, self.events_seen, configuration_id, payload_by_pool
        )
        result.per_pool["__profile__"] = {"oom_failures": self.oom_failures}
        return result


def profile_trace(
    allocator: ComposedAllocator,
    trace: AllocationTrace,
    mapping: PoolMapping,
    energy_model: EnergyModel | None = None,
    configuration_id: str = "",
) -> ProfileResult:
    """One-shot convenience wrapper around :class:`Profiler`."""
    profiler = Profiler(mapping, energy_model)
    return profiler.run(allocator, trace, configuration_id)
