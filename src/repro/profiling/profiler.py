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

One replay kernel and one oracle produce byte-identical results:

* the **fast kernel** (:meth:`SegmentReplaySession._replay_segment_fast`,
  the default) iterates columnar :class:`~repro.profiling.compiled
  .CompiledTrace` segments — no event objects, live addresses in a flat
  slot table, the composed allocator's size→pool routing table instead of
  per-event ``accepts()`` scans, and an inline kernel for dedicated
  fixed-size pools whose :class:`~repro.allocator.stats.PoolStats` counter
  updates are batched into local integers and flushed once per segment.
  It serves one-shot replay (:meth:`Profiler.run` replays the whole trace
  as a single segment), streaming and windowed replay alike;
* the **event loop** (:meth:`Profiler._replay_events`) walks the event
  objects and calls ``malloc``/``free`` per event.  It is the only oracle:
  the executable specification the fast kernel is tested against (see
  ``tests/test_replay_identity.py`` and ``tests/test_stream.py``).  It serves
  exactly what the kernel cannot express: an allocator that is not exactly
  a :class:`~repro.allocator.composed.ComposedAllocator` (the identity
  suites reach the oracle through a trivial subclass), and a trace that
  re-binds a live request id.

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
from ..allocator.pool import FixedSizePool
from ..memhier.access import breakdown_accesses, footprint_by_level
from ..memhier.energy import EnergyModel
from ..memhier.mapping import PoolMapping
from .compiled import CompiledTrace
from .events import AllocationEvent
from .metrics import MetricSet, ProfileResult
from .tracer import AllocationTrace

#: Application data accesses charged per allocated payload byte (one write to
#: initialise plus an average of one read of the data during its lifetime).
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
        or through the event loop for an allocator the kernel does not take
        and for a malformed trace that re-binds a live request id (which a
        streaming session on the kernel refuses; see
        :attr:`CompiledTrace.has_live_rebinding`).
        """
        session = SegmentReplaySession(self, allocator, name=trace.name)
        compiled = trace.compiled() if session._fast else None
        if compiled is not None and not compiled.has_live_rebinding:
            session.replay_segment(compiled)
        else:
            session._fast = False
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


class SegmentReplaySession:
    """Replays :class:`CompiledTrace` *segments*, carrying state across them.

    The profiler's one replay kernel.  :meth:`Profiler.run` replays a whole
    trace as a single segment; the streaming layer (:mod:`repro.stream`)
    feeds bounded segments of an unbounded stream through one allocator.
    The final :class:`~repro.profiling.metrics.ProfileResult` is
    byte-identical to the event loop over the whole trace, for any
    segmentation (property-tested in ``tests/test_stream.py``).

    How the identity is kept:

    * kernel eligibility is recomputed per segment: a pool warmed by an
      earlier segment drops to its own ``allocate``/``free`` methods;
    * allocations surviving a segment are carried in a ``global slot ->
      (address, pool position, size)`` table; a FREE whose slot predates the
      segment (``slot < slot_base``) releases through the owning pool
      exactly as :meth:`ComposedAllocator.free` would (dispatch charge,
      owner-map pop, ``pool.free``);
    * payload-access attribution and OOM counts accumulate across segments
      in event order.

    Between segments the caller may take a :meth:`snapshot` — a cumulative
    :class:`ProfileResult` at the segment boundary — which is what windowed
    analysis differentiates into per-window metrics.

    An allocator that is not exactly a :class:`ComposedAllocator` sends each
    segment's reconstructed events through the event loop,
    :meth:`Profiler._replay_events`, with the live address table carried
    instead; streams that re-bind a live request id (malformed; rejected by
    ``AllocationTrace.validate``) are only supported that way.
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
        # The kernel manipulates ComposedAllocator internals (owner map,
        # dispatch counter); a subclass could redefine those, so only the
        # exact type takes it.
        self._fast = type(allocator) is ComposedAllocator
        self.oom_failures = 0
        self.events_seen = 0
        #: global slot -> (address, pool position, payload size) of
        #: allocations alive across a segment boundary (the kernel).
        self._survivors: dict[int, tuple[int, int, int]] = {}
        #: request id -> address of live allocations (the event loop).
        self._address_of: dict[int, int] = {}
        # Payload-access accumulation per pool position in global
        # first-touch order — the insertion order of the event loop's dict.
        pool_count = len(allocator.pools)
        self._payload_totals = [0.0] * pool_count
        self._payload_touched = [False] * pool_count
        self._payload_order: list[int] = []
        self._payload_by_name: dict[str, float] = {}

    # -- segment replay ----------------------------------------------------

    def replay_segment(self, segment: CompiledTrace) -> None:
        """Replay one segment, updating the carried state."""
        if self._fast:
            if segment.has_live_rebinding:
                raise ValueError(
                    "segment replay requires a well-formed trace (an ALLOC "
                    "re-binds a live request id); only the event loop, taken "
                    "by a ComposedAllocator subclass, replays such a stream"
                )
            self._replay_segment_fast(segment)
        else:
            self._replay_events(segment.events())
        self.events_seen += len(segment)

    def _replay_events(self, events: Iterable[AllocationEvent]) -> None:
        """Event-loop replay (the reference semantics) on the carried state."""
        self.oom_failures += self.profiler._replay_events(
            self.allocator,
            events,
            self._address_of,
            self._payload_by_name,
        )

    def _replay_segment_fast(self, segment: CompiledTrace) -> None:
        """Replay one segment through the columnar kernel (module docstring).

        The slot table is local to the segment (``slot - slot_base``); a
        FREE of an earlier segment's allocation goes through the carried
        survivor table.
        """
        allocator = self.allocator
        factor = DEFAULT_PAYLOAD_ACCESS_FACTOR

        kinds = segment.kinds
        sizes = segment.sizes
        slots = segment.slots
        slot_sizes = segment.slot_sizes
        slot_base = segment.slot_base

        pools = allocator.pools
        pool_count = len(pools)
        position_of = {pool: index for index, pool in enumerate(pools)}
        owner_of = allocator._owner_of
        stats_of = [pool.stats for pool in pools]
        live_of = [pool._live for pool in pools]
        freed_of = [pool._freed_addresses for pool in pools]
        gross_of = [getattr(pool, "gross_size", 0) for pool in pools]
        spaces = [pool.space for pool in pools]
        payload_totals = self._payload_totals
        payload_touched = self._payload_touched
        payload_order = self._payload_order
        survivors = self._survivors

        # Inline-kernel state per pool position.  A pool is kernel-eligible
        # when it is an exact FixedSizePool with the stock LIFO free list
        # and no blocks yet (what the factory hands out, or a pool no
        # earlier segment touched): the kernel then tracks its free list as
        # a plain stack of *addresses* and rebuilds the Block-level pool
        # state once, at flush time — every fixed-pool block has the pool's
        # gross size, so the block objects carry no information the flush
        # cannot reconstruct.  A pool warmed by an earlier segment drops to
        # its own allocate/free.
        int_stacks: list[list | None] = [None] * pool_count
        lists_: list[LIFOFreeList | None] = [None] * pool_count
        carve_pushed = [False] * pool_count
        for index, pool in enumerate(pools):
            if (
                type(pool) is FixedSizePool
                and type(pool.free_list) is LIFOFreeList
                and not pool.free_list._blocks
                and not pool._live
            ):
                int_stacks[index] = []
                lists_[index] = pool.free_list

        # Batched PoolStats deltas: a warm kernel allocate always charges
        # 1 read + 2 writes + 1 visit and a kernel free 1 read + 1 write,
        # so two counters per pool capture everything and the flush derives
        # the reads/writes/visits/ops/live deltas once per segment.  Peaked
        # quantities (live_payload/peak_live_payload, footprint) are NOT
        # batched: they are order-sensitive, so the kernel updates them on
        # the stats object in event order like every other path does.
        warm_allocs = [0] * pool_count
        warm_frees = [0] * pool_count

        # size -> (route entries, position of a kernel-backed first pool or
        # -1).  Entries pair each routed pool with its position so the slow
        # path can run the kernel for fixed pools at *any* route position
        # (capacity spills may reach a second dedicated pool).  Plans are
        # per segment because they bake in kernel eligibility.
        plans: dict[int, tuple[tuple, int]] = {}
        routed_pools = allocator.routed_pools

        # Per-slot live address and owning-pool position.  The owner map of
        # the allocator is reconciled once at flush time (surviving slots in
        # allocation order — the exact content and order the per-event dict
        # maintenance would leave behind).
        addresses: list[int | None] = [None] * segment.slot_count
        owners = bytearray(segment.slot_count) if pool_count <= 255 else None
        if owners is None:  # pragma: no cover - absurd pool count
            owners = [0] * segment.slot_count
        oom_failures = 0
        dispatch = 0

        def allocate_slow(size: int, entries: tuple) -> tuple:
            """Route ``size`` along the plan: cold kernel pools (grow and
            carve), non-kernel pools and capacity spills.  Returns
            ``(address, position)``, ``address`` None on OOM."""
            for pool, position in entries:
                stack = int_stacks[position]
                if stack is None:
                    try:
                        return pool.allocate(size), position
                    except OutOfMemoryError:
                        continue
                stats = stats_of[position]
                if stack:
                    # Warm kernel allocate reached through a spill.
                    address = stack.pop()
                    warm_allocs[position] += 1
                else:
                    # Cold kernel allocate: grow the backing store and
                    # carve it (inlined FixedSizePool cold path — direct
                    # stats updates, they commute with the batched ones).
                    gross = gross_of[position]
                    try:
                        grown = spaces[position].grow(gross)
                    except OutOfMemoryError:
                        stats.failed_allocs += 1
                        continue
                    footprint = stats.footprint + grown.size
                    stats.footprint = footprint
                    if footprint > stats.peak_footprint:
                        stats.peak_footprint = footprint
                    count = grown.size // gross
                    address = grown.start
                    if count > 1:
                        stack.extend(
                            range(address + gross, address + count * gross, gross)
                        )
                        carve_pushed[position] = True
                    stats.accesses.writes += count + 1
                    stats.alloc_ops += 1
                    stats.live_blocks += 1
                    stats.live_gross += gross
                live_payload = stats.live_payload + size
                stats.live_payload = live_payload
                if live_payload > stats.peak_live_payload:
                    stats.peak_live_payload = live_payload
                freed_of[position].discard(address)
                return address, position
            return None, -1

        try:
            for index, kind in enumerate(kinds):
                if kind:
                    size = sizes[index]
                    plan = plans.get(size)
                    if plan is None:
                        route = routed_pools(size)
                        entries = tuple(
                            (pool, position_of[pool]) for pool in route
                        )
                        first = entries[0][1] if entries else -1
                        if first >= 0 and int_stacks[first] is None:
                            first = -1
                        plan = (entries, first)
                        plans[size] = plan
                    entries, first = plan
                    dispatch += 1
                    if first >= 0:
                        stack = int_stacks[first]
                        if stack:
                            # Inline FixedSizePool allocate, warm path: pop
                            # the newest free address, charge one read + two
                            # writes (head follow, head update, header) —
                            # batched into warm_allocs.
                            address = stack.pop()
                            warm_allocs[first] += 1
                            stats = stats_of[first]
                            live_payload = stats.live_payload + size
                            stats.live_payload = live_payload
                            if live_payload > stats.peak_live_payload:
                                stats.peak_live_payload = live_payload
                            freed_of[first].discard(address)
                            local = slots[index] - slot_base
                            addresses[local] = address
                            owners[local] = first
                            payload_totals[first] += size * factor
                            if not payload_touched[first]:
                                payload_touched[first] = True
                                payload_order.append(first)
                            continue
                    address, position = allocate_slow(size, entries)
                    if address is None:
                        oom_failures += 1
                        continue
                    local = slots[index] - slot_base
                    addresses[local] = address
                    owners[local] = position
                    payload_totals[position] += size * factor
                    if not payload_touched[position]:
                        payload_touched[position] = True
                        payload_order.append(position)
                else:
                    slot = slots[index]
                    if slot >= slot_base:
                        # Same-segment free: the local slot table.
                        local = slot - slot_base
                        address = addresses[local]
                        if address is None:
                            # Double free in the trace, or the matching
                            # allocation failed (OOM): skipped.
                            continue
                        addresses[local] = None
                        dispatch += 1
                        position = owners[local]
                        stack = int_stacks[position]
                        if stack is not None:
                            # Inline FixedSizePool free: header read +
                            # free-list link write (batched into
                            # warm_frees), push the address back.
                            freed_of[position].add(address)
                            warm_frees[position] += 1
                            stats_of[position].live_payload -= slot_sizes[local]
                            stack.append(address)
                        else:
                            pools[position].free(address)
                    elif slot >= 0:
                        # Cross-segment free: release through the carried
                        # survivor table, exactly as ComposedAllocator.free
                        # would (dispatch charge, owner pop, pool free).
                        entry = survivors.pop(slot, None)
                        if entry is None:
                            continue
                        address, position, _size = entry
                        dispatch += 1
                        owner_of.pop(address, None)
                        pools[position].free(address)
                    else:
                        # Never-allocated id or double free: skipped.
                        continue
        finally:
            allocator._dispatch_accesses += dispatch
            for position in range(pool_count):
                allocs = warm_allocs[position]
                frees = warm_frees[position]
                if allocs or frees:
                    stats = stats_of[position]
                    accesses = stats.accesses
                    accesses.reads += allocs + frees
                    accesses.writes += 2 * allocs + frees
                    stats.free_list_visits += allocs
                    stats.alloc_ops += allocs
                    stats.free_ops += frees
                    stats.live_blocks += allocs - frees
                    stats.live_gross += (allocs - frees) * gross_of[position]
                stack = int_stacks[position]
                if stack is None:
                    continue
                # Rebuild the Block-level free list the event loop would
                # have left behind (same order, same field values).
                if stack:
                    gross = gross_of[position]
                    name = pools[position].name
                    lists_[position]._blocks += [
                        Block(address, gross, pool_name=name) for address in stack
                    ]
                if frees or carve_pushed[position]:
                    # The legacy push() records its single-node visit.
                    lists_[position].last_insertion_visits = 1
            # Reconcile this segment's survivors into the owner map, the
            # kernel pools' live tables, and the carried survivor table —
            # in allocation order, exactly what per-event maintenance
            # leaves behind.
            for local, address in enumerate(addresses):
                if address is not None:
                    position = owners[local]
                    pool = pools[position]
                    owner_of[address] = pool
                    if int_stacks[position] is not None:
                        live_of[position][address] = Block(
                            address,
                            gross_of[position],
                            BlockStatus.ALLOCATED,
                            slot_sizes[local],
                            pool.name,
                        )
                    survivors[slot_base + local] = (
                        address,
                        position,
                        slot_sizes[local],
                    )
            self.oom_failures += oom_failures

    # -- results -----------------------------------------------------------

    def _payload_accesses(self) -> dict[str, float]:
        if self._fast:
            pools = self.allocator.pools
            return {
                pools[position].name: self._payload_totals[position]
                for position in self._payload_order
            }
        return dict(self._payload_by_name)

    def snapshot(self, configuration_id: str = "") -> ProfileResult:
        """Cumulative :class:`ProfileResult` at the current segment boundary.

        A pure read of the live counters — taking snapshots does not change
        what later segments or :meth:`finish` produce.  Windowed analysis
        differentiates consecutive snapshots into per-window metrics.
        """
        return self.profiler._collect(
            self.allocator,
            self.name,
            self.events_seen,
            configuration_id,
            self._payload_accesses(),
        )

    def finish(self, configuration_id: str = "") -> ProfileResult:
        """Final :class:`ProfileResult` over everything replayed so far.

        Byte-identical to what the event loop produces for the concatenated
        trace (same totals, per-level metrics, per-pool snapshots and
        ``__profile__`` section).
        """
        result = self.snapshot(configuration_id)
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
