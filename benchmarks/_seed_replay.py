"""Executable snapshot of the *seed* evaluation hot path.

The columnar-replay PR rewrote the whole profiling hot path: the replay
loop (compiled columnar traces + inline fixed-pool kernels), the composed
allocator's dispatch (memoised size→pool routing table instead of a
per-event ``accepts()`` scan), the pool counter updates (direct attribute
arithmetic instead of AccessCounter/PoolStats helper calls), and the LIFO
free list (O(1) tail storage instead of O(n) head insertion).

``BENCH_eval.json`` must state the win of that rewrite against what the
repository actually shipped before it — code that only exists in git
history.  This module keeps a faithful, verbatim copy of the seed
implementations (behaviour-identical, performance-faithful) so the
benchmark can execute both generations side by side and assert they still
produce byte-identical metrics.  Only the benchmarks and the replay
identity tests import this module.
"""

from __future__ import annotations

from repro.allocator.blocks import Block
from repro.allocator.composed import ComposedAllocator
from repro.allocator.errors import InvalidRequestError, OutOfMemoryError
from repro.allocator.freelist import FreeList, LIFOFreeList
from repro.allocator.pool import FixedSizePool, GeneralPool
from repro.allocator.pool import gross_block_size
from repro.profiling.metrics import MetricSet, ProfileResult
from repro.profiling.profiler import DEFAULT_PAYLOAD_ACCESS_FACTOR, Profiler

__all__ = ["SeedProfiler", "seedify_allocator"]


class SeedLIFOFreeList(FreeList):
    """The seed LIFO list: newest-first storage, O(n) head insertion."""

    policy_name = "lifo"

    def push(self, block: Block) -> None:
        self._blocks.insert(0, block)
        self.last_insertion_visits = 1

    def pop_front(self) -> Block:
        if not self._blocks:
            raise IndexError("pop from empty free list")
        return self._blocks.pop(0)


class SeedFixedSizePool(FixedSizePool):
    """Seed ``allocate``/``free``: helper-method counters, no inlining."""

    def allocate(self, size: int) -> int:
        self._check_size(size)
        if not self.accepts(size):
            self.stats.failed_allocs += 1
            raise InvalidRequestError(
                f"pool '{self.name}' only serves blocks up to {self.block_size} bytes, "
                f"got request for {size}"
            )
        if len(self.free_list) > 0:
            block = self.free_list.pop_front()
            self.stats.accesses.read(1)
            self.stats.accesses.write(1)
            self.stats.free_list_visits += 1
        else:
            try:
                chunk = self._grow(self.gross_size)
            except OutOfMemoryError:
                self.stats.failed_allocs += 1
                raise
            block = Block(chunk.address, self.gross_size, pool_name=self.name)
            carved = 1
            offset = chunk.address + self.gross_size
            while offset + self.gross_size <= chunk.end:
                self.free_list.push(
                    Block(offset, self.gross_size, pool_name=self.name)
                )
                offset += self.gross_size
                carved += 1
            self.stats.accesses.write(carved)
        self.stats.accesses.write(1)
        self._register_live(block, size)
        return block.address

    def free(self, address: int) -> None:
        block = self._take_live(address)
        self.stats.accesses.read(1)
        self.stats.accesses.write(1)
        self.free_list.push(block)


class SeedGeneralPool(GeneralPool):
    """Seed ``allocate``/``free``: helper-method counters throughout."""

    def allocate(self, size: int) -> int:
        self._check_size(size)
        if not self.accepts(size):
            self.stats.failed_allocs += 1
            raise InvalidRequestError(
                f"pool '{self.name}' only serves blocks up to {self.max_block_size} bytes, "
                f"got request for {size}"
            )
        gross = gross_block_size(size, self.alignment)
        result = self.fit.select(self.free_list, gross)
        self.stats.accesses.read(result.visits)
        self.stats.free_list_visits += result.visits
        if result.found:
            block = result.block
            self.free_list.remove(block)
            self.stats.accesses.write(1)
            split = self.splitting.split(block, gross)
            if split.did_split:
                self.stats.splits += 1
                self.stats.accesses.write(split.writes)
                self.free_list.push(split.remainder)
                self.stats.accesses.read(self.free_list.last_insertion_visits)
                self.stats.accesses.write(1)
                block = split.allocated
        else:
            block = self._grow_and_carve(gross)
        self.stats.accesses.write(1)
        self._register_live(block, size)
        return block.address

    def free(self, address: int) -> None:
        block = self._take_live(address)
        self.stats.accesses.read(1)
        outcome = self.coalescing.on_free(block, self.free_list, self._may_merge)
        self.stats.accesses.read(outcome.reads)
        self.stats.accesses.write(outcome.writes)
        self.stats.coalesces += outcome.merges
        self.free_list.push(outcome.block)
        self.stats.accesses.read(self.free_list.last_insertion_visits)
        self.stats.accesses.write(1)
        maintenance = self.coalescing.maintenance(self.free_list, self._may_merge)
        if maintenance is not None:
            self.stats.accesses.read(maintenance.reads)
            self.stats.accesses.write(maintenance.writes)
            self.stats.coalesces += maintenance.merges


class SeedComposedAllocator(ComposedAllocator):
    """Seed ``malloc``: per-event ``accepts()`` scan over the pool bank."""

    def malloc(self, size: int) -> int:
        self._dispatch_accesses += 1
        last_oom: OutOfMemoryError | None = None
        for pool in self.pools:
            if not pool.accepts(size):
                continue
            try:
                address = pool.allocate(size)
            except OutOfMemoryError as exc:
                last_oom = exc
                continue
            self._owner_of[address] = pool
            return address
        if last_oom is not None:
            raise last_oom
        raise OutOfMemoryError(size, pool=self.name)


class SeedProfiler(Profiler):
    """Seed ``run``/``_collect``: event-object loop, full-trace recount."""

    def run(self, allocator, trace, configuration_id=""):
        address_of = {}
        payload_accesses_by_pool = {}
        oom_failures = 0

        for event in trace:
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
                        + event.size * DEFAULT_PAYLOAD_ACCESS_FACTOR
                    )
            else:
                address = address_of.pop(event.request_id, None)
                if address is None:
                    continue
                allocator.free(address)

        result = self._seed_collect(
            allocator, trace, configuration_id, payload_accesses_by_pool
        )
        result.per_pool["__profile__"] = {"oom_failures": oom_failures}
        return result

    def _seed_collect(
        self, allocator, trace, configuration_id, payload_accesses_by_pool
    ) -> ProfileResult:
        from repro.memhier.access import breakdown_accesses, footprint_by_level

        breakdown = breakdown_accesses(allocator, self.mapping)
        footprints = footprint_by_level(allocator, self.mapping, peak=True)
        allocator_accesses = breakdown.total
        for pool_name, payload_accesses in payload_accesses_by_pool.items():
            module = self.mapping.module_of(pool_name)
            level = breakdown.level(module.name)
            level.reads += int(payload_accesses / 2)
            level.writes += int(payload_accesses / 2)

        result = ProfileResult(
            configuration_id=configuration_id or allocator.name,
            trace_name=trace.name,
        )
        # The seed re-iterated the entire trace just to count operations.
        operation_count = sum(1 for _ in trace)
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
            result.per_pool[pool.name]["module"] = self.mapping.module_of(
                pool.name
            ).name
        return result


def seedify_allocator(allocator: ComposedAllocator) -> ComposedAllocator:
    """Downgrade a freshly built allocator to the seed implementations.

    Swaps the classes of the composed allocator and its fixed/general pools
    to the seed snapshots above and replaces stock LIFO free lists with the
    seed O(n) variant.  Only valid on an unused allocator (empty free lists,
    no live blocks) — which is exactly what the factory hands out.
    """
    if allocator.live_blocks or any(
        len(getattr(pool, "free_list", ())) for pool in allocator.pools
    ):
        raise ValueError("seedify_allocator needs a freshly built allocator")
    for pool in allocator.pools:
        if type(pool) is FixedSizePool:
            pool.__class__ = SeedFixedSizePool
        elif type(pool) is GeneralPool:
            pool.__class__ = SeedGeneralPool
        if type(getattr(pool, "free_list", None)) is LIFOFreeList:
            pool.free_list = SeedLIFOFreeList()
    allocator.__class__ = SeedComposedAllocator
    return allocator
