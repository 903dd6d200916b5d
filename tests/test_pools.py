"""Unit tests for pool implementations (fixed, general, region, slab, buddy,
segregated) and the composed allocator."""

import pytest

from repro.allocator.blocks import gross_block_size
from repro.allocator.buddy import BuddyPool
from repro.allocator.composed import ComposedAllocator
from repro.allocator.errors import (
    ConfigurationError,
    DoubleFreeError,
    InvalidFreeError,
    InvalidRequestError,
    OutOfMemoryError,
)
from repro.allocator.heap import PoolAddressSpace
from repro.allocator.pool import FixedSizePool, GeneralPool, RegionPool
from repro.allocator.segregated import SegregatedFitPool, exact_size_classes
from repro.allocator.slab import SlabPool


class TestFixedSizePool:
    def test_allocate_and_free(self):
        pool = FixedSizePool("p74", 74)
        address = pool.allocate(74)
        assert pool.owns(address)
        pool.free(address)
        assert not pool.owns(address)
        assert pool.stats.alloc_ops == 1
        assert pool.stats.free_ops == 1

    def test_reuses_freed_blocks(self):
        pool = FixedSizePool("p", 64)
        first = pool.allocate(64)
        pool.free(first)
        footprint_before = pool.footprint
        second = pool.allocate(64)
        assert second == first
        assert pool.footprint == footprint_before

    def test_strict_rejects_other_sizes(self):
        pool = FixedSizePool("p", 74, strict=True)
        assert not pool.accepts(73)
        with pytest.raises(InvalidRequestError):
            pool.allocate(73)

    def test_non_strict_accepts_smaller(self):
        pool = FixedSizePool("p", 74, strict=False)
        assert pool.accepts(10)
        assert not pool.accepts(75)

    def test_capacity_limit(self):
        gross = gross_block_size(64)
        space = PoolAddressSpace(capacity=gross * 2, name="p")
        pool = FixedSizePool("p", 64, address_space=space, chunk_blocks=1)
        pool.allocate(64)
        pool.allocate(64)
        with pytest.raises(OutOfMemoryError):
            pool.allocate(64)

    def test_double_free_detected(self):
        pool = FixedSizePool("p", 64)
        address = pool.allocate(64)
        pool.free(address)
        with pytest.raises(DoubleFreeError):
            pool.free(address)

    def test_every_freed_address_is_remembered(self):
        pool = FixedSizePool("p", 32)
        addresses = [pool.allocate(32) for _ in range(64)]
        for address in addresses:
            pool.free(address)
        assert len(pool._freed_addresses) == 64
        # The oldest free is still diagnosed precisely.
        with pytest.raises(DoubleFreeError):
            pool.free(addresses[0])

    def test_recycled_address_frees_once(self):
        pool = FixedSizePool("p", 32)
        address = pool.allocate(32)
        pool.free(address)
        again = pool.allocate(32)  # LIFO recycles the same address
        assert again == address
        pool.free(again)  # a valid free, not a double free
        with pytest.raises(DoubleFreeError):
            pool.free(again)

    def test_invalid_free_detected(self):
        pool = FixedSizePool("p", 64)
        with pytest.raises(InvalidFreeError):
            pool.free(12345)

    def test_zero_size_rejected(self):
        pool = FixedSizePool("p", 64)
        with pytest.raises(InvalidRequestError):
            pool.allocate(0)

    def test_constant_accesses_per_operation(self):
        pool = FixedSizePool("p", 64, chunk_blocks=1)
        costs = []
        previous = 0
        for _ in range(20):
            address = pool.allocate(64)
            pool.free(address)
            total = pool.stats.accesses.total
            costs.append(total - previous)
            previous = total
        # After warm-up, alloc+free cost must not grow with history.
        assert max(costs[2:]) <= costs[1] + 2


class TestGeneralPool:
    def test_allocate_free_roundtrip(self):
        pool = GeneralPool("g")
        addresses = [pool.allocate(size) for size in (24, 100, 700)]
        for address in addresses:
            pool.free(address)
        assert pool.live_blocks == 0

    def test_reuse_after_free(self):
        pool = GeneralPool("g", splitting="never", coalescing="never")
        address = pool.allocate(100)
        pool.free(address)
        footprint = pool.footprint
        again = pool.allocate(100)
        assert pool.footprint == footprint
        assert again == address

    def test_splitting_reduces_internal_fragmentation(self):
        never = GeneralPool("never", splitting="never", coalescing="never", chunk_size=4096)
        always = GeneralPool("always", splitting="always", coalescing="never", chunk_size=4096)
        for pool in (never, always):
            big = pool.allocate(2000)
            pool.free(big)
            pool.allocate(50)
        assert always.stats.live_gross < never.stats.live_gross

    def test_coalescing_reduces_footprint_growth(self):
        # Allocate and free many variable blocks; a coalescing pool can then
        # serve a large request without growing, a non-coalescing one cannot.
        def run(coalescing):
            pool = GeneralPool(
                "g",
                free_list="address_ordered",
                fit="first_fit",
                coalescing=coalescing,
                splitting="always",
                chunk_size=2048,
            )
            addresses = [pool.allocate(100) for _ in range(16)]
            for address in addresses:
                pool.free(address)
            pool.allocate(900)
            return pool.stats.peak_footprint

        assert run("immediate") <= run("never")

    def test_max_block_size_enforced(self):
        pool = GeneralPool("g", max_block_size=256)
        assert not pool.accepts(257)
        with pytest.raises(InvalidRequestError):
            pool.allocate(300)

    def test_accesses_grow_with_free_list_length_for_exhaustive_fits(self):
        pool = GeneralPool("g", fit="worst_fit", coalescing="never", splitting="never")
        # Build a long free list of varied sizes.
        addresses = [pool.allocate(16 + 8 * i) for i in range(50)]
        for address in addresses:
            pool.free(address)
        before = pool.stats.accesses.total
        pool.allocate(16)
        after = pool.stats.accesses.total
        assert after - before >= 50  # scanned the whole list

    def test_merge_never_crosses_chunk_boundaries(self):
        pool = GeneralPool(
            "g",
            free_list="address_ordered",
            coalescing="immediate",
            splitting="never",
            chunk_size=128,
        )
        first = pool.allocate(100)   # chunk 1
        second = pool.allocate(100)  # chunk 2 (does not fit chunk 1)
        pool.free(first)
        pool.free(second)
        largest = pool.free_list.largest_block()
        assert largest.size <= 128

    def test_oom_with_bounded_space(self):
        pool = GeneralPool("g", address_space=PoolAddressSpace(capacity=256, name="g"))
        with pytest.raises(OutOfMemoryError):
            for _ in range(10):
                pool.allocate(100)


class TestRegionPool:
    def test_bump_allocation(self):
        pool = RegionPool("r")
        first = pool.allocate(100)
        second = pool.allocate(100)
        assert second > first

    def test_free_does_not_reclaim(self):
        pool = RegionPool("r")
        address = pool.allocate(100)
        footprint = pool.footprint
        pool.free(address)
        assert pool.footprint == footprint

    def test_reset_region_reclaims_everything(self):
        pool = RegionPool("r")
        for _ in range(10):
            pool.allocate(200)
        pool.reset_region()
        assert pool.footprint == 0
        assert pool.live_blocks == 0


    def test_reset_region_clears_freed_addresses(self):
        pool = RegionPool("r")
        address = pool.allocate(100)
        pool.free(address)
        with pytest.raises(DoubleFreeError):
            pool.free(address)
        pool.reset_region()
        assert len(pool._freed_addresses) == 0
        # After the reset the address was never handed out: not a double free.
        with pytest.raises(InvalidFreeError) as excinfo:
            pool.free(address)
        assert not isinstance(excinfo.value, DoubleFreeError)


class TestSlabPool:
    def test_allocate_free_roundtrip(self):
        pool = SlabPool("s", 64)
        address = pool.allocate(64)
        pool.free(address)
        assert pool.live_blocks == 0

    def test_slab_reuse_within_slab(self):
        pool = SlabPool("s", 64, release_empty=False)
        first = pool.allocate(64)
        pool.allocate(64)
        pool.free(first)
        again = pool.allocate(64)
        assert again == first

    def test_empty_slab_released_shrinks_footprint(self):
        pool = SlabPool("s", 64, slab_bytes=1024, release_empty=True)
        addresses = [pool.allocate(64) for _ in range(4)]
        assert pool.footprint > 0
        for address in addresses:
            pool.free(address)
        assert pool.footprint == 0
        assert pool.slab_count == 0

    def test_without_release_footprint_persists(self):
        pool = SlabPool("s", 64, slab_bytes=1024, release_empty=False)
        address = pool.allocate(64)
        pool.free(address)
        assert pool.footprint == 1024

    def test_strict_mode(self):
        pool = SlabPool("s", 64, strict=True)
        assert pool.accepts(64)
        assert not pool.accepts(63)

    def test_slab_too_small_rejected(self):
        with pytest.raises(ValueError):
            SlabPool("s", 4096, slab_bytes=1024)


class TestBuddyPool:
    def test_allocate_free_roundtrip(self):
        pool = BuddyPool("b", arena_size=4096, min_block=64)
        address = pool.allocate(100)
        pool.free(address)
        assert pool.live_blocks == 0
        assert pool.free_bytes == 4096

    def test_block_sizes_are_powers_of_two(self):
        pool = BuddyPool("b", arena_size=4096, min_block=64)
        pool.allocate(100)
        block = next(iter(pool._live.values()))
        assert block.size & (block.size - 1) == 0

    def test_buddies_recombine(self):
        pool = BuddyPool("b", arena_size=1024, min_block=64)
        addresses = [pool.allocate(50) for _ in range(4)]
        for address in addresses:
            pool.free(address)
        # After freeing everything, the arena must be a single free block again.
        assert pool.free_bytes == 1024
        assert len(pool._free_offsets[pool._max_order]) == 1

    def test_arena_exhaustion(self):
        pool = BuddyPool("b", arena_size=1024, min_block=64)
        with pytest.raises(OutOfMemoryError):
            for _ in range(64):
                pool.allocate(64)

    def test_oversized_request_rejected(self):
        pool = BuddyPool("b", arena_size=1024, min_block=64)
        with pytest.raises(InvalidRequestError):
            pool.allocate(4096)

    def test_footprint_is_arena_size_once_used(self):
        pool = BuddyPool("b", arena_size=2048, min_block=64)
        pool.allocate(64)
        assert pool.footprint == 2048


class TestSegregatedFitPool:
    def test_requests_rounded_to_class(self):
        pool = SegregatedFitPool("seg")
        address = pool.allocate(70)  # lands in the 65..128 class
        block = pool._live[address]
        assert block.size == gross_block_size(128)
        pool.free(address)

    def test_exact_classes(self):
        pool = SegregatedFitPool("seg", size_classes=exact_size_classes([74, 1500]))
        assert pool.accepts(74)
        assert pool.accepts(1500)
        assert not pool.accepts(100)

    def test_free_returns_to_right_class(self):
        pool = SegregatedFitPool("seg", size_classes=exact_size_classes([64, 256]))
        address = pool.allocate(64)
        pool.free(address)
        assert len(pool.free_list_for(64)) >= 1
        assert len(pool.free_list_for(256)) == 0

    def test_unknown_size_rejected(self):
        pool = SegregatedFitPool("seg", size_classes=exact_size_classes([64]))
        with pytest.raises(InvalidRequestError):
            pool.allocate(65)

    def test_overlapping_classes_rejected(self):
        from repro.allocator.blocks import SizeClass

        with pytest.raises(ValueError):
            SegregatedFitPool("seg", size_classes=[SizeClass(1, 64), SizeClass(32, 128)])

    def test_constant_time_reuse(self):
        pool = SegregatedFitPool("seg", size_classes=exact_size_classes([64]))
        address = pool.allocate(64)
        pool.free(address)
        before = pool.stats.accesses.total
        pool.allocate(64)
        assert pool.stats.accesses.total - before <= 5


class TestComposedAllocator:
    def make_allocator(self):
        dedicated = FixedSizePool("d74", 74, strict=True)
        general = GeneralPool("general")
        return ComposedAllocator([dedicated, general], name="test")

    def test_routing_by_size(self):
        allocator = self.make_allocator()
        hot = allocator.malloc(74)
        cold = allocator.malloc(200)
        assert allocator.owner_of(hot).name == "d74"
        assert allocator.owner_of(cold).name == "general"

    def test_free_routed_to_owner(self):
        allocator = self.make_allocator()
        address = allocator.malloc(74)
        allocator.free(address)
        assert allocator.pool_named("d74").stats.free_ops == 1
        assert allocator.pool_named("general").stats.free_ops == 0

    def test_unknown_free_rejected(self):
        allocator = self.make_allocator()
        with pytest.raises(InvalidFreeError):
            allocator.free(999999)

    def test_spill_to_fallback_on_capacity(self):
        gross = gross_block_size(74)
        dedicated = FixedSizePool(
            "d74", 74, strict=True,
            address_space=PoolAddressSpace(capacity=gross, name="d74"),
            chunk_blocks=1,
        )
        general = GeneralPool("general")
        allocator = ComposedAllocator([dedicated, general])
        first = allocator.malloc(74)
        second = allocator.malloc(74)  # dedicated pool full -> spills
        assert allocator.owner_of(first).name == "d74"
        assert allocator.owner_of(second).name == "general"

    def test_total_oom_raised(self):
        only = GeneralPool("g", address_space=PoolAddressSpace(capacity=128, name="g"))
        allocator = ComposedAllocator([only])
        with pytest.raises(OutOfMemoryError):
            for _ in range(10):
                allocator.malloc(64)

    def test_stats_aggregation(self):
        allocator = self.make_allocator()
        for size in (74, 74, 300):
            allocator.malloc(size)
        stats = allocator.stats
        assert stats.total_alloc_ops == 3
        assert allocator.total_accesses >= stats.total_accesses
        assert set(allocator.accesses_by_pool()) == {"d74", "general"}

    def test_duplicate_pool_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ComposedAllocator([FixedSizePool("p", 64), FixedSizePool("p", 32)])

    def test_empty_pool_list_rejected(self):
        with pytest.raises(ConfigurationError):
            ComposedAllocator([])

    def test_leak_check(self):
        allocator = self.make_allocator()
        address = allocator.malloc(74)
        assert not allocator.check_all_freed()
        allocator.free(address)
        assert allocator.check_all_freed()


#: One small pool of every kind, each serving 32-byte requests.
POOL_KINDS = {
    "buddy": lambda: BuddyPool("p", arena_size=4096, min_block=32),
    "fixed": lambda: FixedSizePool("p", 32),
    "general": lambda: GeneralPool("p"),
    "region": lambda: RegionPool("p"),
    "segregated": lambda: SegregatedFitPool("p", size_classes=exact_size_classes([32])),
    "slab": lambda: SlabPool("p", 32, release_empty=False),
}


class TestDoubleFreeDetection:
    """Every pool kind remembers every address it freed until it hands
    that address out again."""

    @pytest.mark.parametrize("kind", sorted(POOL_KINDS))
    def test_oldest_double_free_is_diagnosed(self, kind):
        pool = POOL_KINDS[kind]()
        addresses = [pool.allocate(32) for _ in range(16)]
        for address in addresses:
            pool.free(address)
        assert set(addresses) <= pool._freed_addresses
        with pytest.raises(DoubleFreeError):
            pool.free(addresses[0])
        assert pool.stats.free_ops == 16
