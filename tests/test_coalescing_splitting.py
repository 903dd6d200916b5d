"""Unit tests for coalescing and splitting policies."""

import pytest

from repro.allocator.blocks import Block
from repro.allocator.coalescing import (
    COALESCING_POLICIES,
    DeferredCoalesce,
    ImmediateCoalesce,
    NeverCoalesce,
    coalescing_policy_names,
    make_coalescing_policy,
)
from repro.allocator.errors import ConfigurationError
from repro.allocator.freelist import AddressOrderedFreeList, LIFOFreeList
from repro.allocator.splitting import (
    MIN_REMAINDER_BYTES,
    SPLITTING_POLICIES,
    AlwaysSplit,
    NeverSplit,
    ThresholdSplit,
    make_splitting_policy,
    splitting_policy_names,
)


class TestNeverCoalesce:
    def test_block_unchanged(self):
        free_list = LIFOFreeList()
        free_list.push(Block(address=0, size=32))
        block = Block(address=32, size=32)
        result = NeverCoalesce().on_free(block, free_list)
        assert result.block is block
        assert result.merges == 0


class TestImmediateCoalesce:
    def test_merges_with_predecessor_and_successor(self):
        free_list = AddressOrderedFreeList()
        predecessor = Block(address=0, size=32)
        successor = Block(address=64, size=32)
        free_list.push(predecessor)
        free_list.push(successor)
        block = Block(address=32, size=32)
        result = ImmediateCoalesce().on_free(block, free_list)
        assert result.merges == 2
        assert result.block.address == 0
        assert result.block.size == 96
        assert len(free_list) == 0  # both neighbours removed

    def test_merges_only_adjacent(self):
        free_list = AddressOrderedFreeList()
        free_list.push(Block(address=0, size=16))  # gap between 16 and 32
        block = Block(address=32, size=32)
        result = ImmediateCoalesce().on_free(block, free_list)
        assert result.merges == 0
        assert result.block.size == 32

    def test_works_with_unordered_list(self):
        free_list = LIFOFreeList()
        free_list.push(Block(address=64, size=32))
        free_list.push(Block(address=0, size=32))
        block = Block(address=32, size=32)
        result = ImmediateCoalesce().on_free(block, free_list)
        assert result.merges == 2
        assert result.block.size == 96

    def test_respects_merge_predicate(self):
        free_list = AddressOrderedFreeList()
        free_list.push(Block(address=0, size=32))
        block = Block(address=32, size=32)
        # Forbid every merge (as a chunk boundary would).
        result = ImmediateCoalesce().on_free(block, free_list, lambda low, high: False)
        assert result.merges == 0
        assert result.block.size == 32

    def test_charges_reads_for_neighbour_search(self):
        free_list = LIFOFreeList()
        for address in (0, 100, 200):
            free_list.push(Block(address=address, size=32))
        block = Block(address=300, size=32)
        result = ImmediateCoalesce().on_free(block, free_list)
        assert result.reads == 3  # full scan of an unordered list


class TestDeferredCoalesce:
    def test_no_work_before_interval(self):
        policy = DeferredCoalesce(interval=4)
        free_list = AddressOrderedFreeList()
        block = Block(address=0, size=32)
        policy.on_free(block, free_list)
        free_list.push(block)
        assert policy.maintenance(free_list) is None

    def test_merges_runs_at_interval(self):
        policy = DeferredCoalesce(interval=3)
        free_list = AddressOrderedFreeList()
        for address in (0, 32, 64):
            block = Block(address=address, size=32)
            policy.on_free(block, free_list)
            free_list.push(block)
        result = policy.maintenance(free_list)
        assert result is not None
        assert result.merges == 2
        assert len(free_list) == 1
        assert free_list.blocks()[0].size == 96

    def test_maintenance_respects_merge_predicate(self):
        policy = DeferredCoalesce(interval=2)
        free_list = AddressOrderedFreeList()
        for address in (0, 32):
            block = Block(address=address, size=32)
            policy.on_free(block, free_list)
            free_list.push(block)
        result = policy.maintenance(free_list, lambda low, high: False)
        assert result is not None
        assert result.merges == 0
        assert len(free_list) == 2

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            DeferredCoalesce(interval=0)


class TestCoalescingRegistry:
    def test_all_policies_constructible(self):
        for name in coalescing_policy_names():
            assert make_coalescing_policy(name).policy_name == name

    def test_registry_complete(self):
        assert set(coalescing_policy_names()) == set(COALESCING_POLICIES)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_coalescing_policy("sometimes")

    def test_kwargs_forwarded(self):
        policy = make_coalescing_policy("deferred", interval=7)
        assert policy.interval == 7


class TestNeverSplit:
    def test_never_splits(self):
        block = Block(address=0, size=1024)
        result = NeverSplit().split(block, 64)
        assert not result.did_split
        assert result.allocated.size == 1024


class TestAlwaysSplit:
    def test_splits_when_remainder_large_enough(self):
        block = Block(address=0, size=128)
        result = AlwaysSplit().split(block, 64)
        assert result.did_split
        assert result.allocated.size == 64
        assert result.remainder.address == 64
        assert result.remainder.size == 64

    def test_keeps_small_remainders(self):
        block = Block(address=0, size=64 + MIN_REMAINDER_BYTES - 1)
        result = AlwaysSplit().split(block, 64)
        assert not result.did_split

    def test_remainder_sizes_sum(self):
        block = Block(address=0, size=500)
        result = AlwaysSplit().split(block, 120)
        assert result.allocated.size + result.remainder.size == 500


class TestThresholdSplit:
    def test_splits_above_ratio(self):
        block = Block(address=0, size=300)
        result = ThresholdSplit(ratio=0.5).split(block, 100)
        assert result.did_split

    def test_keeps_below_ratio(self):
        block = Block(address=0, size=140)
        result = ThresholdSplit(ratio=0.5).split(block, 100)
        assert not result.did_split

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ThresholdSplit(ratio=0)
        with pytest.raises(ValueError):
            ThresholdSplit(min_remainder=0)
        with pytest.raises(ValueError):
            AlwaysSplit(min_remainder=-1)


class TestSplittingRegistry:
    def test_all_policies_constructible(self):
        for name in splitting_policy_names():
            assert make_splitting_policy(name).policy_name == name

    def test_registry_complete(self):
        assert set(splitting_policy_names()) == set(SPLITTING_POLICIES)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_splitting_policy("occasionally")
