"""Unit tests for fit policies (repro.allocator.fit)."""

import pytest

from repro.allocator.blocks import Block
from repro.allocator.errors import ConfigurationError
from repro.allocator.fit import (
    FIT_POLICIES,
    BestFit,
    ExactFit,
    FirstFit,
    NextFit,
    WorstFit,
    fit_policy_names,
    make_fit_policy,
)
from repro.allocator.freelist import FIFOFreeList, SizeOrderedFreeList


def make_list(sizes):
    """FIFO free list whose blocks have the given sizes, in order."""
    free_list = FIFOFreeList()
    address = 0
    for size in sizes:
        free_list.push(Block(address=address, size=size))
        address += size
    return free_list


class TestFirstFit:
    def test_takes_first_large_enough(self):
        free_list = make_list([16, 64, 128])
        result = FirstFit().select(free_list, 32)
        assert result.found
        assert result.block.size == 64
        assert result.visits == 2

    def test_no_fit(self):
        free_list = make_list([16, 32])
        result = FirstFit().select(free_list, 64)
        assert not result.found
        assert result.visits == 2

    def test_empty_list(self):
        result = FirstFit().select(FIFOFreeList(), 8)
        assert not result.found
        assert result.visits == 0


class TestNextFit:
    def test_resumes_after_previous_position(self):
        free_list = make_list([64, 64, 64])
        policy = NextFit()
        first = policy.select(free_list, 32)
        second = policy.select(free_list, 32)
        assert first.block is not second.block

    def test_wraps_around(self):
        free_list = make_list([64, 16, 16])
        policy = NextFit()
        policy.select(free_list, 32)  # takes index 0, rover at 1
        result = policy.select(free_list, 32)  # wraps back to index 0
        assert result.found
        assert result.block.size == 64


class TestBestFit:
    def test_selects_smallest_adequate(self):
        free_list = make_list([128, 48, 64])
        result = BestFit().select(free_list, 40)
        assert result.block.size == 48
        assert result.visits == 3

    def test_early_exit_on_exact_match(self):
        free_list = make_list([48, 128, 64])
        result = BestFit().select(free_list, 48)
        assert result.block.size == 48
        assert result.visits == 1

    def test_short_circuits_on_size_ordered_list(self):
        free_list = SizeOrderedFreeList()
        for size in [16, 48, 64, 128]:
            free_list.push(Block(address=size * 10, size=size))
        result = BestFit().select(free_list, 40)
        assert result.block.size == 48
        assert result.visits == 2  # 16 then 48, then stop


class TestWorstFit:
    def test_selects_largest(self):
        free_list = make_list([48, 128, 64])
        result = WorstFit().select(free_list, 40)
        assert result.block.size == 128
        assert result.visits == 3

    def test_always_scans_everything(self):
        free_list = make_list([100, 100, 100, 100])
        result = WorstFit().select(free_list, 10)
        assert result.visits == 4


class TestExactFit:
    def test_only_exact_match(self):
        free_list = make_list([48, 64])
        assert ExactFit().select(free_list, 64).found
        assert not ExactFit().select(free_list, 60).found

    def test_visits_until_match(self):
        free_list = make_list([16, 32, 64])
        result = ExactFit().select(free_list, 64)
        assert result.visits == 3


class TestRegistry:
    def test_all_policies_constructible(self):
        for name in fit_policy_names():
            assert make_fit_policy(name).policy_name == name

    def test_registry_complete(self):
        assert set(fit_policy_names()) == set(FIT_POLICIES)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_fit_policy("no_such_fit")

    @pytest.mark.parametrize("name", sorted(FIT_POLICIES))
    def test_every_policy_finds_obvious_fit(self, name):
        free_list = make_list([256])
        result = make_fit_policy(name).select(free_list, 256)
        assert result.found
        assert result.block.size == 256
