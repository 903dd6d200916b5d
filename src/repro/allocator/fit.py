"""Fit policies: how a pool chooses a free block for a request.

Together with the free-list order, the fit policy determines the number of
memory accesses a search costs and the quality (internal/external
fragmentation) of the chosen block — the central access/footprint trade-off
the DATE'06 exploration sweeps.

Each policy's :meth:`FitPolicy.select` returns a :class:`FitResult` carrying
the chosen block (or ``None``) and the number of free-list nodes visited, so
the pool can charge one metadata read per visited node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import Block
from .errors import ConfigurationError
from .freelist import FreeList


@dataclass
class FitResult:
    """Outcome of a fit search."""

    block: Block | None
    visits: int

    @property
    def found(self) -> bool:
        return self.block is not None


class FitPolicy:
    """Base class for fit policies."""

    #: Registry name used by configurations (overridden by subclasses).
    policy_name = "abstract"

    def select(self, free_list: FreeList, size: int) -> FitResult:
        """Pick a free block of at least ``size`` bytes from ``free_list``."""
        raise NotImplementedError


class FirstFit(FitPolicy):
    """Take the first block large enough, in free-list order."""

    policy_name = "first_fit"

    def select(self, free_list: FreeList, size: int) -> FitResult:
        visits = 0
        for block in free_list.iterate():
            visits += 1
            if block.size >= size:
                return FitResult(block, visits)
        return FitResult(None, visits)


class NextFit(FitPolicy):
    """First fit resuming from where the previous search stopped.

    The roving pointer is kept as an index into the free-list order; the
    search wraps around once, visiting every node at most one time.
    """

    policy_name = "next_fit"

    def __init__(self) -> None:
        self._rover = 0

    def select(self, free_list: FreeList, size: int) -> FitResult:
        blocks = free_list.blocks()
        count = len(blocks)
        if count == 0:
            return FitResult(None, 0)
        start = self._rover % count
        visits = 0
        for offset in range(count):
            index = (start + offset) % count
            visits += 1
            block = blocks[index]
            if block.size >= size:
                self._rover = (index + 1) % count
                return FitResult(block, visits)
        return FitResult(None, visits)


class BestFit(FitPolicy):
    """Scan the whole list and take the smallest block that fits.

    Minimises wasted space (footprint) at the cost of visiting every free
    block on each allocation — the classic accesses-for-footprint trade.
    A size-ordered free list short-circuits the scan at the first fit since
    later blocks can only be larger.
    """

    policy_name = "best_fit"

    def select(self, free_list: FreeList, size: int) -> FitResult:
        size_ordered = getattr(free_list, "policy_name", "") == "size_ordered"
        best: Block | None = None
        visits = 0
        for block in free_list.iterate():
            visits += 1
            if block.size < size:
                continue
            if size_ordered:
                return FitResult(block, visits)
            if best is None or block.size < best.size:
                best = block
                if best.size == size:
                    break
        return FitResult(best, visits)


class WorstFit(FitPolicy):
    """Scan the whole list and take the largest block.

    Included for completeness of the exploration space; it keeps remainder
    fragments large (sometimes reducing unusable slivers) but typically
    inflates footprint.
    """

    policy_name = "worst_fit"

    def select(self, free_list: FreeList, size: int) -> FitResult:
        worst: Block | None = None
        visits = 0
        for block in free_list.iterate():
            visits += 1
            if block.size >= size and (worst is None or block.size > worst.size):
                worst = block
        return FitResult(worst, visits)


class ExactFit(FitPolicy):
    """Only accept a block whose size matches the request exactly.

    Used by dedicated single-size pools where every free block has the same
    size: the first block always matches, making allocation O(1).  In a
    variable-size pool an exact fit frequently misses and forces pool
    growth, which the exploration exposes as a footprint penalty.
    """

    policy_name = "exact_fit"

    def select(self, free_list: FreeList, size: int) -> FitResult:
        visits = 0
        for block in free_list.iterate():
            visits += 1
            if block.size == size:
                return FitResult(block, visits)
        return FitResult(None, visits)


#: Registry used by the allocator factory: policy name -> class.
FIT_POLICIES: dict[str, type[FitPolicy]] = {
    FirstFit.policy_name: FirstFit,
    NextFit.policy_name: NextFit,
    BestFit.policy_name: BestFit,
    WorstFit.policy_name: WorstFit,
    ExactFit.policy_name: ExactFit,
}


def make_fit_policy(policy: str) -> FitPolicy:
    """Instantiate a fit policy by name (raises ConfigurationError if unknown)."""
    try:
        return FIT_POLICIES[policy]()
    except KeyError:
        valid = ", ".join(sorted(FIT_POLICIES))
        raise ConfigurationError(
            f"unknown fit policy '{policy}' (valid: {valid})"
        ) from None


def fit_policy_names() -> list[str]:
    """All registered fit-policy names, sorted for stable enumeration."""
    return sorted(FIT_POLICIES)
