"""Coalescing policies: whether/when adjacent free blocks are merged.

Coalescing reduces external fragmentation (smaller footprint, fewer pool
growths) but pays extra metadata accesses per free: the freed block's
physical neighbours must be located and, when also free, merged and their
free-list entries fixed up.  The exploration sweeps three policies found in
real allocators:

* ``never``     — free blocks are recycled at their freed size only.
* ``immediate`` — neighbours are merged on every free (dlmalloc style).
* ``deferred``  — frees are cheap; a full merge pass runs every N frees
                  (amortises the cost, keeps fragmentation bounded).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .blocks import Block
from .errors import ConfigurationError
from .freelist import AddressOrderedFreeList, FreeList

#: Predicate deciding whether two physically adjacent blocks (passed in
#: address order: lower, upper) may be merged.  Pools use it to forbid
#: merging across chunk boundaries, since in a real heap separately acquired
#: chunks are not guaranteed to be contiguous.
MergePredicate = Callable[[Block, Block], bool]


def _merge_allowed(may_merge: MergePredicate | None, lower: Block, upper: Block) -> bool:
    if may_merge is None:
        return True
    return may_merge(lower, upper)


@dataclass
class CoalesceResult:
    """Outcome of a coalescing step for one freed block.

    ``block`` is the (possibly merged, larger) block that should be pushed
    onto the free list; ``reads``/``writes`` are the metadata accesses the
    step cost; ``merges`` counts how many neighbour merges happened.
    """

    block: Block
    reads: int = 0
    writes: int = 0
    merges: int = 0


class CoalescingPolicy:
    """Base class for coalescing policies."""

    policy_name = "abstract"

    def on_free(
        self,
        block: Block,
        free_list: FreeList,
        may_merge: MergePredicate | None = None,
    ) -> CoalesceResult:
        """Process a block being freed, before it is pushed on ``free_list``."""
        raise NotImplementedError

    def maintenance(
        self,
        free_list: FreeList,
        may_merge: MergePredicate | None = None,
    ) -> CoalesceResult | None:
        """Optional periodic pass (used by deferred coalescing)."""
        return None


def _find_neighbours(
    block: Block, free_list: FreeList
) -> tuple[Block | None, Block | None, int]:
    """Locate the physically adjacent free blocks of ``block``.

    Returns ``(predecessor, successor, reads)`` where ``reads`` is the number
    of free-list nodes examined.  Address-ordered lists locate neighbours with
    a bounded probe (boundary-tag style, 2 reads); any other organisation has
    to scan the whole list, which is precisely why the combination of
    coalescing with unordered lists is expensive — a trade-off the
    exploration is meant to expose.
    """
    if isinstance(free_list, AddressOrderedFreeList):
        predecessor, successor = free_list.find_adjacent(block)
        return predecessor, successor, 2
    predecessor: Block | None = None
    successor: Block | None = None
    reads = 0
    for candidate in free_list.iterate():
        reads += 1
        if candidate.end == block.address:
            predecessor = candidate
        elif block.end == candidate.address:
            successor = candidate
        if predecessor is not None and successor is not None:
            break
    return predecessor, successor, reads


def _merge(into: Block, other: Block) -> None:
    """Merge ``other`` into ``into`` (they must be physically adjacent)."""
    if not into.adjacent_to(other):
        raise ValueError(
            f"cannot merge non-adjacent blocks at {into.address:#x} and {other.address:#x}"
        )
    start = min(into.address, other.address)
    into.size = into.size + other.size
    into.address = start


class NeverCoalesce(CoalescingPolicy):
    """Free blocks are never merged.

    The cheapest free path (no neighbour lookups) and the policy of choice
    for dedicated fixed-size pools, where merging would be pointless.  In a
    general pool it maximises external fragmentation.
    """

    policy_name = "never"

    def on_free(
        self,
        block: Block,
        free_list: FreeList,
        may_merge: MergePredicate | None = None,
    ) -> CoalesceResult:
        return CoalesceResult(block=block)


class ImmediateCoalesce(CoalescingPolicy):
    """Merge with free neighbours on every free (boundary-tag style)."""

    policy_name = "immediate"

    def on_free(
        self,
        block: Block,
        free_list: FreeList,
        may_merge: MergePredicate | None = None,
    ) -> CoalesceResult:
        predecessor, successor, reads = _find_neighbours(block, free_list)
        writes = 0
        merges = 0
        merged = block
        if predecessor is not None and _merge_allowed(may_merge, predecessor, merged):
            free_list.remove(predecessor)
            _merge(merged, predecessor)
            writes += 2  # unlink + header rewrite
            merges += 1
        if successor is not None and _merge_allowed(may_merge, merged, successor):
            free_list.remove(successor)
            _merge(merged, successor)
            writes += 2
            merges += 1
        return CoalesceResult(block=merged, reads=reads, writes=writes, merges=merges)


class DeferredCoalesce(CoalescingPolicy):
    """Frees are O(1); every ``interval`` frees a full merge pass runs.

    The merge pass sorts the free list by address, merges every run of
    adjacent blocks, and rebuilds the list — the accesses charged are one
    read per node plus one write per merged node, matching a linked-list
    sweep.
    """

    policy_name = "deferred"

    def __init__(self, interval: int = 32) -> None:
        if interval <= 0:
            raise ValueError(f"deferred coalescing interval must be positive, got {interval}")
        self.interval = interval
        self._frees_since_pass = 0

    def on_free(
        self,
        block: Block,
        free_list: FreeList,
        may_merge: MergePredicate | None = None,
    ) -> CoalesceResult:
        self._frees_since_pass += 1
        return CoalesceResult(block=block)

    def maintenance(
        self,
        free_list: FreeList,
        may_merge: MergePredicate | None = None,
    ) -> CoalesceResult | None:
        if self._frees_since_pass < self.interval:
            return None
        self._frees_since_pass = 0
        blocks = sorted(free_list.blocks(), key=lambda b: b.address)
        reads = len(blocks)
        writes = 0
        merges = 0
        if not blocks:
            return CoalesceResult(block=None, reads=0, writes=0, merges=0)  # type: ignore[arg-type]
        free_list.clear()
        current = blocks[0]
        survivors = []
        for block in blocks[1:]:
            if current.end == block.address and _merge_allowed(may_merge, current, block):
                _merge(current, block)
                writes += 1
                merges += 1
            else:
                survivors.append(current)
                current = block
        survivors.append(current)
        for block in survivors:
            free_list.push(block)
        # Rebuilding the list writes one link per surviving node.
        writes += len(survivors)
        result = CoalesceResult(block=survivors[-1], reads=reads, writes=writes, merges=merges)
        return result


#: Registry used by the allocator factory: policy name -> class.
COALESCING_POLICIES: dict[str, type[CoalescingPolicy]] = {
    NeverCoalesce.policy_name: NeverCoalesce,
    ImmediateCoalesce.policy_name: ImmediateCoalesce,
    DeferredCoalesce.policy_name: DeferredCoalesce,
}


def make_coalescing_policy(policy: str, **kwargs) -> CoalescingPolicy:
    """Instantiate a coalescing policy by name.

    ``kwargs`` are forwarded to the policy constructor (e.g. ``interval``
    for deferred coalescing).
    """
    try:
        cls = COALESCING_POLICIES[policy]
    except KeyError:
        valid = ", ".join(sorted(COALESCING_POLICIES))
        raise ConfigurationError(
            f"unknown coalescing policy '{policy}' (valid: {valid})"
        ) from None
    return cls(**kwargs)


def coalescing_policy_names() -> list[str]:
    """All registered coalescing-policy names, sorted for stable enumeration."""
    return sorted(COALESCING_POLICIES)
