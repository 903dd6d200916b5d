"""Segregated-fit pool: one free list per size class.

Requests are rounded up to the size class they fall in and served from that
class's free list — a Kingsley-style design that trades internal
fragmentation (requests are over-allocated to the class ceiling) for O(1)
searches.  The class list is a configuration parameter: power-of-two
classes give the classic general-purpose behaviour, while application-tuned
classes (e.g. the exact hot block sizes of Easyport packets) behave like a
bank of dedicated pools sharing one backing region.
"""

from __future__ import annotations

from .blocks import (
    DEFAULT_ALIGNMENT,
    Block,
    SizeClass,
    gross_block_size,
    power_of_two_size_classes,
)
from .errors import InvalidRequestError, OutOfMemoryError
from .freelist import FreeList, LIFOFreeList
from .heap import DEFAULT_CHUNK_SIZE, PoolAddressSpace
from .pool import Pool


class SegregatedFitPool(Pool):
    """Pool with one LIFO free list per size class.

    Parameters
    ----------
    size_classes:
        Ordered list of :class:`SizeClass`; a request is served by the first
        class whose range contains it and is rounded up to that class's
        ``max_size``.  Defaults to power-of-two classes up to 1 MB.
    chunk_size:
        Growth granularity of the shared backing region.
    """

    def __init__(
        self,
        name: str,
        size_classes: list[SizeClass] | None = None,
        address_space: PoolAddressSpace | None = None,
        alignment: int = DEFAULT_ALIGNMENT,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        super().__init__(name, address_space, alignment)
        self.space.chunk_size = chunk_size
        self.size_classes = size_classes or power_of_two_size_classes(3, 20)
        if not self.size_classes:
            raise ValueError("segregated pool needs at least one size class")
        self._validate_classes()
        self._free_lists: list[FreeList] = [LIFOFreeList() for _ in self.size_classes]
        self.max_block_size = max(cls.max_size for cls in self.size_classes)

    def _validate_classes(self) -> None:
        for first, second in zip(self.size_classes, self.size_classes[1:]):
            if second.min_size <= first.max_size and first.min_size <= second.max_size:
                raise ValueError(
                    f"overlapping size classes {first.label} and {second.label}"
                )

    def class_index(self, size: int) -> int | None:
        """Index of the size class serving ``size``, or ``None`` if uncovered."""
        for index, size_class in enumerate(self.size_classes):
            if size_class.matches(size):
                return index
        return None

    def accepts(self, size: int) -> bool:
        return size > 0 and self.class_index(size) is not None

    def free_list_for(self, size: int) -> FreeList:
        """Free list serving requests of ``size`` bytes (for tests/inspection)."""
        index = self.class_index(size)
        if index is None:
            raise InvalidRequestError(
                f"no size class covers {size}-byte requests in pool '{self.name}'"
            )
        return self._free_lists[index]

    def allocate(self, size: int) -> int:
        self._check_size(size)
        index = self.class_index(size)
        if index is None:
            self.stats.failed_allocs += 1
            raise InvalidRequestError(
                f"no size class covers {size}-byte requests in pool '{self.name}'"
            )
        size_class = self.size_classes[index]
        free_list = self._free_lists[index]
        # The request is rounded to the class ceiling: a 70-byte request in a
        # 65..128 class occupies a 128-byte block (internal fragmentation).
        rounded = size_class.max_size
        gross = gross_block_size(rounded, self.alignment)
        # One read to index the class table.
        self.stats.accesses.read(1)
        if len(free_list) > 0:
            block = free_list.pop_front()
            self.stats.accesses.read(1)
            self.stats.accesses.write(1)
            self.stats.free_list_visits += 1
        else:
            try:
                block = self._grow(gross)
            except OutOfMemoryError:
                self.stats.failed_allocs += 1
                raise
            # Keep only the needed block; the chunk tail is carved into more
            # blocks of the same class (they will be needed again).
            carved = 0
            offset = block.address + gross
            end = block.end
            block.size = gross
            while offset + gross <= end:
                free_list.push(Block(offset, gross, pool_name=self.name))
                offset += gross
                carved += 1
            self.stats.accesses.write(carved)
        self.stats.accesses.write(1)  # header write
        self._class_of_block = getattr(self, "_class_of_block", {})
        self._class_of_block[block.address] = index
        self._register_live(block, size)
        return block.address

    def free(self, address: int) -> None:
        block = self._take_live(address)
        index = self._class_of_block.pop(block.address, None)
        if index is None:
            # Defensive: recompute from the block size.
            index = self.class_index(block.requested_size or block.size)
            if index is None:
                index = len(self.size_classes) - 1
        self.stats.accesses.read(1)
        self.stats.accesses.write(1)
        self._free_lists[index].push(block)


def exact_size_classes(sizes: list[int]) -> list[SizeClass]:
    """Build dedicated (exact) size classes for the given block sizes.

    Convenience used by configurations that express "dedicated pools for the
    N most frequent block sizes" as a segregated pool.
    """
    if not sizes:
        raise ValueError("at least one size is required")
    unique = sorted(set(sizes))
    return [SizeClass(size, size, label=f"{size}B") for size in unique]
