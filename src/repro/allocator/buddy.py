"""Binary buddy pool.

Block sizes are powers of two; an allocation of ``s`` bytes is served by a
block of the smallest power of two ≥ gross size, splitting larger blocks
recursively.  On free, a block is merged with its *buddy* (the block it was
split from) whenever that buddy is also free, bounding external
fragmentation at the cost of up to ``log2(max/min)`` metadata operations per
allocate/free.  Buddy systems appear in the embedded-allocator design space
as a middle point between segregated fit (cheap, fragmenting) and
best-fit-with-coalescing (tight, expensive), which is why the exploration
includes them as a pool type parameter value.
"""

from __future__ import annotations

from .blocks import DEFAULT_ALIGNMENT, Block, gross_block_size
from .errors import InvalidRequestError, OutOfMemoryError
from .heap import PoolAddressSpace
from .pool import Pool


def _next_power_of_two(value: int) -> int:
    """Smallest power of two greater than or equal to ``value``."""
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    power = 1
    while power < value:
        power <<= 1
    return power


class BuddyPool(Pool):
    """Binary buddy allocator over a fixed-size arena.

    Parameters
    ----------
    arena_size:
        Total size of the buddy arena; rounded up to a power of two.
    min_block:
        Smallest block the system will split down to (power of two).
    """

    def __init__(
        self,
        name: str,
        arena_size: int = 1 << 20,
        min_block: int = 32,
        address_space: PoolAddressSpace | None = None,
        alignment: int = DEFAULT_ALIGNMENT,
    ) -> None:
        super().__init__(name, address_space, alignment)
        if arena_size <= 0 or min_block <= 0:
            raise ValueError("arena_size and min_block must be positive")
        self.arena_size = _next_power_of_two(arena_size)
        self.min_block = _next_power_of_two(min_block)
        if self.min_block > self.arena_size:
            raise ValueError("min_block cannot exceed arena_size")
        self.max_block_size = self.arena_size
        # free_lists[order] holds free block start offsets of size min_block << order.
        self._max_order = (self.arena_size // self.min_block).bit_length() - 1
        self._free_offsets: list[list[int]] = [[] for _ in range(self._max_order + 1)]
        self._arena_base: int | None = None
        self._order_of_block: dict[int, int] = {}

    def _ensure_arena(self) -> None:
        """Reserve the whole arena lazily on first use."""
        if self._arena_base is not None:
            return
        grown = self.space.grow_exact(self.arena_size)
        self.stats.grow_footprint(self.arena_size)
        self._arena_base = grown.start
        self._free_offsets[self._max_order].append(0)
        self.stats.accesses.write(1)

    def _order_for(self, gross: int) -> int:
        size = max(self.min_block, _next_power_of_two(gross))
        if size > self.arena_size:
            raise InvalidRequestError(
                f"request of {gross} bytes exceeds buddy arena of {self.arena_size} bytes"
            )
        return (size // self.min_block).bit_length() - 1

    def block_size_for_order(self, order: int) -> int:
        return self.min_block << order

    def accepts(self, size: int) -> bool:
        if size <= 0:
            return False
        return gross_block_size(size, self.alignment) <= self.arena_size

    def allocate(self, size: int) -> int:
        self._check_size(size)
        gross = gross_block_size(size, self.alignment)
        if not self.accepts(size):
            self.stats.failed_allocs += 1
            raise InvalidRequestError(
                f"request of {size} bytes exceeds buddy arena of {self.arena_size} bytes"
            )
        self._ensure_arena()
        order = self._order_for(gross)
        # Find the smallest order with a free block ≥ the request.
        found_order = None
        for candidate in range(order, self._max_order + 1):
            self.stats.accesses.read(1)
            if self._free_offsets[candidate]:
                found_order = candidate
                break
        if found_order is None:
            self.stats.failed_allocs += 1
            raise OutOfMemoryError(size, pool=self.name, capacity=self.arena_size)
        offset = self._free_offsets[found_order].pop()
        self.stats.accesses.write(1)
        # Split down to the requested order, releasing the upper buddies.
        while found_order > order:
            found_order -= 1
            buddy_offset = offset + self.block_size_for_order(found_order)
            self._free_offsets[found_order].append(buddy_offset)
            self.stats.splits += 1
            self.stats.accesses.write(2)
        block_size = self.block_size_for_order(order)
        block = Block(self._arena_base + offset, block_size, pool_name=self.name)
        self._order_of_block[block.address] = order
        self.stats.accesses.write(1)  # header write
        self._register_live(block, size)
        return block.address

    def free(self, address: int) -> None:
        block = self._take_live(address)
        self.stats.accesses.read(1)
        order = self._order_of_block.pop(block.address)
        offset = block.address - self._arena_base
        # Merge with the buddy while it is free, up to the whole arena.
        while order < self._max_order:
            buddy_offset = offset ^ self.block_size_for_order(order)
            self.stats.accesses.read(1)
            if buddy_offset in self._free_offsets[order]:
                self._free_offsets[order].remove(buddy_offset)
                self.stats.accesses.write(1)
                offset = min(offset, buddy_offset)
                order += 1
                self.stats.coalesces += 1
            else:
                break
        self._free_offsets[order].append(offset)
        self.stats.accesses.write(1)

    @property
    def free_bytes(self) -> int:
        """Total bytes currently on the buddy free lists."""
        return sum(
            len(offsets) * self.block_size_for_order(order)
            for order, offsets in enumerate(self._free_offsets)
        )
