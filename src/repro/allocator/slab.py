"""Slab pool: pages ("slabs") carved into equal-sized objects.

A slab pool serves a single object size, like :class:`FixedSizePool`, but
organises its backing store in page-sized slabs with a per-slab occupancy
count.  Empty slabs can be released back to the memory module, so —
unlike the plain fixed pool — the footprint can shrink after a burst,
which matters for bursty workloads such as packet processing.  The slab's
per-page bitmap costs one extra metadata access per operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import DEFAULT_ALIGNMENT, Block, gross_block_size
from .errors import InvalidRequestError, OutOfMemoryError
from .heap import PoolAddressSpace
from .pool import Pool

#: Default slab (page) size in bytes.
DEFAULT_SLAB_BYTES = 4096


@dataclass
class Slab:
    """One page of equal-sized objects."""

    base: int
    object_size: int
    capacity: int
    free_slots: list[int] = field(default_factory=list)
    live: int = 0

    def __post_init__(self) -> None:
        if not self.free_slots:
            self.free_slots = list(range(self.capacity))

    @property
    def is_empty(self) -> bool:
        return self.live == 0

    @property
    def is_full(self) -> bool:
        return self.live == self.capacity

    def slot_address(self, slot: int) -> int:
        return self.base + slot * self.object_size

    def slot_of(self, address: int) -> int:
        return (address - self.base) // self.object_size


class SlabPool(Pool):
    """Dedicated-size pool backed by releasable slabs.

    Parameters
    ----------
    block_size:
        Payload size served by the pool.
    slab_bytes:
        Size of one slab; must hold at least one object.
    release_empty:
        When True (default) a slab whose last object is freed is returned to
        the memory module, shrinking the footprint.
    strict:
        When True the pool only accepts requests of exactly ``block_size``
        bytes (dedicated-pool behaviour); when False any request that fits
        in a slot is accepted.
    """

    def __init__(
        self,
        name: str,
        block_size: int,
        slab_bytes: int = DEFAULT_SLAB_BYTES,
        release_empty: bool = True,
        address_space: PoolAddressSpace | None = None,
        alignment: int = DEFAULT_ALIGNMENT,
        strict: bool = False,
    ) -> None:
        super().__init__(name, address_space, alignment)
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        self.block_size = block_size
        self.strict = strict
        self.gross_size = gross_block_size(block_size, alignment)
        if slab_bytes < self.gross_size:
            raise ValueError(
                f"slab of {slab_bytes} bytes cannot hold a single "
                f"{self.gross_size}-byte object"
            )
        self.slab_bytes = slab_bytes
        self.release_empty = release_empty
        self.space.chunk_size = slab_bytes
        self.objects_per_slab = slab_bytes // self.gross_size
        self._slabs: dict[int, Slab] = {}
        self._partial: list[int] = []  # slab bases with free slots

    def accepts(self, size: int) -> bool:
        if size <= 0:
            return False
        if self.strict:
            return size == self.block_size
        return size <= self.block_size

    def _slab_for(self, address: int) -> Slab | None:
        for base, slab in self._slabs.items():
            if base <= address < base + self.slab_bytes:
                return slab
        return None

    def allocate(self, size: int) -> int:
        self._check_size(size)
        if not self.accepts(size):
            self.stats.failed_allocs += 1
            raise InvalidRequestError(
                f"pool '{self.name}' only serves blocks up to {self.block_size} bytes, "
                f"got request for {size}"
            )
        # One read of the partial-slab list head.
        self.stats.accesses.read(1)
        if self._partial:
            slab = self._slabs[self._partial[0]]
        else:
            try:
                grown = self.space.grow(self.slab_bytes)
            except OutOfMemoryError:
                self.stats.failed_allocs += 1
                raise
            self.stats.grow_footprint(grown.size)
            slab = Slab(
                base=grown.start,
                object_size=self.gross_size,
                capacity=self.objects_per_slab,
            )
            self._slabs[slab.base] = slab
            self._partial.append(slab.base)
            self.stats.accesses.write(1)  # slab descriptor init
        slot = slab.free_slots.pop()
        slab.live += 1
        if slab.is_full:
            self._partial.remove(slab.base)
        # Bitmap update + header write.
        self.stats.accesses.write(2)
        block = Block(slab.slot_address(slot), self.gross_size, pool_name=self.name)
        self._register_live(block, size)
        return block.address

    def free(self, address: int) -> None:
        block = self._take_live(address)
        slab = self._slab_for(block.address)
        if slab is None:
            raise InvalidRequestError(
                f"address {address:#x} does not belong to any slab of pool '{self.name}'"
            )
        self.stats.accesses.read(1)  # header read
        slab.free_slots.append(slab.slot_of(block.address))
        was_full = slab.is_full
        slab.live -= 1
        self.stats.accesses.write(1)  # bitmap update
        if was_full and not slab.is_full:
            self._partial.append(slab.base)
        if slab.is_empty and self.release_empty:
            # Return the whole slab to the memory module: the footprint
            # shrinks, unlike a plain fixed-size pool.
            del self._slabs[slab.base]
            if slab.base in self._partial:
                self._partial.remove(slab.base)
            self.stats.shrink_footprint(self.slab_bytes)
            self.stats.accesses.write(1)

    @property
    def slab_count(self) -> int:
        return len(self._slabs)
