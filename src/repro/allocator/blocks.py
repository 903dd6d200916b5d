"""Block model for the simulated dynamic-memory allocator library.

A *block* is the unit of memory handed out by a pool.  The simulation keeps
an explicit object per block, mirroring the in-band metadata a real allocator
stores next to the payload:

* a header (size, status, pool tag) — ``HEADER_BYTES`` per block,
* an optional footer / boundary tag used by coalescing allocators
  (``BOUNDARY_TAG_BYTES``),
* the payload itself, padded to the pool's alignment.

Every read or write of this metadata is charged to the memory module that
backs the pool (see :mod:`repro.memhier.access`), which is how the
"memory accesses" metric of the paper is produced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Bytes of in-band header every block carries (size + status word).
HEADER_BYTES = 8
#: Extra bytes for a boundary tag (footer) when coalescing support is enabled.
BOUNDARY_TAG_BYTES = 4
#: Default payload alignment, in bytes.
DEFAULT_ALIGNMENT = 4


class BlockStatus(enum.Enum):
    """Lifecycle state of a block inside a pool."""

    FREE = "free"
    ALLOCATED = "allocated"


def align_up(size: int, alignment: int = DEFAULT_ALIGNMENT) -> int:
    """Round ``size`` up to the next multiple of ``alignment``.

    >>> align_up(13, 4)
    16
    >>> align_up(16, 4)
    16
    """
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    remainder = size % alignment
    if remainder == 0:
        return size
    return size + alignment - remainder


def block_overhead(with_boundary_tag: bool = False) -> int:
    """Per-block metadata overhead in bytes."""
    overhead = HEADER_BYTES
    if with_boundary_tag:
        overhead += BOUNDARY_TAG_BYTES
    return overhead


def gross_block_size(
    payload: int,
    alignment: int = DEFAULT_ALIGNMENT,
    with_boundary_tag: bool = False,
) -> int:
    """Total bytes a block occupies in its pool: aligned payload + metadata."""
    return align_up(payload, alignment) + block_overhead(with_boundary_tag)


@dataclass
class Block:
    """A contiguous region managed by a pool.

    Attributes
    ----------
    address:
        Start address of the block (header included) inside the simulated
        address space of the owning pool's memory module.
    size:
        Gross size of the block in bytes (header + payload + padding +
        optional footer).
    status:
        Whether the block is currently allocated or on a free list.
    requested_size:
        Payload size the application actually asked for; used to compute
        internal fragmentation.  Zero while the block is free.
    pool_name:
        Name of the owning pool (for diagnostics and per-pool accounting).
    """

    address: int
    size: int
    status: BlockStatus = BlockStatus.FREE
    requested_size: int = 0
    pool_name: str = ""

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"block address must be non-negative, got {self.address}")
        if self.size <= 0:
            raise ValueError(f"block size must be positive, got {self.size}")

    @property
    def end(self) -> int:
        """One-past-the-end address of the block."""
        return self.address + self.size

    @property
    def is_free(self) -> bool:
        return self.status is BlockStatus.FREE

    @property
    def is_allocated(self) -> bool:
        return self.status is BlockStatus.ALLOCATED

    @property
    def internal_fragmentation(self) -> int:
        """Bytes wasted inside the block (gross size minus requested payload).

        Only meaningful for allocated blocks; free blocks report zero.
        """
        if not self.is_allocated:
            return 0
        return max(0, self.size - self.requested_size)

    def mark_allocated(self, requested_size: int) -> None:
        """Transition the block to the allocated state."""
        if self.is_allocated:
            raise ValueError(f"block at {self.address:#x} is already allocated")
        if requested_size < 0:
            raise ValueError("requested size must be non-negative")
        self.status = BlockStatus.ALLOCATED
        self.requested_size = requested_size

    def mark_free(self) -> None:
        """Transition the block back to the free state."""
        if self.is_free:
            raise ValueError(f"block at {self.address:#x} is already free")
        self.status = BlockStatus.FREE
        self.requested_size = 0

    def adjacent_to(self, other: "Block") -> bool:
        """True when ``self`` and ``other`` are physically contiguous."""
        return self.end == other.address or other.end == self.address

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Block(addr={self.address:#x}, size={self.size}, "
            f"{self.status.value}, req={self.requested_size}, pool={self.pool_name!r})"
        )


@dataclass
class BlockRange:
    """A half-open address interval ``[start, end)`` used for pool layout."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"invalid range [{self.start}, {self.end})")

    @property
    def size(self) -> int:
        return self.end - self.start

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def overlaps(self, other: "BlockRange") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class SizeClass:
    """A (min, max] payload-size bucket used by segregated-fit pools.

    The interval is inclusive on both ends to make explicit "dedicated pool
    for 74-byte blocks" (min == max == 74) configurations natural.
    """

    min_size: int
    max_size: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.min_size < 0 or self.max_size < self.min_size:
            raise ValueError(
                f"invalid size class [{self.min_size}, {self.max_size}]"
            )
        if not self.label:
            self.label = f"{self.min_size}-{self.max_size}B"

    def matches(self, size: int) -> bool:
        """True when a request of ``size`` bytes belongs to this class."""
        return self.min_size <= size <= self.max_size

    @property
    def is_exact(self) -> bool:
        """True for single-size (dedicated block size) classes."""
        return self.min_size == self.max_size


def power_of_two_size_classes(min_exp: int = 3, max_exp: int = 20) -> list[SizeClass]:
    """Kingsley-style power-of-two size classes.

    ``min_exp``/``max_exp`` are exponents: the classes cover
    ``(2^(e-1), 2^e]`` for ``e`` in ``[min_exp, max_exp]``, plus a first class
    for 1..2^min_exp bytes.
    """
    if min_exp < 1 or max_exp < min_exp:
        raise ValueError(f"invalid exponent range [{min_exp}, {max_exp}]")
    classes = [SizeClass(1, 2**min_exp, label=f"<={2**min_exp}B")]
    for exp in range(min_exp + 1, max_exp + 1):
        classes.append(
            SizeClass(2 ** (exp - 1) + 1, 2**exp, label=f"<={2**exp}B")
        )
    return classes
