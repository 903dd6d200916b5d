"""Pool abstractions: the building blocks DM allocators are composed from.

The paper's C++ library composes custom allocators out of *pools*: a pool
owns a region of one memory module and services requests for a range of
block sizes with its own free-list organisation, fit, coalescing and
splitting policies.  Three pool families cover the library:

* :class:`FixedSizePool`   — dedicated pool for one block size (e.g. the
  "dedicated pool for 74-byte blocks" of the paper); O(1) allocate/free.
* :class:`GeneralPool`     — variable-size pool fully parameterised by the
  policy axes (free-list order x fit x coalescing x splitting).
* :class:`RegionPool`      — bump-pointer arena; allocation is one pointer
  update, individual frees are deferred to a whole-region reset.

Every pool charges its metadata accesses to its :class:`PoolStats`, which the
profiler later multiplies with the energy/latency figures of the memory
module the pool is mapped onto.
"""

from __future__ import annotations

from .blocks import (
    DEFAULT_ALIGNMENT,
    Block,
    BlockStatus,
    align_up,
    block_overhead,
    gross_block_size,
)
from .coalescing import CoalescingPolicy, make_coalescing_policy
from .errors import (
    DoubleFreeError,
    InvalidFreeError,
    InvalidRequestError,
    OutOfMemoryError,
)
from .fit import FitPolicy, make_fit_policy
from .freelist import FreeList, LIFOFreeList, make_free_list
from .heap import DEFAULT_CHUNK_SIZE, PoolAddressSpace
from .splitting import MIN_REMAINDER_BYTES, SplittingPolicy, make_splitting_policy
from .stats import PoolStats

#: Smallest wilderness tail worth keeping as a free block after carving a
#: fresh chunk (see :meth:`GeneralPool._grow_and_carve`).
MIN_WILDERNESS_REMAINDER = MIN_REMAINDER_BYTES

#: Blocks a :class:`FixedSizePool` carves out of each growth chunk.
FIXED_CHUNK_BLOCKS = 16


class Pool:
    """Common interface and bookkeeping shared by every pool type."""

    def __init__(
        self,
        name: str,
        address_space: PoolAddressSpace | None = None,
        alignment: int = DEFAULT_ALIGNMENT,
    ) -> None:
        if not name:
            raise ValueError("pool name must be non-empty")
        if alignment <= 0:
            raise ValueError(f"alignment must be positive, got {alignment}")
        self.name = name
        self.alignment = alignment
        self.space = address_space or PoolAddressSpace(name=name)
        self.space.name = name
        self.stats = PoolStats()
        self._live: dict[int, Block] = {}
        self._freed_addresses: set[int] = set()

    # -- request routing ------------------------------------------------

    def accepts(self, size: int) -> bool:
        """True when this pool is willing to service a request of ``size``."""
        raise NotImplementedError

    # -- allocation interface --------------------------------------------

    def allocate(self, size: int) -> int:
        """Allocate ``size`` payload bytes; return the block's address."""
        raise NotImplementedError

    def free(self, address: int) -> None:
        """Release the block at ``address`` previously returned by allocate."""
        raise NotImplementedError

    def owns(self, address: int) -> bool:
        """True when ``address`` is a live block of this pool."""
        return address in self._live

    # -- shared helpers ---------------------------------------------------

    def _check_size(self, size: int) -> None:
        if size <= 0:
            raise InvalidRequestError(
                f"allocation size must be positive, got {size} (pool '{self.name}')"
            )

    def _register_live(self, block: Block, requested: int) -> None:
        block.mark_allocated(requested)
        self._live[block.address] = block
        self._freed_addresses.discard(block.address)
        self.stats.note_alloc(requested, block.size)

    def _take_live(self, address: int) -> Block:
        block = self._live.pop(address, None)
        if block is None:
            if address in self._freed_addresses:
                raise DoubleFreeError(address)
            raise InvalidFreeError(address)
        self._freed_addresses.add(address)
        self.stats.note_free(block.requested_size, block.size)
        block.mark_free()
        return block

    def _grow(self, nbytes: int) -> Block:
        """Reserve more backing store and wrap it in a fresh free block."""
        grown = self.space.grow(nbytes)
        self.stats.grow_footprint(grown.size)
        return Block(
            address=grown.start,
            size=grown.size,
            status=BlockStatus.FREE,
            pool_name=self.name,
        )

    @property
    def live_blocks(self) -> int:
        return len(self._live)

    @property
    def footprint(self) -> int:
        """Bytes currently reserved from the backing memory module."""
        return self.stats.footprint


class FixedSizePool(Pool):
    """Dedicated pool for a single block size.

    Requests are only accepted when the payload fits in ``block_size`` (and,
    when ``strict`` is set, matches it exactly).  Free blocks are recycled
    LIFO, so both allocation and free touch a constant number of metadata
    words — the behaviour the paper exploits by placing such pools in the
    L1 scratchpad.
    """

    def __init__(
        self,
        name: str,
        block_size: int,
        address_space: PoolAddressSpace | None = None,
        alignment: int = DEFAULT_ALIGNMENT,
        chunk_blocks: int = FIXED_CHUNK_BLOCKS,
        strict: bool = False,
    ) -> None:
        super().__init__(name, address_space, alignment)
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        if chunk_blocks <= 0:
            raise ValueError(f"chunk_blocks must be positive, got {chunk_blocks}")
        self.block_size = block_size
        self.strict = strict
        self.gross_size = gross_block_size(block_size, alignment)
        self.chunk_blocks = chunk_blocks
        # Grow in whole multiples of the block size so no space is wasted on
        # partial blocks at the end of a chunk.
        self.space.chunk_size = self.gross_size * chunk_blocks
        self.free_list: FreeList = LIFOFreeList()

    def accepts(self, size: int) -> bool:
        if size <= 0:
            return False
        if self.strict:
            return size == self.block_size
        return size <= self.block_size

    # The two methods below are the innermost operations of a trace replay
    # (the paper's hot sizes are served by dedicated pools), so they update
    # the counters with direct attribute arithmetic instead of going through
    # the AccessCounter/PoolStats helper methods — same numbers, a fraction
    # of the interpreter work.

    def allocate(self, size: int) -> int:
        self._check_size(size)
        stats = self.stats
        if size != self.block_size if self.strict else size > self.block_size:
            stats.failed_allocs += 1
            raise InvalidRequestError(
                f"pool '{self.name}' only serves blocks up to {self.block_size} bytes, "
                f"got request for {size}"
            )
        accesses = stats.accesses
        if len(self.free_list) > 0:
            block = self.free_list.pop_front()
            # One read to follow the head pointer, one write to update it,
            # plus the header write for the allocated block.
            accesses.reads += 1
            accesses.writes += 2
            stats.free_list_visits += 1
        else:
            try:
                chunk = self._grow(self.gross_size)
            except OutOfMemoryError:
                stats.failed_allocs += 1
                raise
            # Carve the chunk into fixed-size blocks; keep the first, push
            # the rest on the free list (one header write per carved block,
            # plus the header write for the allocated block).
            gross = self.gross_size
            block = Block(chunk.address, gross, pool_name=self.name)
            carved = 1
            offset = chunk.address + gross
            end = chunk.end
            push = self.free_list.push
            while offset + gross <= end:
                push(Block(offset, gross, pool_name=self.name))
                offset += gross
                carved += 1
            accesses.writes += carved + 1
        # Inlined _register_live (the block just left the free list, so the
        # mark_allocated state check can never fire).
        block.status = BlockStatus.ALLOCATED
        block.requested_size = size
        self._live[block.address] = block
        self._freed_addresses.discard(block.address)
        stats.alloc_ops += 1
        stats.live_blocks += 1
        live_payload = stats.live_payload + size
        stats.live_payload = live_payload
        if live_payload > stats.peak_live_payload:
            stats.peak_live_payload = live_payload
        stats.live_gross += block.size
        return block.address

    def free(self, address: int) -> None:
        block = self._take_live(address)
        # Read the header to find the block size/pool, write the free-list link.
        accesses = self.stats.accesses
        accesses.reads += 1
        accesses.writes += 1
        self.free_list.push(block)


class GeneralPool(Pool):
    """Variable-size pool composed from the four policy axes.

    Parameters mirror the paper's parameter arrays: free-list order, fit
    policy, coalescing policy, splitting policy, plus the growth chunk size.
    """

    def __init__(
        self,
        name: str,
        address_space: PoolAddressSpace | None = None,
        free_list: FreeList | str = "lifo",
        fit: FitPolicy | str = "first_fit",
        coalescing: CoalescingPolicy | str = "never",
        splitting: SplittingPolicy | str = "never",
        alignment: int = DEFAULT_ALIGNMENT,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_block_size: int | None = None,
    ) -> None:
        super().__init__(name, address_space, alignment)
        if chunk_size <= 0:
            raise ValueError(f"chunk size must be positive, got {chunk_size}")
        self.space.chunk_size = chunk_size
        self.free_list = make_free_list(free_list) if isinstance(free_list, str) else free_list
        self.fit = make_fit_policy(fit) if isinstance(fit, str) else fit
        self.coalescing = (
            make_coalescing_policy(coalescing) if isinstance(coalescing, str) else coalescing
        )
        self.splitting = (
            make_splitting_policy(splitting) if isinstance(splitting, str) else splitting
        )
        self.max_block_size = max_block_size
        # Start addresses of the chunks acquired from the backing store; two
        # blocks belonging to different chunks are never merged, mirroring a
        # real heap where separately acquired chunks need not be contiguous.
        self._chunk_starts: set[int] = set()

    def accepts(self, size: int) -> bool:
        if size <= 0:
            return False
        if self.max_block_size is None:
            return True
        return size <= self.max_block_size

    def allocate(self, size: int) -> int:
        self._check_size(size)
        if not self.accepts(size):
            self.stats.failed_allocs += 1
            raise InvalidRequestError(
                f"pool '{self.name}' only serves blocks up to {self.max_block_size} bytes, "
                f"got request for {size}"
            )
        gross = gross_block_size(size, self.alignment)
        stats = self.stats
        accesses = stats.accesses
        result = self.fit.select(self.free_list, gross)
        accesses.reads += result.visits
        stats.free_list_visits += result.visits
        if result.found:
            block = result.block
            self.free_list.remove(block)
            accesses.writes += 1  # unlink from the free list
            split = self.splitting.split(block, gross)
            if split.did_split:
                stats.splits += 1
                accesses.writes += split.writes
                self.free_list.push(split.remainder)
                accesses.reads += self.free_list.last_insertion_visits
                accesses.writes += 1
                block = split.allocated
        else:
            block = self._grow_and_carve(gross)
        # Header write for the allocated block.
        accesses.writes += 1
        self._register_live(block, size)
        return block.address

    def _grow_and_carve(self, gross: int) -> Block:
        """Grow the backing store and carve exactly ``gross`` bytes off it.

        Fresh chunks are always carved (independently of the splitting
        policy, which only governs reuse of free-list blocks): the tail of
        the chunk — the "wilderness" — goes back on the free list so that
        chunked growth does not turn every small request into a page-sized
        block.
        """
        try:
            chunk = self._grow(gross)
        except OutOfMemoryError:
            self.stats.failed_allocs += 1
            raise
        self._chunk_starts.add(chunk.address)
        remainder_size = chunk.size - gross
        if remainder_size >= MIN_WILDERNESS_REMAINDER:
            remainder = Block(
                address=chunk.address + gross,
                size=remainder_size,
                pool_name=self.name,
            )
            chunk.size = gross
            self.free_list.push(remainder)
            self.stats.accesses.read(self.free_list.last_insertion_visits)
            self.stats.accesses.write(2)  # remainder header + link
        return chunk

    def free(self, address: int) -> None:
        block = self._take_live(address)
        stats = self.stats
        accesses = stats.accesses
        # Header read to learn the block size.
        accesses.reads += 1
        outcome = self.coalescing.on_free(block, self.free_list, self._may_merge)
        accesses.reads += outcome.reads
        accesses.writes += outcome.writes
        stats.coalesces += outcome.merges
        self.free_list.push(outcome.block)
        accesses.reads += self.free_list.last_insertion_visits
        accesses.writes += 1
        maintenance = self.coalescing.maintenance(self.free_list, self._may_merge)
        if maintenance is not None:
            accesses.reads += maintenance.reads
            accesses.writes += maintenance.writes
            stats.coalesces += maintenance.merges

    def _may_merge(self, lower: "Block", upper: "Block") -> bool:
        """Adjacent free blocks may merge only within one acquired chunk."""
        return upper.address not in self._chunk_starts


class RegionPool(Pool):
    """Bump-pointer arena.

    Allocation advances a pointer (one metadata write); frees only record the
    release — the memory is reclaimed when the whole region is reset.  The
    footprint is therefore monotone within a region lifetime, which is the
    classic region trade-off the exploration can expose.
    """

    def __init__(
        self,
        name: str,
        address_space: PoolAddressSpace | None = None,
        alignment: int = DEFAULT_ALIGNMENT,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        super().__init__(name, address_space, alignment)
        self.space.chunk_size = chunk_size
        self._bump = 0
        self._chunk_end = 0

    def accepts(self, size: int) -> bool:
        return size > 0

    def allocate(self, size: int) -> int:
        self._check_size(size)
        gross = align_up(size, self.alignment) + block_overhead()
        if self._bump + gross > self._chunk_end:
            try:
                chunk = self._grow(gross)
            except OutOfMemoryError:
                self.stats.failed_allocs += 1
                raise
            self._bump = chunk.address
            self._chunk_end = chunk.end
        block = Block(self._bump, gross, pool_name=self.name)
        self._bump += gross
        # One pointer update + one header write.
        self.stats.accesses.writes += 2
        self._register_live(block, size)
        return block.address

    def free(self, address: int) -> None:
        self._take_live(address)
        # A region free is a header read only (the space is not reusable
        # until the region resets).
        self.stats.accesses.reads += 1

    def reset_region(self) -> None:
        """Release every block and rewind the bump pointer.

        This keeps the accumulated statistics: it models the
        application-visible "free the whole region" operation.
        """
        self._live.clear()
        self._freed_addresses.clear()
        self._bump = 0
        self._chunk_end = 0
        released = self.stats.footprint
        if released:
            self.stats.shrink_footprint(released)
        self.space.reset()
        self.stats.accesses.write(1)
