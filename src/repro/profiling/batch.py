"""Batch-first trace replay: one trace sweep evaluates N configurations.

A single replay (:class:`~repro.profiling.profiler.SegmentReplaySession`)
splits a trace into one event stream per pool; an exhaustive sweep would
still split and replay the same :class:`CompiledTrace` once per
configuration.  This module amortises the sweep itself.

The key observation is that a composed allocator built by
:func:`repro.core.configuration.configuration_from_point` routes every
request *statically*: dedicated pools are strict (they accept exactly their
block size) and the general pool accepts everything.  The event stream each
pool sees therefore depends only on (a) the set of dedicated block sizes
and (b) — for a dedicated pool — its own block size, never on the other
pools' policies.  Two configurations that share a dedicated pool (same
kind, block size and capacity) hand it the *identical* sub-stream, so its
final :class:`~repro.allocator.stats.PoolStats` can be simulated once and
shared; likewise two configurations with the same general-pool policy tuple
and the same dedicated-size set share the general pool's entire replay.

:class:`BatchReplayEngine` exploits this:

* the compiled columns are partitioned **once** per dedicated-size set into
  per-pool event streams (flat integer lists: ``slot`` for an ALLOC,
  ``~slot`` for a FREE), with the stream's dispatch/payload/alloc totals
  precomputed so the per-event work inside a simulation is pure allocator
  state;
* each *pool group* — ``(kind, block size, capacity)`` for dedicated pools,
  ``(spill set, size set, policies, chunk)`` for general pools — is
  simulated once and cached: fixed groups on the
  :class:`~repro.profiling.profiler.FixedPoolKernel` single replay runs
  too, slab groups on a real :class:`SlabPool`, general groups on the flat
  general-pool kernel (address/size columns instead of Block objects);
* general-pool groups are cached **capacity-independently**: a simulation
  whose backing store never grows past ``C`` bytes is byte-identical under
  any capacity ≥ ``C`` (growth is monotone), so one unbounded run serves
  every placement variant it fits in, and only genuinely overflowing
  (group, capacity) pairs re-run bounded;
* a configuration's result is then assembled from its groups' cached
  counters (a (configuration × pool) matrix of precomputed final
  counters), and :meth:`Profiler._collect` turns them into a
  :class:`~repro.profiling.metrics.ProfileResult` exactly as single replay
  does;
* given window boundaries (event counts), every stream records its length
  and totals at each and every group simulation its counters, so one sweep
  also yields each configuration's cumulative result at every boundary
  (:meth:`BatchReplayEngine.run_windows`), which is what windowed analysis
  (:mod:`repro.stream.windows`) differentiates into per-window metrics.

Byte identity with single replay and the event-loop oracle is the contract
(``TestKernelIdentityAcrossSpaces`` in the batch-replay tests enforces it
across the standard spaces).

A dedicated pool that runs out of capacity *spills*: the composed allocator
hands the request on to the general pool.  A strict fixed or slab pool that
hits OOM keeps its state (it only bumps ``failed_allocs``, and a slab pool
charges its one partial-list read), so a dedicated pool's run still depends
on its own size stream alone.  Its group simulation continues past each OOM
and records the refused slot codes; the general pool's stream is then the
base stream plus those spilled allocations and their frees, in event order,
and the spill set joins the general group key.

General groups are keyed by *behaviour*, not by spelling
(:func:`_general_key`): policy tuples that the real
:class:`~repro.allocator.pool.GeneralPool` replays identically share one
simulation.

Only what the stream partition cannot express takes a single replay per
configuration (:meth:`BatchReplayEngine._run_single`): non-standard pool
stacks (anything but strict fixed/slab pools in front of an unbounded
general pool) and traces with live request-id rebinding.

The general-pool kernel replicates :class:`~repro.allocator.pool
.GeneralPool` counter-for-counter on flat integers: fit-scan visit counts,
ordered-insertion visit counts, split/coalesce charges, the chunked (and
partial-grant) growth of :class:`PoolAddressSpace` and the chunk-boundary
merge bar.  When NumPy is importable the free-list scans (fit search,
neighbour lookup) vectorise over lazily-built int64 mirrors of the list;
the repository deliberately has no runtime dependencies, so every scan also
has an exact pure-Python path and the module works — identically, just
slower — without NumPy installed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING

from ..allocator.coalescing import COALESCING_POLICIES, DeferredCoalesce
from ..allocator.fit import FIT_POLICIES
from ..allocator.freelist import FREE_LIST_POLICIES
from ..allocator.blocks import gross_block_size
from ..allocator.heap import PoolAddressSpace
from ..allocator.pool import FIXED_CHUNK_BLOCKS, MIN_WILDERNESS_REMAINDER
from ..allocator.slab import SlabPool
from ..allocator.splitting import (
    SPLITTING_POLICIES,
    AlwaysSplit,
    ThresholdSplit,
)
from ..allocator.stats import AccessCounter, PoolStats
from ..memhier.energy import EnergyModel
from .metrics import ProfileResult
from .profiler import (
    DEFAULT_PAYLOAD_ACCESS_FACTOR,
    FixedPoolKernel,
    PoolDriver,
    Profiler,
)
from .tracer import AllocationTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> profiling)
    from ..core.configuration import AllocatorConfiguration
    from ..core.factory import AllocatorFactory

try:  # NumPy accelerates the free-list scans but is strictly optional.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on dependency-free installs
    _np = None

#: Below this free-list length the pure-Python scan wins over a vectorised
#: one (array-view setup dominates); above it NumPy takes over when present.
#: The int64 mirrors of the list are rebuilt lazily on the first long scan
#: after a mutation, so simulations whose lists stay short (or whose scans
#: the bounded probes satisfy) never pay for them.
_VEC_MIN = 32
#: LIFO scans probe this many newest blocks in pure Python before falling
#: back to a vector scan: allocation traces reuse recently freed sizes, so
#: the probe usually resolves in a handful of comparisons.
_PROBE = 16
#: Vector scans compare this many elements (in search order) before touching
#: the rest of the free list; linear fit policies usually hit early, so the
#: two-tier scan keeps long pathological lists from costing O(n) per alloc.
_SEG = 256

# Free-list organisation codes (storage order + search direction).
_ORG_LIFO = 0  # storage oldest-first, searched newest-first (reversed)
_ORG_FIFO = 1  # storage and search order coincide
_ORG_ADDR = 2  # storage sorted by address
_ORG_SIZE = 3  # storage sorted by (size, address)

_ORG_CODES = {
    "lifo": _ORG_LIFO,
    "fifo": _ORG_FIFO,
    "address_ordered": _ORG_ADDR,
    "size_ordered": _ORG_SIZE,
}

# Fit policy codes.
_FIT_FIRST = 0
_FIT_NEXT = 1
_FIT_BEST = 2
_FIT_WORST = 3
_FIT_EXACT = 4

_FIT_CODES = {
    "first_fit": _FIT_FIRST,
    "next_fit": _FIT_NEXT,
    "best_fit": _FIT_BEST,
    "worst_fit": _FIT_WORST,
    "exact_fit": _FIT_EXACT,
}

# Coalescing policy codes.
_COAL_NEVER = 0
_COAL_IMMEDIATE = 1
_COAL_DEFERRED = 2

_COAL_CODES = {"never": _COAL_NEVER, "immediate": _COAL_IMMEDIATE, "deferred": _COAL_DEFERRED}

# Splitting policy codes.
_SPLIT_NEVER = 0
_SPLIT_ALWAYS = 1
_SPLIT_THRESHOLD = 2

_SPLIT_CODES = {"never": _SPLIT_NEVER, "always": _SPLIT_ALWAYS, "threshold": _SPLIT_THRESHOLD}

#: Pool kinds the batch kernel can express in front of the general pool.
_DEDICATED_KINDS = ("fixed", "slab")

#: Spill set of a dedicated group that never ran out of capacity.
_NO_SPILLS: frozenset[int] = frozenset()


def _counters(stats: PoolStats) -> tuple:
    """Every :class:`PoolStats` field in field order, the access counter's
    reads and writes first, as a flat tuple."""
    accesses = stats.accesses
    return (
        accesses.reads, accesses.writes, stats.footprint, stats.peak_footprint,
        stats.live_payload, stats.peak_live_payload, stats.live_gross, stats.live_blocks,
        stats.alloc_ops, stats.free_ops, stats.failed_allocs, stats.free_list_visits,
        stats.splits, stats.coalesces,
    )


class _GroupResult:
    """One shared pool-group simulation: its state at every window boundary.

    ``windows`` holds one tuple per boundary: the :func:`_counters` of the
    pool's :class:`PoolStats`, then its payload accesses, dispatch reads
    and out-of-memory failures.
    """

    __slots__ = ("windows", "spilled", "brk")

    def __init__(
        self, windows: list[tuple], spilled: frozenset[int] = _NO_SPILLS, brk: int = 0
    ) -> None:
        self.windows = windows
        #: Slot codes a dedicated pool refused for lack of capacity; the
        #: general pool serves them (and their frees) instead.
        self.spilled = spilled
        #: Final backing-store break (the address space's high-water mark).
        #: Growth only ever advances it, so a capacity at least this large
        #: can never have altered the run — the capacity-sharing criterion.
        self.brk = brk

    def at(self, window: int) -> tuple[PoolStats, float, int, int]:
        """``(stats, payload, dispatch, oom)`` at window boundary ``window``."""
        reads, writes, *fields, payload, dispatch, oom = self.windows[window]
        return PoolStats(AccessCounter(reads, writes), *fields), payload, dispatch, oom


def _simulate_general(
    free_list: str,
    fit_name: str,
    coalescing: str,
    splitting: str,
    chunk_size: int,
    capacity: int | None,
    stream: tuple[list[int], list[tuple[int, float, int]]],
    slot_sizes,
) -> _GroupResult:
    """Replay one general-pool stream on flat integer state.

    This is a single monolithic loop on purpose: every counter lives in a
    local variable and the free list is a pair of plain int lists (with
    lazily-built NumPy mirrors for long scans), which is what buys the
    batch path its per-event speed over the object-per-block pool.  The
    charge sequence replicates ``GeneralPool.allocate``/``free`` exactly;
    ``TestKernelIdentityAcrossPolicies`` in the batch-replay tests sweeps
    every policy combination against both replay oracles to hold the kernel
    to byte identity.

    Addresses are pool-relative (base 0): every ``PoolStats`` field is
    invariant under a uniform translation of the pool's base address.

    ``stream`` is :meth:`BatchReplayEngine._general_stream`'s codes and
    window marks.  The event loop runs window by window up to each mark's
    stop and records every counter there, so one run yields the group's
    state at every window boundary.
    """
    org = _ORG_CODES[free_list]
    reverse = org == _ORG_LIFO  # search runs newest-first over the storage
    fit = _FIT_CODES[fit_name]
    coal = _COAL_CODES[coalescing]
    split = _SPLIT_CODES[splitting]
    # Read the split/coalesce tunables off the real policy objects so a
    # changed default there cannot silently diverge the kernel.
    split_min = MIN_WILDERNESS_REMAINDER
    split_ratio = 0.0
    if split == _SPLIT_ALWAYS:
        split_min = AlwaysSplit().min_remainder
    elif split == _SPLIT_THRESHOLD:
        policy = ThresholdSplit()
        split_min = policy.min_remainder
        split_ratio = policy.ratio
    interval = DeferredCoalesce().interval if coal == _COAL_DEFERRED else 1 << 62

    addrs: list[int] = []
    szs: list[int] = []
    use_np = _np is not None
    ma = ms = None  # lazy int64 mirrors of addrs/szs
    mlen = 0  # length of the size mirror's valid prefix
    malen = 0  # length of the address mirror's valid prefix
    rover = 0  # next-fit cursor (an index into the search-order view)
    # Slot ids are unique per allocation, so live-block state is two flat
    # lists indexed by slot (gross size < 0 means never allocated / OOM),
    # which beats a dict on the hot alloc/free paths.
    live_addr = [0] * len(slot_sizes)
    live_bsz = [-1] * len(slot_sizes)
    live_n = 0
    dead: set[int] = set()  # slots whose allocation ran out of memory
    chunk_starts: set[int] = set()
    # For immediate coalescing on linear-scan storages, mirror the free
    # blocks' start/end addresses in sets: a freed block's neighbours can
    # then be ruled out in O(1), and most frees have none (adjacent free
    # blocks cannot coexist for long under immediate coalescing).  The
    # address-ordered storage finds neighbours by bisect and deferred
    # maintenance never calls :func:`merge`, so neither pays the upkeep.
    track_sets = coal == _COAL_IMMEDIATE and org != _ORG_ADDR
    starts: set[int] = set()
    ends: set[int] = set()

    # -- closures over the list state (counters stay locals in the loop) --

    def mirror(n: int):
        """Bring the int64 mirror of ``szs`` up to date.

        ``mlen`` is the length of the mirror's valid prefix.  Append-order
        storages (LIFO/FIFO) mutate near the tail, so they just truncate
        ``mlen`` and this sync converts the small stale suffix; sorted
        storages keep the mirror fully valid with in-place slice shifts
        (C memmoves) and only land here after a wholesale rebuild.  The
        address mirror is deliberately *not* maintained here: the fit
        search only compares sizes, so ``ma`` syncs separately (and far
        more rarely) in :func:`mirror_addrs`.
        """
        nonlocal ms, mlen
        if ms is None or ms.shape[0] < n:
            grown = _np.empty(max(64, 2 * n), dtype=_np.int64)
            if mlen:
                grown[:mlen] = ms[:mlen]
            ms = grown
        if mlen < n:
            ms[mlen:n] = szs[mlen:n]
            mlen = n
        return ms

    def mirror_addrs(n: int):
        """Bring the int64 mirror of ``addrs`` up to date (merge path only).

        Only the vectorised neighbour search reads block addresses, so this
        mirror is pure prefix-validity: mutations just truncate ``malen``
        and the next merge that actually needs the addresses pays one bulk
        conversion of the stale suffix.
        """
        nonlocal ma, malen
        if ma is None or ma.shape[0] < n:
            grown = _np.empty(max(64, 2 * n), dtype=_np.int64)
            if malen:
                grown[:malen] = ma[:malen]
            ma = grown
        if malen < n:
            ma[malen:n] = addrs[malen:n]
            malen = n
        return ma

    def push(addr: int, size: int) -> int:
        """Insert a free block; returns ``last_insertion_visits``."""
        nonlocal mlen, malen
        if track_sets:
            starts.add(addr)
            ends.add(addr + size)
        if org <= _ORG_FIFO:
            # Appends land beyond the mirrors' valid prefixes: nothing to do.
            addrs.append(addr)
            szs.append(size)
            return 1
        if org == _ORG_ADDR:
            index = bisect_left(addrs, addr)
        else:
            lo = bisect_left(szs, size)
            hi = bisect_right(szs, size)
            index = bisect_left(addrs, addr, lo, hi)
        n0 = len(addrs)
        addrs.insert(index, addr)
        szs.insert(index, size)
        if mlen == n0 and ms is not None and n0 < ms.shape[0]:
            ms[index + 1 : n0 + 1] = ms[index:n0]
            ms[index] = size
            mlen = n0 + 1
        elif index < mlen:
            mlen = index
        if index < malen:
            malen = index
        return index if index > 1 else 1

    def delete(index: int) -> None:
        nonlocal mlen, malen
        if track_sets:
            gone = addrs[index]
            starts.discard(gone)
            ends.discard(gone + szs[index])
        del addrs[index]
        del szs[index]
        n0 = len(addrs)
        if mlen == n0 + 1 and org > _ORG_FIFO:
            if index < n0:
                ms[index:n0] = ms[index + 1 : n0 + 1]
            mlen = n0
        elif index < mlen:
            mlen = index
        if index < malen:
            malen = index

    def vec_first(n: int, need: int, exact: bool) -> tuple[int, int]:
        """First ``>= need`` (or ``== need``) match in search order.

        Returns ``(storage index, search position)`` or ``(-1, n)``.  The
        scan is two-tier: the first ``_SEG`` elements in search order are
        compared alone (linear policies usually hit there), and only a miss
        pays for comparing the rest of the list.
        """
        sizes = ms[:n]
        if reverse:
            lo = n - _SEG
            if lo > 0:
                view = sizes[lo:n][::-1]
                mask = (view == need) if exact else (view >= need)
                position = int(mask.argmax())
                if mask[position]:
                    return n - 1 - position, position
                view = sizes[:lo][::-1]
                mask = (view == need) if exact else (view >= need)
                position = int(mask.argmax())
                if mask[position]:
                    index = lo - 1 - position
                    return index, n - 1 - index
                return -1, n
            view = sizes[::-1]
            mask = (view == need) if exact else (view >= need)
            position = int(mask.argmax())
            if mask[position]:
                return n - 1 - position, position
            return -1, n
        hi = _SEG if _SEG < n else n
        view = sizes[:hi]
        mask = (view == need) if exact else (view >= need)
        position = int(mask.argmax())
        if mask[position]:
            return position, position
        if hi < n:
            view = sizes[hi:]
            mask = (view == need) if exact else (view >= need)
            position = int(mask.argmax())
            if mask[position]:
                return hi + position, hi + position
        return -1, n

    def select(need: int) -> tuple[int, int, bool]:
        """Fit search: ``(storage index, visits, found)``, exactly as the
        matching :class:`FitPolicy` iterating the matching free list."""
        nonlocal rover
        n = len(addrs)
        if org == _ORG_SIZE and fit != _FIT_NEXT:
            # Sorted-by-size storage collapses the linear policies to a
            # bisect with the same visit count the linear walk reports.
            if fit == _FIT_FIRST or fit == _FIT_BEST:
                index = bisect_left(szs, need)
                if index < n:
                    return index, index + 1, True
                return -1, n, False
            if fit == _FIT_EXACT:
                index = bisect_left(szs, need)
                if index < n and szs[index] == need:
                    return index, index + 1, True
                return -1, n, False
            # Worst fit: the largest block is last; ties resolve to the
            # first of the max-size run in search order (lowest address).
            if n and szs[n - 1] >= need:
                return bisect_left(szs, szs[n - 1]), n, True
            return -1, n, False
        if n == 0:
            return -1, 0, False
        if use_np and n >= _VEC_MIN:
            if reverse and fit != _FIT_NEXT and fit != _FIT_WORST:
                # LIFO search starts at the most recently pushed blocks,
                # which trace locality makes very likely to fit: probe a
                # bounded window in pure Python before paying for an O(n)
                # vector compare.  For best fit only an exact match may
                # return early (it is provably the scan's answer).
                limit = n - _PROBE
                if fit == _FIT_FIRST:
                    for index in range(n - 1, limit - 1, -1):
                        if szs[index] >= need:
                            return index, n - index, True
                else:
                    for index in range(n - 1, limit - 1, -1):
                        if szs[index] == need:
                            return index, n - index, True
            # Boolean argmax short-circuits at the first hit in C, which is
            # exactly the "first match in search order" every linear policy
            # needs; a reversed view turns it into last-in-storage for LIFO.
            mirror(n)
            sizes = ms[:n]
            if fit == _FIT_FIRST or fit == _FIT_EXACT:
                index, position = vec_first(n, need, fit == _FIT_EXACT)
                if index < 0:
                    return -1, n, False
                return index, position + 1, True
            if fit == _FIT_NEXT:
                view = sizes[::-1] if reverse else sizes
                hits = _np.flatnonzero(view >= need)
                if hits.size == 0:
                    return -1, n, False
                start = rover % n
                position = int(_np.searchsorted(hits, start))
                view_index = int(hits[position]) if position < hits.size else int(hits[0])
                visits = (view_index - start) % n + 1
                rover = (view_index + 1) % n
                index = n - 1 - view_index if reverse else view_index
                return index, visits, True
            if fit == _FIT_BEST:
                index, position = vec_first(n, need, True)
                if index >= 0:
                    # First exact match in search order: best fit returns
                    # it immediately with the partial visit count.
                    return index, position + 1, True
                mask = sizes >= need
                if not mask.any():
                    return -1, n, False
                ties = sizes == sizes[mask].min()
            else:  # worst fit
                largest = int(sizes.max())
                if largest < need:
                    return -1, n, False
                ties = sizes == largest
            view = ties[::-1] if reverse else ties
            position = int(view.argmax())
            index = n - 1 - position if reverse else position
            return index, n, True
        # Pure-Python scans (short lists, or NumPy unavailable).
        if fit == _FIT_FIRST or fit == _FIT_EXACT:
            exact = fit == _FIT_EXACT
            order = range(n - 1, -1, -1) if reverse else range(n)
            for position, index in enumerate(order):
                size = szs[index]
                if (size == need) if exact else (size >= need):
                    return index, position + 1, True
            return -1, n, False
        if fit == _FIT_NEXT:
            start = rover % n
            for offset in range(n):
                view = (start + offset) % n
                index = n - 1 - view if reverse else view
                if szs[index] >= need:
                    rover = (view + 1) % n
                    return index, offset + 1, True
            return -1, n, False
        if fit == _FIT_BEST:
            best = -1
            best_size = 0
            order = range(n - 1, -1, -1) if reverse else range(n)
            for position, index in enumerate(order):
                size = szs[index]
                if size < need:
                    continue
                if best < 0 or size < best_size:
                    best = index
                    best_size = size
                    if size == need:
                        return best, position + 1, True
            return best, n, best >= 0
        # Worst fit: full scan, strictly-larger wins, ties keep the first
        # block in search order.
        worst = -1
        worst_size = 0
        order = range(n - 1, -1, -1) if reverse else range(n)
        for index in order:
            size = szs[index]
            if size >= need and size > worst_size:
                worst = index
                worst_size = size
        return worst, n, worst >= 0

    def merge(addr: int, block_size: int) -> tuple[int, int, int, int, int]:
        """Boundary-tag merge of the freed block with its free neighbours.

        Returns ``(addr, size, reads, writes, merges)`` — the coalesced
        block plus the charges ``ImmediateCoalesce.on_free`` would report.
        """
        n = len(addrs)
        succ_addr = addr + block_size
        reads = 0
        if org == _ORG_ADDR:
            # Bounded probe: two reads whatever the list length.
            index = bisect_left(addrs, addr)
            pred = -1
            if index > 0 and addrs[index - 1] + szs[index - 1] == addr:
                pred = index - 1
            succ = index if index < n and addrs[index] == succ_addr else -1
            reads = 2
        elif track_sets and addr not in ends and succ_addr not in starts:
            # Neither neighbour is free: the search-order walk would have
            # visited every node without a match.
            pred = -1
            succ = -1
            reads = n
        elif use_np and n >= _VEC_MIN:
            # Each neighbour matches at most once (free blocks are
            # disjoint), so boolean argmax finds it in one pass.
            mirror(n)
            base = mirror_addrs(n)[:n]
            mask = base + ms[:n] == addr
            hit = int(mask.argmax())
            pred = hit if mask[hit] else -1
            mask = base == succ_addr
            hit = int(mask.argmax())
            succ = hit if mask[hit] else -1
            if pred >= 0 and succ >= 0:
                pred_pos = n - 1 - pred if reverse else pred
                succ_pos = n - 1 - succ if reverse else succ
                reads = max(pred_pos, succ_pos) + 1
            else:
                reads = n
        else:
            # Walk in search order, one read per visited node, stopping as
            # soon as both neighbours are found.  Free blocks are disjoint,
            # so each neighbour matches at most once.
            pred = -1
            succ = -1
            order = range(n - 1, -1, -1) if org == _ORG_LIFO else range(n)
            for index in order:
                reads += 1
                candidate = addrs[index]
                if candidate + szs[index] == addr:
                    pred = index
                elif candidate == succ_addr:
                    succ = index
                if pred >= 0 and succ >= 0:
                    break
        writes = 0
        merges = 0
        if pred >= 0 and addr not in chunk_starts:
            pred_addr = addrs[pred]
            merged = szs[pred] + block_size
            delete(pred)
            if succ > pred:
                succ -= 1
            addr = pred_addr
            block_size = merged
            writes += 2  # unlink + header rewrite
            merges += 1
        if succ >= 0 and succ_addr not in chunk_starts:
            block_size += szs[succ]
            delete(succ)
            writes += 2
            merges += 1
        return addr, block_size, reads, writes, merges

    def maintenance() -> tuple[int, int, int]:
        """Deferred full merge pass; returns ``(reads, writes, merges)``."""
        nonlocal mlen, malen
        n = len(addrs)
        if n == 0:
            return n, 0, 0
        pairs = sorted(zip(addrs, szs))
        survivors_addr: list[int] = []
        survivors_size: list[int] = []
        current_addr, current_size = pairs[0]
        merges = 0
        for addr, size in pairs[1:]:
            if current_addr + current_size == addr and addr not in chunk_starts:
                current_size += size
                merges += 1
            else:
                survivors_addr.append(current_addr)
                survivors_size.append(current_size)
                current_addr, current_size = addr, size
        survivors_addr.append(current_addr)
        survivors_size.append(current_size)
        if org == _ORG_SIZE:
            resorted = sorted(zip(survivors_size, survivors_addr))
            survivors_size = [size for size, _addr in resorted]
            survivors_addr = [addr for _size, addr in resorted]
        # LIFO/FIFO storage receives the survivors in ascending-address
        # push order; address-ordered storage is sorted the same way.
        addrs[:] = survivors_addr
        szs[:] = survivors_size
        mlen = 0
        malen = 0
        return n, merges + len(survivors_addr), merges

    # -- the event loop ----------------------------------------------------

    reads = 0
    writes = 0
    fl_visits = 0
    splits_n = 0
    coalesces_n = 0
    brk = 0
    peak_footprint = 0
    live_payload = 0
    peak_live_payload = 0
    live_gross = 0
    alloc_ops = 0
    free_ops = 0
    failed_allocs = 0
    deferred_n = 0
    dead_frees = 0

    codes, marks = stream
    states = []  # (counters, dispatch reads, dead allocations) at each stop
    start = 0
    for stop, _payload, _size0_allocs in marks:
        for code in codes[start:stop]:
            if code >= 0:
                size = slot_sizes[code]
                if size <= 0:
                    # Empty route (no pool accepts a non-positive size): the
                    # composed allocator raises without touching any pool's
                    # counters; accounted in the stream's precomputed totals.
                    continue
                need = ((size + 3) & -4) + 8  # align_up(size, 4) + HEADER_BYTES
                index, visits, found = select(need)
                reads += visits
                fl_visits += visits
                if found:
                    addr = addrs[index]
                    block_size = szs[index]
                    delete(index)
                    writes += 1  # unlink from the free list
                    remainder = block_size - need
                    if (
                        split
                        and remainder >= split_min
                        and (split == _SPLIT_ALWAYS or remainder >= split_ratio * need)
                    ):
                        splits_n += 1
                        writes += 2  # shrink header + remainder header
                        reads += push(addr + need, remainder)
                        writes += 1  # link the remainder
                        block_size = need
                else:
                    granted = -(-need // chunk_size) * chunk_size
                    if capacity is not None and brk + granted > capacity:
                        if brk + need <= capacity:
                            granted = need
                        else:
                            failed_allocs += 1
                            dead.add(code)
                            continue
                    addr = brk
                    brk += granted
                    if brk > peak_footprint:
                        peak_footprint = brk
                    chunk_starts.add(addr)
                    remainder = granted - need
                    if remainder >= MIN_WILDERNESS_REMAINDER:
                        reads += push(addr + need, remainder)
                        writes += 2  # remainder header + link
                        block_size = need
                    else:
                        block_size = granted
                writes += 1  # header write for the allocated block
                alloc_ops += 1
                live_payload += size
                if live_payload > peak_live_payload:
                    peak_live_payload = live_payload
                live_gross += block_size
                live_addr[code] = addr
                live_bsz[code] = block_size
                live_n += 1
            else:
                slot = ~code
                block_size = live_bsz[slot]
                if block_size < 0:
                    # The matching allocation failed: the free is skipped
                    # before the dispatch-table lookup.
                    dead_frees += 1
                    continue
                addr = live_addr[slot]
                live_n -= 1
                free_ops += 1
                live_payload -= slot_sizes[slot]
                live_gross -= block_size
                reads += 1  # header read
                if coal == _COAL_IMMEDIATE:
                    addr, block_size, merge_reads, merge_writes, merges = merge(
                        addr, block_size
                    )
                    reads += merge_reads
                    writes += merge_writes
                    coalesces_n += merges
                else:
                    deferred_n += 1  # only observed when coal is deferred
                reads += push(addr, block_size)
                writes += 1
                if deferred_n >= interval:
                    deferred_n = 0
                    pass_reads, pass_writes, pass_merges = maintenance()
                    reads += pass_reads
                    writes += pass_writes
                    coalesces_n += pass_merges
        start = stop
        counters = (
            reads, writes, brk, peak_footprint, live_payload, peak_live_payload, live_gross,
            live_n, alloc_ops, free_ops, failed_allocs, fl_visits, splits_n, coalesces_n,
        )
        states.append((counters, stop - dead_frees, len(dead)))

    windows = []
    payload = 0.0
    start = 0
    for (counters, dispatch, oom_extra), (stop, total, size0_allocs) in zip(states, marks):
        if dead:
            # Recompute the payload sum over the surviving allocations (the
            # precomputed total covers the no-OOM case).
            for code in codes[start:stop]:
                if code >= 0 and code not in dead:
                    size = slot_sizes[code]
                    if size > 0:
                        payload += size * DEFAULT_PAYLOAD_ACCESS_FACTOR
            total = payload
        start = stop
        windows.append((*counters, total, dispatch, size0_allocs + oom_extra))
    return _GroupResult(windows, brk=brk)


def _general_key(dedicated_sizes: frozenset[int], spec) -> tuple:
    """Spill- and capacity-free key of a general pool group, by behaviour.

    Policy tuples that the real :class:`~repro.allocator.pool.GeneralPool`
    replays identically share a key, and so one simulation:

    * ``exact_fit`` only takes a block of exactly the needed size, so there
      is never a remainder; every splitting policy needs ``min_remainder >
      0``, so the splitting axis is keyed ``never``;
    * ``best_fit`` on a ``size_ordered`` list returns the first block that
      fits, with the same visit count (``BestFit.select``'s short-circuit),
      so it is keyed ``first_fit``.
    """
    fit = spec.fit
    splitting = spec.splitting
    if fit == "exact_fit":
        splitting = "never"
    elif fit == "best_fit" and spec.free_list == "size_ordered":
        fit = "first_fit"
    return (dedicated_sizes, spec.free_list, fit, spec.coalescing, splitting, spec.chunk_size)


class _ShimPool:
    """Just enough pool surface for :meth:`Profiler._collect`.

    ``_collect`` (via ``breakdown_accesses``/``footprint_by_level``) only
    reads ``name`` and ``stats``.
    """

    __slots__ = ("name", "stats")

    def __init__(self, name: str, stats: PoolStats) -> None:
        self.name = name
        self.stats = stats


class _ShimAllocator:
    """Composed-allocator surface backed by precomputed group results."""

    __slots__ = ("pools", "name", "dispatch_accesses", "live_blocks")

    def __init__(
        self, pools: list[_ShimPool], name: str, dispatch_accesses: int, live_blocks: int
    ) -> None:
        self.pools = pools
        self.name = name
        self.dispatch_accesses = dispatch_accesses
        self.live_blocks = live_blocks


class BatchReplayEngine:
    """Evaluates many allocator configurations against one compiled trace.

    Parameters
    ----------
    trace:
        The workload trace (its compiled form is bound at construction; the
        engine must be recreated if the trace mutates).
    factory:
        The :class:`~repro.core.factory.AllocatorFactory` used both to
        place pools (:meth:`AllocatorFactory.build_mapping` yields the
        per-pool capacities the kernels enforce) and to build real
        allocators for the configurations the batch kernel cannot express.
    energy_model:
        As for :class:`Profiler`.
    boundaries:
        Window boundaries as ascending event counts, the last being
        ``len(trace)`` (the default is that one boundary).  Every group
        simulation records its state at each, and :meth:`run_windows`
        returns one cumulative result per boundary.

    The engine is long-lived on purpose: all stream partitions and group
    simulations are cached across :meth:`run_configuration` calls, so a
    serial exploration that feeds points one at a time amortises exactly
    like one that feeds the whole space at once.
    """

    def __init__(
        self,
        trace: AllocationTrace,
        factory: "AllocatorFactory",
        energy_model: EnergyModel | None = None,
        boundaries: list[int] | None = None,
    ) -> None:
        self.trace = trace
        self.compiled = trace.compiled()
        self.factory = factory
        self.energy_model = energy_model or EnergyModel(factory.hierarchy)
        self.boundaries = list(boundaries) if boundaries is not None else [len(trace)]
        if not self.boundaries or self.boundaries[-1] != len(trace) or any(
            low >= high for low, high in zip(self.boundaries, self.boundaries[1:])
        ):
            raise ValueError(
                f"window boundaries must ascend to the trace length {len(trace)}: "
                f"{self.boundaries}"
            )
        # size -> (per-size event stream: slot for ALLOC, ~slot for FREE;
        # its length at each window boundary).
        self._size_streams_cache: dict[int, tuple[list[int], list[int]]] | None = None
        # (dedicated-size set, spill set) -> the general pool's stream and
        # its window marks.
        self._general_streams: dict[tuple, tuple[list[int], list[tuple]]] = {}
        # group key -> cached _GroupResult (the (config x pool) matrix).
        # General keys are capacity-free; a (key, capacity) entry exists
        # only for groups that genuinely overflow that capacity.
        self._dedicated_cache: dict[tuple, _GroupResult] = {}
        self._general_cache: dict[tuple, _GroupResult] = {}
        #: Diagnostics: configurations served by the batch kernel vs routed
        #: through the per-configuration single replay.
        self.batched_configurations = 0
        self.fallback_configurations = 0

    # -- stream partitioning ----------------------------------------------

    def _size_streams(self) -> dict[int, tuple[list[int], list[int]]]:
        """Partition the compiled columns by request size (computed once).

        Every event of a given size lands in that size's stream whatever
        the configuration: a strict dedicated pool for the size sees the
        whole stream, and configurations without one route it to the
        general pool instead.  FREE events resolve their size through the
        slot table; unmatched frees (``NO_SLOT``) are dropped here exactly
        as both replay oracles skip them.  Each stream comes with its
        length at every window boundary.
        """
        streams = self._size_streams_cache
        if streams is None:
            streams = {}
            compiled = self.compiled
            kinds = compiled.kinds
            sizes = compiled.sizes
            slots = compiled.slots
            slot_sizes = compiled.slot_sizes
            start = 0
            for window, stop in enumerate(self.boundaries):
                for index in range(start, stop):
                    if kinds[index]:
                        size = sizes[index]
                        stream = streams.get(size)
                        if stream is None:
                            stream = streams[size] = ([], [0] * window)
                        stream[0].append(slots[index])
                    else:
                        slot = slots[index]
                        if slot < 0:
                            continue
                        streams[slot_sizes[slot]][0].append(~slot)
                for codes, stops in streams.values():
                    stops.append(len(codes))
                start = stop
            self._size_streams_cache = streams
        return streams

    def _general_stream(
        self, dedicated_sizes: frozenset[int], spilled: frozenset[int]
    ) -> tuple[list[int], list[tuple[int, float, int]]]:
        """Events the general pool sees under ``dedicated_sizes`` (cached).

        That is every event of a size no dedicated pool serves, plus the
        ``spilled`` allocations (slot codes a dedicated pool refused) and
        their frees, all in event order: ``slot`` for an ALLOC and ``~slot``
        for a FREE.  With the codes come one ``(length, payload,
        size0_allocs)`` mark per window boundary: the stream's length there,
        and the payload accesses and non-positive-size allocations of that
        prefix, which let the simulation skip that per-event bookkeeping.
        The payload factor is integral, so every payload sum is exact
        whatever its order.
        """
        stream = self._general_streams.get((dedicated_sizes, spilled))
        if stream is None:
            codes: list[int] = []
            append = codes.append
            marks = []
            compiled = self.compiled
            kinds = compiled.kinds
            sizes = compiled.sizes
            slots = compiled.slots
            slot_sizes = compiled.slot_sizes
            factor = DEFAULT_PAYLOAD_ACCESS_FACTOR
            payload = 0.0
            size0_allocs = 0
            start = 0
            for stop in self.boundaries:
                for index in range(start, stop):
                    slot = slots[index]
                    if kinds[index]:
                        size = sizes[index]
                        if size not in dedicated_sizes or slot in spilled:
                            append(slot)
                            if size > 0:
                                payload += size * factor
                            else:
                                size0_allocs += 1
                    elif slot >= 0 and (
                        slot_sizes[slot] not in dedicated_sizes or slot in spilled
                    ):
                        append(~slot)
                marks.append((len(codes), payload, size0_allocs))
                start = stop
            stream = self._general_streams[(dedicated_sizes, spilled)] = (codes, marks)
        return stream

    # -- group simulations -------------------------------------------------

    def _dedicated_result(self, key: tuple) -> _GroupResult:
        """Replay one dedicated pool group (cached, capacity-shared).

        A fixed group runs on the :class:`FixedPoolKernel` single replay
        runs its fixed pools on, and a slab group drives a real
        :class:`SlabPool`, each over the per-size stream on a base-0
        address space.  Like general groups, the unbounded run is tried
        first: the break only ever advances, so any placement capacity at
        least the final break would have replayed byte-identically and
        shares the cached result.  Only genuinely overflowing capacities
        re-run bounded.  An allocation refused there is a spill: the pool
        keeps its state, the refused slot code joins the group's
        ``spilled`` set and its free is skipped here, because the general
        pool serves both (and counts their dispatch).  The runner is fed
        window by window and its state recorded at every boundary.
        """
        result = self._dedicated_cache.get(key)
        if result is not None:
            return result
        kind, block_size, slab_bytes, capacity = key
        if capacity is not None:
            base_key = (kind, block_size, slab_bytes, None)
            base = self._dedicated_cache.get(base_key)
            if base is None:
                base = self._dedicated_result(base_key)
            if base.brk <= capacity:
                self._dedicated_cache[key] = base
                return base
        space = PoolAddressSpace(base=0, capacity=capacity, name="batch")
        if kind == "fixed":
            gross = gross_block_size(block_size)
            space.chunk_size = gross * FIXED_CHUNK_BLOCKS
            runner = FixedPoolKernel(block_size, gross, space)
        else:
            runner = PoolDriver(
                SlabPool(
                    "batch", block_size, slab_bytes=slab_bytes, address_space=space, strict=True
                )
            )
        codes, stops = self._size_streams().get(block_size) or ((), [0] * len(self.boundaries))
        slot_sizes = self.compiled.slot_sizes
        stats = runner.stats
        spilled: list[int] = []
        windows = []
        start = 0
        for stop in stops:
            spilled += runner.feed(codes[start:stop], slot_sizes)
            start = stop
            dispatch = stats.alloc_ops + stats.free_ops
            windows.append(
                (*_counters(stats), runner.payload * DEFAULT_PAYLOAD_ACCESS_FACTOR, dispatch, 0)
            )
        result = _GroupResult(windows, frozenset(spilled) if spilled else _NO_SPILLS, space.used)
        self._dedicated_cache[key] = result
        return result

    def _general_result(self, key: tuple, capacity: int | None) -> _GroupResult:
        """Replay one general pool group through the flat kernel (cached).

        ``key`` is capacity-free.  The unbounded simulation is run (and
        cached) first; growth is monotone, so whenever its final footprint
        fits inside ``capacity`` the bounded run would have been
        byte-identical and the cached result is shared.  Only groups that
        genuinely overflow re-run with the capacity enforced, cached per
        (key, capacity).
        """
        result = self._general_cache.get(key)
        if result is None:
            result = self._run_general(key, None)
            self._general_cache[key] = result
        if capacity is None or result.brk <= capacity:
            return result
        bounded_key = key + (capacity,)
        bounded = self._general_cache.get(bounded_key)
        if bounded is None:
            bounded = self._run_general(key, capacity)
            self._general_cache[bounded_key] = bounded
        return bounded

    def _run_general(self, key: tuple, capacity: int | None) -> _GroupResult:
        spilled, dedicated_sizes, free_list, fit, coalescing, splitting, chunk_size = key
        return _simulate_general(
            free_list,
            fit,
            coalescing,
            splitting,
            chunk_size,
            capacity,
            self._general_stream(dedicated_sizes, spilled),
            self.compiled.slot_sizes,
        )

    # -- per-configuration assembly ----------------------------------------

    def _plan(self, configuration: "AllocatorConfiguration"):
        """Group keys (and the mapping) for a batchable configuration.

        Returns ``(mapping, dedicated, general)``: ``dedicated`` lists
        ``(pool name, group key)`` in pool order, ``general`` is ``(pool
        name, spill-free group key, capacity)``.  Returns ``None`` when the
        configuration or the trace falls outside what the stream partition
        can express, sending the caller down the single-replay path.
        """
        if self.compiled.has_live_rebinding:
            return None
        pools = configuration.pools
        general = pools[-1]
        if general.kind != "general" or general.max_block_size is not None:
            return None
        if (
            general.free_list not in FREE_LIST_POLICIES
            or general.fit not in FIT_POLICIES
            or general.coalescing not in COALESCING_POLICIES
            or general.splitting not in SPLITTING_POLICIES
        ):
            return None
        seen: set[int] = set()
        for spec in pools[:-1]:
            if spec.kind not in _DEDICATED_KINDS or spec.block_size <= 0:
                return None
            if spec.block_size in seen:
                return None
            seen.add(spec.block_size)
        mapping = self.factory.build_mapping(configuration)
        placements = mapping.placements
        dedicated: list[tuple[str, tuple]] = []
        for spec in pools[:-1]:
            capacity = placements[spec.name].reserved_bytes
            if spec.kind == "slab":
                # The factory sizes slabs from the object gross size; bake
                # the resolved slab size into the key so distinct chunk
                # settings that yield the same slab share one simulation.
                slab_bytes = max(spec.chunk_size, 1024, gross_block_size(spec.block_size) * 4)
            else:
                slab_bytes = 0  # FixedSizePool ignores the chunk setting
            dedicated.append((spec.name, (spec.kind, spec.block_size, slab_bytes, capacity)))
        return (
            mapping,
            dedicated,
            (
                general.name,
                _general_key(frozenset(seen), general),
                placements[general.name].reserved_bytes,
            ),
        )

    def _run_single(self, configuration: "AllocatorConfiguration") -> ProfileResult:
        """Single replay for a configuration :meth:`_plan` cannot express."""
        self.fallback_configurations += 1
        built = self.factory.build(configuration)
        profiler = Profiler(built.mapping, self.energy_model)
        return profiler.run(built.allocator, self.trace, configuration.configuration_id)

    def run_configuration(self, configuration: "AllocatorConfiguration") -> ProfileResult:
        """Profile ``configuration``; byte-identical to :meth:`Profiler.run`."""
        return self.run_windows(configuration)[-1]

    def run_windows(self, configuration: "AllocatorConfiguration") -> list[ProfileResult]:
        """One cumulative :class:`ProfileResult` per window boundary.

        The result at boundary ``b`` equals a one-shot replay of the
        trace's first ``b`` events, except that only the last result
        carries the ``__profile__`` section.  A configuration :meth:`_plan`
        refuses takes a single replay, which has no window boundaries: with
        more than one boundary it raises :class:`ValueError`.
        """
        plan = self._plan(configuration)
        if plan is None:
            if len(self.boundaries) > 1:
                raise ValueError(
                    f"configuration {configuration.configuration_id!r}: windowed "
                    "replay needs a standard pool stack and a trace that never "
                    "re-binds a live request id"
                )
            return [self._run_single(configuration)]
        mapping, dedicated, (general_name, general_key, general_capacity) = plan
        groups: list[tuple[str, _GroupResult]] = []
        spilled = _NO_SPILLS
        for name, key in dedicated:
            group = self._dedicated_result(key)
            if group.spilled:
                spilled = spilled | group.spilled if spilled else group.spilled
            groups.append((name, group))
        groups.append(
            (general_name, self._general_result((spilled,) + general_key, general_capacity))
        )
        profiler = Profiler(mapping, self.energy_model)
        results = []
        for window, operation_count in enumerate(self.boundaries):
            shims: list[_ShimPool] = []
            payload_by_pool: dict[str, float] = {}
            dispatch = 0
            live_blocks = 0
            oom_failures = 0
            for name, group in groups:
                stats, payload, pool_dispatch, oom = group.at(window)
                shims.append(_ShimPool(name, stats))
                if stats.alloc_ops:
                    payload_by_pool[name] = payload
                dispatch += pool_dispatch
                live_blocks += stats.live_blocks
                oom_failures += oom
            allocator = _ShimAllocator(
                shims, configuration.configuration_id, dispatch, live_blocks
            )
            results.append(
                profiler._collect(
                    allocator,
                    self.trace.name,
                    operation_count,
                    configuration.configuration_id,
                    payload_by_pool,
                )
            )
        results[-1].per_pool["__profile__"] = {"oom_failures": oom_failures}
        self.batched_configurations += 1
        return results

    def run_configurations(
        self, configurations: list["AllocatorConfiguration"]
    ) -> list[ProfileResult]:
        """Profile a batch of configurations (submission order preserved)."""
        return [self.run_configuration(configuration) for configuration in configurations]
