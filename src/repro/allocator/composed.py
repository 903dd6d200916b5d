"""Composed allocator: routes requests across an ordered bank of pools.

This is the object the DATE'06 tool actually builds for every point of the
parameter space: a front-end that dispatches each ``malloc`` to the first
pool willing to serve the request size (dedicated pools first, a general
fallback pool last) and remembers, per live address, which pool must receive
the matching ``free``.  The dispatch table lookup itself costs one metadata
read per operation, mirroring the indirect call/size check of the generated
C++ allocator.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import ConfigurationError, InvalidFreeError, OutOfMemoryError
from .pool import Pool
from .stats import AllocatorStats, PoolStats


class ComposedAllocator:
    """An ordered bank of pools behind a single malloc/free interface.

    Parameters
    ----------
    pools:
        Pools in dispatch order.  A request is offered to each pool in turn
        (``Pool.accepts``); the first one that accepts serves it.  If that
        pool is out of capacity the request *falls back* to the next
        accepting pool, which models dedicated scratchpad pools spilling to
        main memory.
    name:
        Identifier used in profiling logs and result databases.
    """

    def __init__(self, pools: Iterable[Pool], name: str = "composed") -> None:
        self.pools = list(pools)
        if not self.pools:
            raise ConfigurationError("a composed allocator needs at least one pool")
        names = [pool.name for pool in self.pools]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate pool names: {names}")
        self.name = name
        self._owner_of: dict[int, Pool] = {}
        self._dispatch_accesses = 0
        # Size -> ordered tuple of accepting pools.  ``Pool.accepts`` is a
        # pure function of the request size and the pool's static
        # configuration (true for every pool family in the library), so the
        # routing table stays valid for the allocator's whole lifetime.  Real
        # traces have a handful of distinct sizes, so this replaces a
        # per-event accepts() scan with one dict hit.
        self._route_cache: dict[int, tuple[Pool, ...]] = {}

    # -- allocation interface --------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the simulated block address."""
        # The generated allocator dispatches through a size-indexed table:
        # one metadata read per operation, independent of the pool count.
        self._dispatch_accesses += 1
        route = self._route_cache.get(size)
        if route is None:
            route = tuple(pool for pool in self.pools if pool.accepts(size))
            self._route_cache[size] = route
        last_oom: OutOfMemoryError | None = None
        for pool in route:
            try:
                address = pool.allocate(size)
            except OutOfMemoryError as exc:
                # Capacity-limited pool (e.g. scratchpad) is full: spill to
                # the next pool that accepts the size.
                last_oom = exc
                continue
            self._owner_of[address] = pool
            return address
        if last_oom is not None:
            raise last_oom
        raise OutOfMemoryError(size, pool=self.name)

    def free(self, address: int) -> None:
        """Free a block previously returned by :meth:`malloc`."""
        self._dispatch_accesses += 1
        pool = self._owner_of.pop(address, None)
        if pool is None:
            raise InvalidFreeError(address, reason="unknown to this allocator")
        pool.free(address)

    # -- introspection ------------------------------------------------------

    @property
    def live_blocks(self) -> int:
        """Number of currently outstanding allocations."""
        return len(self._owner_of)

    def pool_named(self, name: str) -> Pool:
        """Return the pool called ``name`` (raises KeyError when missing)."""
        for pool in self.pools:
            if pool.name == name:
                return pool
        raise KeyError(f"no pool named '{name}' in allocator '{self.name}'")

    def owner_of(self, address: int) -> Pool | None:
        """Pool currently owning the live block at ``address`` (or ``None``)."""
        return self._owner_of.get(address)

    # -- statistics -----------------------------------------------------------

    @property
    def stats(self) -> AllocatorStats:
        """Aggregated per-pool statistics (dispatch accesses folded in)."""
        aggregate = AllocatorStats()
        for pool in self.pools:
            aggregate.per_pool[pool.name] = pool.stats
        return aggregate

    @property
    def dispatch_accesses(self) -> int:
        """Metadata reads spent routing requests to pools."""
        return self._dispatch_accesses

    @property
    def total_accesses(self) -> int:
        """All metadata accesses: per-pool work plus dispatch overhead."""
        return self.stats.total_accesses + self._dispatch_accesses

    @property
    def total_footprint(self) -> int:
        return self.stats.total_footprint

    @property
    def total_peak_footprint(self) -> int:
        return self.stats.total_peak_footprint

    def footprint_by_pool(self) -> dict[str, int]:
        return {pool.name: pool.stats.footprint for pool in self.pools}

    def peak_footprint_by_pool(self) -> dict[str, int]:
        return {pool.name: pool.stats.peak_footprint for pool in self.pools}

    def accesses_by_pool(self) -> dict[str, int]:
        return {pool.name: pool.stats.accesses.total for pool in self.pools}

    def stats_for(self, pool_name: str) -> PoolStats:
        return self.pool_named(pool_name).stats

    def check_all_freed(self) -> bool:
        """True when the application released every block (leak check)."""
        return not self._owner_of

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        pool_list = ", ".join(pool.name for pool in self.pools)
        return f"ComposedAllocator(name={self.name!r}, pools=[{pool_list}])"
