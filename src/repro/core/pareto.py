"""Pareto-dominance machinery.

The final step of the DATE'06 flow: given the metric values of every
explored configuration, keep only the Pareto-optimal ones — those for which
no other configuration is at least as good on every chosen metric and
strictly better on one.  All metrics are minimised (accesses, footprint,
energy, execution time).

Two ways to obtain a front live here:

* the batch functions (:func:`non_dominated`, :func:`pareto_front`,
  :func:`pareto_front_indices`) recompute the front from a full vector set —
  O(n·front) per call, fine for one-shot analysis of a finished run;
* :class:`IncrementalParetoFront` maintains the front *online*: each insert
  either rejects a dominated candidate or evicts the members the candidate
  dominates.  After inserting a sequence of items its member set (and
  order) is exactly what the batch functions return for the same sequence,
  so streaming consumers (the exploration engine, store-backed reporting,
  dominance pruning) never hold more than the front in memory.

Layering the whole set into successive fronts has one implementation,
:func:`fast_non_dominated_sort`; :func:`pareto_rank` is its per-vector rank
view.  The search strategies rank their populations with these two.

The functions here are generic over "items with metric vectors"; the
exploration layer calls them with :class:`ExplorationRecord` objects, and
tests call them with plain tuples.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from typing import Generic, TypeVar

T = TypeVar("T")


def dominates(first: Sequence[float], second: Sequence[float]) -> bool:
    """True when vector ``first`` Pareto-dominates vector ``second``.

    Domination (minimisation): ``first`` is no worse than ``second`` on
    every objective and strictly better on at least one.  Vectors must have
    the same length.
    """
    if len(first) != len(second):
        raise ValueError(
            f"cannot compare vectors of different lengths ({len(first)} vs {len(second)})"
        )
    strictly_better = False
    for left, right in zip(first, second):
        if left > right:
            return False
        if left < right:
            strictly_better = True
    return strictly_better


def non_dominated(vectors: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the non-dominated vectors (the Pareto front).

    Duplicated vectors are all kept (they do not dominate each other), which
    matches the paper's counting of distinct *configurations* rather than
    distinct metric points.
    """
    front: list[int] = []
    for index, candidate in enumerate(vectors):
        dominated = False
        for other_index, other in enumerate(vectors):
            if other_index == index:
                continue
            if dominates(other, candidate):
                dominated = True
                break
            # A duplicate earlier in the list keeps only its first occurrence
            # out of strictness concerns?  No: keep both (see docstring).
        if not dominated:
            front.append(index)
    return front


def pareto_front(
    items: Sequence[T],
    key: Callable[[T], Sequence[float]],
) -> list[T]:
    """Return the Pareto-optimal subset of ``items`` under metric ``key``."""
    vectors = [tuple(key(item)) for item in items]
    return [items[index] for index in non_dominated(vectors)]


def pareto_front_indices(
    items: Sequence[T],
    key: Callable[[T], Sequence[float]],
) -> list[int]:
    """Indices (into ``items``) of the Pareto-optimal subset."""
    vectors = [tuple(key(item)) for item in items]
    return non_dominated(vectors)


class IncrementalParetoFront(Generic[T]):
    """Online Pareto front: insert items one at a time, keep only the front.

    Equivalent to the batch computation: after ``add``-ing every item of a
    sequence, :meth:`items` holds exactly the items whose indices
    :func:`pareto_front_indices` would return for that sequence, in the same
    (insertion) order.  Duplicated vectors do not dominate each other, so
    all duplicates of a non-dominated vector are kept — matching
    :func:`non_dominated`.

    Each insert costs O(front · dimensions): a scan of the current members
    to detect domination of the candidate, and (only when the candidate is
    accepted) an eviction pass over the members it dominates.  Nothing
    outside the front is ever retained, which is what lets the streaming
    report path serve a 19 440-point store in O(front) record memory.
    """

    def __init__(self, key: Callable[[T], Sequence[float]] | None = None) -> None:
        self._key = key
        self._items: list[T] = []
        self._vectors: list[tuple[float, ...]] = []

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def items(self) -> list[T]:
        """Current front members, in insertion order."""
        return list(self._items)

    def vectors(self) -> list[tuple[float, ...]]:
        """Metric vectors of the current members, aligned with :meth:`items`."""
        return list(self._vectors)

    def dominates(self, vector: Sequence[float]) -> bool:
        """True when some current member dominates ``vector``."""
        candidate = tuple(vector)
        return any(dominates(member, candidate) for member in self._vectors)

    def add(self, item: T, vector: Sequence[float] | None = None) -> bool:
        """Offer one item to the front; returns True when it was accepted.

        ``vector`` defaults to ``key(item)`` when the front was built with a
        key function.  A dominated candidate is rejected; an accepted
        candidate evicts every member it dominates.
        """
        if vector is None:
            if self._key is None:
                raise ValueError("no vector given and the front has no key function")
            vector = self._key(item)
        candidate = tuple(vector)
        if any(dominates(member, candidate) for member in self._vectors):
            return False
        survivors_items: list[T] = []
        survivors_vectors: list[tuple[float, ...]] = []
        for member_item, member_vector in zip(self._items, self._vectors):
            if not dominates(candidate, member_vector):
                survivors_items.append(member_item)
                survivors_vectors.append(member_vector)
        survivors_items.append(item)
        survivors_vectors.append(candidate)
        self._items = survivors_items
        self._vectors = survivors_vectors
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IncrementalParetoFront(size={len(self._items)})"


def fast_non_dominated_sort(vectors: Sequence[Sequence[float]]) -> list[list[int]]:
    """Layer ``vectors`` into Pareto fronts (front 0 = non-dominated).

    The one layering of the package (NSGA-II's book-keeping pass, Deb et
    al. 2002): one O(N²) sweep counts, for every vector, how many vectors
    dominate it and which vectors it dominates; peeling the zero-count
    layer repeatedly yields the fronts.  Layer ``k`` is what
    :func:`non_dominated` returns once layers ``0..k-1`` are removed.
    Indices within a front stay in input order, so the layering is
    deterministic.
    """
    count = len(vectors)
    dominated_by: list[list[int]] = [[] for _ in range(count)]
    domination_count = [0] * count
    for i in range(count):
        first = vectors[i]
        for j in range(i + 1, count):
            second = vectors[j]
            better = worse = False
            for a, b in zip(first, second):
                if a < b:
                    better = True
                elif a > b:
                    worse = True
            if better and not worse:
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif worse and not better:
                dominated_by[j].append(i)
                domination_count[i] += 1
    fronts: list[list[int]] = []
    current = [index for index in range(count) if domination_count[index] == 0]
    while current:
        fronts.append(current)
        upcoming: list[int] = []
        for index in current:
            for other in dominated_by[index]:
                domination_count[other] -= 1
                if domination_count[other] == 0:
                    upcoming.append(other)
        # Restore input order within the next layer (members may be
        # released out of order by the peeling loop above).
        current = sorted(upcoming)
    return fronts


def pareto_rank(vectors: Sequence[Sequence[float]]) -> list[int]:
    """Non-dominated sorting rank of every vector (0 = on the Pareto front).

    Rank ``k`` means the vector becomes non-dominated once all vectors of
    rank < ``k`` are removed — the rank view of
    :func:`fast_non_dominated_sort`, used by the search strategies and for
    reporting "how far from optimal" a configuration is.
    """
    ranks = [0] * len(vectors)
    for rank, front in enumerate(fast_non_dominated_sort(vectors)):
        for index in front:
            ranks[index] = rank
    return ranks


def sort_front(
    items: Sequence[T],
    key: Callable[[T], Sequence[float]],
    objective_index: int = 0,
) -> list[T]:
    """Sort Pareto-front items by one objective (for plotting a curve)."""
    return sorted(items, key=lambda item: tuple(key(item))[objective_index])


def hypervolume_2d(
    vectors: Sequence[Sequence[float]],
    reference: Sequence[float],
) -> float:
    """Hypervolume (area) dominated by a 2-D front w.r.t. a reference point.

    A standard quality indicator for two-objective fronts: larger is better.
    The reference point must be dominated by every vector (i.e. be the
    "worst corner"); vectors outside it contribute nothing.
    """
    if len(reference) != 2:
        raise ValueError("hypervolume_2d needs a 2-D reference point")
    front = [
        tuple(vector)
        for vector in vectors
        if len(vector) == 2 and vector[0] <= reference[0] and vector[1] <= reference[1]
    ]
    if not front:
        return 0.0
    # Keep only non-dominated points, sorted by the first objective.
    front = [front[i] for i in non_dominated(front)]
    front.sort()
    area = 0.0
    previous_y = reference[1]
    for x, y in front:
        width = reference[0] - x
        height = previous_y - y
        if width > 0 and height > 0:
            area += width * height
        previous_y = min(previous_y, y)
    return area


def reference_point(
    vectors: Sequence[Sequence[float]],
    margin: float = 0.1,
) -> tuple[float, ...]:
    """Auto-derive a hypervolume reference point from a vector set.

    The reference is the "worst corner" of the vectors — the per-objective
    maximum — pushed outward by ``margin`` of the per-objective span, so
    every vector (including the per-objective worst ones, which would
    otherwise sit *on* the reference and contribute zero volume) dominates
    a region of positive measure.  Objectives with zero span are pushed by
    ``margin`` of their magnitude instead (or by ``margin`` itself when the
    value is zero), keeping the reference strictly worse on every axis.

    Derive the reference once from a fixed vector set (e.g. an exhaustive
    ground truth) and reuse it for every front you compare — hypervolumes
    against different references are not comparable.
    """
    if not vectors:
        raise ValueError("cannot derive a reference point from no vectors")
    if margin < 0:
        raise ValueError("reference margin must be non-negative")
    dimensions = len(vectors[0])
    lows = [min(vector[d] for vector in vectors) for d in range(dimensions)]
    highs = [max(vector[d] for vector in vectors) for d in range(dimensions)]
    reference = []
    for low, high in zip(lows, highs):
        span = high - low
        if span == 0:
            span = abs(high) if high != 0 else 1.0
        reference.append(high + margin * span)
    return tuple(reference)


def hypervolume(
    vectors: Sequence[Sequence[float]],
    reference: Sequence[float],
) -> float:
    """Hypervolume dominated by an n-D front w.r.t. a reference point.

    The standard quality indicator generalised to any number of objectives
    (all minimised; larger is better): the measure of the region dominated
    by at least one vector and bounded by ``reference``.  Computed with the
    WFG-style inclusion–exclusion recursion — exact, and fast for the small
    fronts design-space exploration produces (tens of points); it is *not*
    meant for fronts of thousands of points.  On 2-D inputs it agrees with
    :func:`hypervolume_2d` (property-tested).

    Vectors outside the reference box contribute nothing; a vector on the
    reference boundary contributes zero volume.  Use
    :func:`reference_point` to derive a reference from a ground-truth set.
    """
    reference = tuple(float(value) for value in reference)
    dimensions = len(reference)
    points = []
    for vector in vectors:
        if len(vector) != dimensions:
            raise ValueError(
                f"vector of length {len(vector)} against a "
                f"{dimensions}-D reference point"
            )
        candidate = tuple(float(value) for value in vector)
        if all(value < bound for value, bound in zip(candidate, reference)):
            points.append(candidate)
    if not points:
        return 0.0
    # Only the non-dominated, de-duplicated subset carries volume; pruning
    # it here keeps the recursion over limit sets small.
    points = _unique_non_dominated(points)
    points.sort()
    return _wfg_volume(points, reference)


def _unique_non_dominated(points: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    """The distinct non-dominated members of ``points``."""
    distinct = list(dict.fromkeys(points))
    return [distinct[index] for index in non_dominated(distinct)]


def _wfg_volume(
    points: list[tuple[float, ...]],
    reference: tuple[float, ...],
) -> float:
    """Inclusion–exclusion over a sorted, non-dominated, distinct point set.

    Each point contributes its own box volume minus the volume it shares
    with the points after it (the hypervolume of its "limit set": every
    later point clipped to be no better than this one in any objective).
    """
    total = 0.0
    for position, point in enumerate(points):
        own = 1.0
        for value, bound in zip(point, reference):
            own *= bound - value
        later = points[position + 1 :]
        if later:
            limited = [
                tuple(max(a, b) for a, b in zip(point, other)) for other in later
            ]
            limited = _unique_non_dominated(limited)
            limited.sort()
            own -= _wfg_volume(limited, reference)
        total += own
    return total


def knee_point(
    items: Sequence[T],
    key: Callable[[T], Sequence[float]],
) -> T | None:
    """The "knee" of a front: the item closest to the normalised ideal point.

    A common way to suggest a single balanced trade-off to the designer when
    they do not want to inspect the whole front.
    """
    if not items:
        return None
    vectors = [tuple(key(item)) for item in items]
    dimensions = len(vectors[0])
    minima = [min(vector[d] for vector in vectors) for d in range(dimensions)]
    maxima = [max(vector[d] for vector in vectors) for d in range(dimensions)]

    def normalised_distance(vector: Sequence[float]) -> float:
        distance = 0.0
        for d in range(dimensions):
            span = maxima[d] - minima[d]
            if span == 0:
                continue
            normalised = (vector[d] - minima[d]) / span
            distance += normalised**2
        return distance

    best_index = min(range(len(items)), key=lambda i: normalised_distance(vectors[i]))
    return items[best_index]
