"""NSGA-II: fast non-dominated sorting with crowding-distance selection.

The reference algorithm for multi-objective evolutionary search (Deb et
al., 2002), and the workhorse of allocator design-space exploration in the
parallel-EA DMM literature.  Three ingredients distinguish it from the
plain :class:`~repro.core.search.EvolutionarySearch`:

* :func:`~repro.core.pareto.fast_non_dominated_sort` layers the population
  into fronts,
* :func:`crowding_distance` orders members *within* a front by how isolated
  they are, so selection pressure spreads the population along the whole
  front instead of clumping around one region, and
* binary-tournament mating selection on the (rank, crowding) partial order.

Every generation is evaluated as one
:meth:`~repro.core.exploration.ExplorationEngine.evaluate_points` batch, so
the :class:`~repro.profiling.batch.BatchReplayEngine` scores the whole
generation off shared pool-group simulations and a process-pool backend
profiles it concurrently.  All random draws come from the strategy's
private RNG *between* batches, which keeps a fixed-seed run byte-identical
whatever backend evaluates it.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..pareto import fast_non_dominated_sort
from ..results import ExplorationRecord, ResultDatabase
from ..search import EvolutionarySearch

#: Crowding distance assigned to the boundary members of every front: they
#: are the extremes of the front and must always win crowding comparisons.
BOUNDARY_CROWDING = float("inf")


def crowding_distance(
    vectors: Sequence[Sequence[float]],
    front: Sequence[int],
) -> dict[int, float]:
    """Crowding distance of every member of one front.

    Per objective, the front is sorted by value; the two boundary members
    get infinite distance, interior members accumulate the normalised gap
    between their neighbours.  An objective with zero span contributes
    nothing (every member ties).  Exact value ties are ordered by index, so
    the assignment is deterministic.
    """
    distances = {index: 0.0 for index in front}
    if len(front) <= 2:
        return {index: BOUNDARY_CROWDING for index in front}
    dimensions = len(vectors[front[0]])
    for objective in range(dimensions):
        ordered = sorted(front, key=lambda index: (vectors[index][objective], index))
        low = vectors[ordered[0]][objective]
        high = vectors[ordered[-1]][objective]
        span = high - low
        distances[ordered[0]] = BOUNDARY_CROWDING
        distances[ordered[-1]] = BOUNDARY_CROWDING
        if span == 0:
            continue
        for position in range(1, len(ordered) - 1):
            index = ordered[position]
            if distances[index] == BOUNDARY_CROWDING:
                continue
            gap = (
                vectors[ordered[position + 1]][objective]
                - vectors[ordered[position - 1]][objective]
            )
            distances[index] += gap / span
    return distances


class NSGA2Search(EvolutionarySearch):
    """NSGA-II: non-dominated sorting + crowding-distance selection."""

    name = "nsga2"

    # -- selection machinery ------------------------------------------------

    def _order(
        self, members: list[tuple[dict, ExplorationRecord]]
    ) -> list[tuple[dict, ExplorationRecord, int, float]]:
        """Members annotated with (rank, crowding), best first.

        Constrained domination: feasible members are ordered layer by layer
        over the chosen metrics, the more isolated member (larger crowding
        distance) first and the index breaking exact ties; infeasible
        members always rank behind every feasible layer, in
        :meth:`~repro.core.search.EvolutionarySearch._failure_order`.
        """
        feasible = [m for m in members if m[1].feasible]
        vectors = [record.metric_vector(self.metrics) for _, record in feasible]
        annotated = []
        for layer, front in enumerate(fast_non_dominated_sort(vectors)):
            distances = crowding_distance(vectors, front)
            for index in sorted(front, key=lambda i: (-distances[i], i)):
                annotated.append((*feasible[index], layer, distances[index]))
        layers = annotated[-1][2] + 1 if annotated else 0
        failed = self._failure_order([record for _, record in members])
        annotated.extend(
            (record.parameters, record, layers + position, 0.0)
            for position, record in enumerate(failed)
        )
        return annotated

    def _tournament(
        self, ordered: list[tuple[dict, ExplorationRecord, int, float]]
    ) -> dict:
        """Binary tournament on the (rank, crowding) partial order."""
        first, second = self.rng.sample(range(len(ordered)), 2)
        a, b = ordered[first], ordered[second]
        if a[2] != b[2]:
            winner = a if a[2] < b[2] else b
        elif a[3] != b[3]:
            winner = a if a[3] > b[3] else b
        else:
            winner = a
        return winner[0]

    # -- the search ---------------------------------------------------------

    def _search(self, database: ResultDatabase) -> None:
        self._seed(self.population_size, database)
        population = self._members()
        while self._searching and len(population) >= 2:
            ordered = self._order(population)
            child_points = []
            for _ in range(self.offspring_size):
                child = self._crossover(
                    self._tournament(ordered), self._tournament(ordered)
                )
                if self.rng.random() < self.mutation_rate:
                    child = self._mutate(child)
                child_points.append(child)
            offspring = self._step(child_points, database)
            if not offspring:
                continue
            combined = self._merge_offspring(population, offspring)
            survivors = self._order(combined)[: self.population_size]
            population = [(point, record) for point, record, _, _ in survivors]
