"""NSGA-II: fast non-dominated sorting with crowding-distance selection.

The reference algorithm for multi-objective evolutionary search (Deb et
al., 2002), the workhorse of allocator design-space exploration in the
parallel-EA DMM literature, and the repository's one genetic algorithm
(the registry name ``evolutionary`` runs it).  Three ingredients make it
more than a (mu + lambda) loop with Pareto-rank selection:

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

from ..exploration import ExplorationEngine
from ..pareto import fast_non_dominated_sort
from ..results import ExplorationRecord, ResultDatabase
from ..search import SearchBudget, SearchStrategy

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


class NSGA2Search(SearchStrategy):
    """NSGA-II: non-dominated sorting + crowding-distance selection."""

    name = "nsga2"

    def __init__(
        self,
        engine: ExplorationEngine,
        budget: SearchBudget | None = None,
        metrics: list[str] | None = None,
        population: int = 16,
        offspring: int = 16,
        mutation_rate: float = 0.3,
    ) -> None:
        super().__init__(engine, budget, metrics)
        if population <= 1 or offspring <= 0:
            raise ValueError("population must be > 1 and offspring > 0")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
        self.population_size = population
        self.offspring_size = offspring
        self.mutation_rate = mutation_rate

    # -- selection machinery ------------------------------------------------

    def _order(
        self, members: list[tuple[dict, ExplorationRecord]]
    ) -> list[tuple[dict, ExplorationRecord, int, float]]:
        """Members annotated with (rank, crowding), best first.

        Constrained domination: feasible members are ordered layer by layer
        over the chosen metrics, the more isolated member (larger crowding
        distance) first and the index breaking exact ties; infeasible
        members always rank behind every feasible layer, fewest failed
        allocations first.  An infeasible replay stopped at its first failed
        allocation, so its metric vector looks cheap and must not compete
        with the feasible ones.
        """
        feasible = [m for m in members if m[1].feasible]
        vectors = [record.metric_vector(self.metrics) for _, record in feasible]
        annotated = []
        for layer, front in enumerate(fast_non_dominated_sort(vectors)):
            distances = crowding_distance(vectors, front)
            for index in sorted(front, key=lambda i: (-distances[i], i)):
                annotated.append((*feasible[index], layer, distances[index]))
        layers = annotated[-1][2] + 1 if annotated else 0
        failed = sorted(
            (record for _, record in members if not record.feasible),
            key=lambda record: (record.oom_failures, record.metric_vector(self.metrics)),
        )
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

    # -- variation ----------------------------------------------------------

    def _crossover(self, first: dict, second: dict) -> dict:
        """Uniform crossover of two points."""
        child = {}
        for parameter in self.engine.space:
            source = first if self.rng.random() < 0.5 else second
            child[parameter.name] = source[parameter.name]
        return child

    def _mutate(self, point: dict) -> dict:
        """Change one randomly chosen parameter to a different value."""
        mutated = dict(point)
        parameter = self.rng.choice(list(self.engine.space))
        alternatives = [value for value in parameter.values if value != point[parameter.name]]
        if alternatives:
            mutated[parameter.name] = self.rng.choice(alternatives)
        return mutated

    def _merge_offspring(
        self,
        population: list[tuple[dict, ExplorationRecord]],
        offspring: list[tuple[dict, ExplorationRecord]],
    ) -> list[tuple[dict, ExplorationRecord]]:
        """``population`` followed by each offspring point not already in it.

        Points are compared by space index: the engine answers a memoised
        repeat with a distinct copy of one record, so without this a
        selection could fill the population with copies of one point."""
        combined = list(population)
        seen = {self.engine.space.index_of(point) for point, _ in population}
        for point, record in offspring:
            index = self.engine.space.index_of(point)
            if index not in seen:
                seen.add(index)
                combined.append((point, record))
        return combined

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
