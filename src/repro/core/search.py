"""Heuristic search strategies over the parameter space (extension).

The paper explores the space exhaustively (its spaces are enumerable in a
night of simulation).  For larger spaces, or when the designer wants a
preview before committing to a full run, this module provides
:class:`SearchStrategy`, the base of every search strategy, which reuses
the point-evaluation machinery of the exhaustive engine, and
:class:`RandomSearch`, uniform sampling of the space.

All strategies return a :class:`ResultDatabase`, so the downstream Pareto /
trade-off / reporting code is identical to the exhaustive path.

Candidate generation is separated from candidate evaluation: each strategy
first draws a full generation/batch of points from its **private**
``random.Random(seed)`` stream (no shared module-level RNG state), then
evaluates the batch in one :meth:`ExplorationEngine.evaluate_points` call.
Because no random draws happen during evaluation, the search trajectory for
a given seed is identical whatever :class:`~repro.core.exploration.
EvaluationBackend` performs the evaluations — serial and process-pool runs
produce the same databases.

The generation loop every generational strategy shares lives once, in
:class:`SearchStrategy`: a strategy proposes points and hands them to
:meth:`~SearchStrategy._step`, which trims the generation to the budget,
evaluates it and counts a stall when it adds no new evaluation;
:meth:`~SearchStrategy._seed` does the same for uniform random starting
points, :meth:`~SearchStrategy._members` lists everything evaluated so far, and
:attr:`~SearchStrategy._searching` says whether to go on (budget left, not
stalled).

The multi-objective portfolio (NSGA-II, the one genetic algorithm, and
the TPE sampler) lives in :mod:`repro.core.strategies` and builds on the
same :class:`SearchStrategy` base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..profiling.metrics import metric_keys
from .exploration import ExplorationEngine
from .results import ExplorationRecord, ResultDatabase, ResultSink

#: Default evaluation budget of a heuristic search.  This is the single
#: definition — :class:`SearchBudget`, the experiment spec and the CLI all
#: derive their default from it.
DEFAULT_SEARCH_BUDGET = 200


@dataclass
class SearchBudget:
    """How many configuration evaluations a heuristic search may spend."""

    evaluations: int = DEFAULT_SEARCH_BUDGET
    seed: int = 0

    def __post_init__(self) -> None:
        if self.evaluations <= 0:
            raise ValueError("evaluation budget must be positive")


class SearchStrategy:
    """Base class: evaluates points through an :class:`ExplorationEngine`.

    ``metrics`` are the objectives (all four by default) — they drive the
    scalarisation / selection of the concrete strategies.
    """

    name = "abstract"

    #: Consecutive generations allowed to add no new evaluation before a
    #: strategy gives up (guards against spinning forever on a small space
    #: whose points are all memoised while budget remains).
    max_stalled_generations = 10

    def __init__(
        self,
        engine: ExplorationEngine,
        budget: SearchBudget | None = None,
        metrics: list[str] | None = None,
    ) -> None:
        self.engine = engine
        self.budget = budget or SearchBudget()
        self.metrics = metrics or metric_keys()
        # Every strategy instance owns its RNG; nothing here touches the
        # process-wide ``random`` module, so concurrently constructed
        # strategies (or parallel backends) cannot perturb each other.
        self.rng = random.Random(self.budget.seed)
        self._evaluated: dict[int, ExplorationRecord] = {}
        # Consecutive generations that added no new evaluation (see _step).
        self._stalled = 0
        self._sink: ResultSink | None = None

    # -- helpers ------------------------------------------------------------

    def _evaluate_batch(
        self, points: list[dict], database: ResultDatabase
    ) -> list[ExplorationRecord]:
        """Evaluate a generation of points as one backend batch.

        The whole generation goes through the engine, whose memoisation
        cache answers revisited points (no-op mutations, repeated offspring)
        without re-profiling; only points this strategy has not
        produced before are appended to ``database``, in generation order.
        Returns one record per submitted point, order preserved.
        """
        indices = [self.engine.space.index_of(point) for point in points]
        items = [
            (point, f"{self.name}_{index:06d}")
            for point, index in zip(points, indices)
        ]
        records = self.engine.evaluate_points(items)
        for index, record in zip(indices, records):
            if index not in self._evaluated:
                self._evaluated[index] = record
                database.add(record)
                if self._sink is not None:
                    self._sink.accept(record)
        return records

    def _within_budget(self, points: list[dict]) -> list[dict]:
        """Truncate a candidate generation to the remaining budget.

        Only points that would cost a *new* evaluation consume budget;
        already-memoised points ride along for free, mirroring how
        ``evaluations_used`` is counted.
        """
        remaining = self.budget.evaluations - self.evaluations_used
        taken: list[dict] = []
        new_indices: set[int] = set()
        for point in points:
            index = self.engine.space.index_of(point)
            if index not in self._evaluated and index not in new_indices:
                if remaining <= 0:
                    continue
                new_indices.add(index)
                remaining -= 1
            taken.append(point)
        return taken

    @property
    def evaluations_used(self) -> int:
        return len(self._evaluated)

    @property
    def _searching(self) -> bool:
        """Budget left and fewer than ``max_stalled_generations`` stalls in a row."""
        return (
            self.evaluations_used < self.budget.evaluations
            and self._stalled < self.max_stalled_generations
        )

    def _members(self) -> list[tuple[dict, ExplorationRecord]]:
        """``(parameters, record)`` of every point evaluated so far, in
        evaluation order."""
        return [(record.parameters, record) for record in self._evaluated.values()]

    def _step(
        self, points: list[dict], database: ResultDatabase
    ) -> list[tuple[dict, ExplorationRecord]]:
        """Evaluate one generation: trim it to the budget, evaluate it as one
        batch and count a stall when it added no new evaluation (a memoised
        or duplicate generation).  Returns the evaluated ``(point, record)``
        pairs in order."""
        used_before = self.evaluations_used
        points = self._within_budget(points)
        records = self._evaluate_batch(points, database) if points else []
        self._stalled = self._stalled + 1 if self.evaluations_used == used_before else 0
        return list(zip(points, records))

    def _seed(self, size: int, database: ResultDatabase) -> None:
        """Evaluate uniformly random points until ``size`` distinct points
        have been evaluated.  Redraws are bounded by the stall counter."""
        while self._searching and self.evaluations_used < size:
            seeds = [self._random_point() for _ in range(size - self.evaluations_used)]
            self._step(seeds, database)

    def _random_point(self) -> dict:
        return self.engine.space.point_at(self.rng.randrange(self.engine.space.size()))

    def run(self, sink: ResultSink | None = None) -> ResultDatabase:
        """Template method: snapshot cache/store counters around :meth:`_search`.

        The produced database carries the engine's provenance, so heuristic
        results are attributable to an evaluation context (and a warm
        persistent store benefits searches exactly as it does exhaustive
        runs).  ``sink`` receives every newly evaluated record as its
        generation completes, before the search finishes.
        """
        database = ResultDatabase(name=f"{self.engine.trace.name}-{self.name}")
        snapshot = self.engine._counter_snapshot()
        self._sink = sink
        try:
            self._search(database)
        finally:
            self._sink = None
        self.engine._record_counters(database, snapshot)
        self.engine._attach_provenance(database)
        return database

    def _search(self, database: ResultDatabase) -> None:
        raise NotImplementedError


class RandomSearch(SearchStrategy):
    """Uniformly sample the space until the budget is spent.

    The whole sample is evaluated as one backend batch.
    """

    name = "random"

    def _search(self, database: ResultDatabase) -> None:
        total = min(self.budget.evaluations, self.engine.space.size())
        points = self.engine.space.sample(total, seed=self.budget.seed)
        self._evaluate_batch(points, database)
