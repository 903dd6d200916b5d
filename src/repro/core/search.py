"""Heuristic search strategies over the parameter space (extension).

The paper explores the space exhaustively (its spaces are enumerable in a
night of simulation).  For larger spaces, or when the designer wants a
preview before committing to a full run, this module provides three
classic design-space-exploration strategies that reuse the same
point-evaluation machinery as the exhaustive engine:

* :class:`RandomSearch`        — uniform sampling of the space.
* :class:`HillClimbSearch`     — local search mutating one parameter at a
                                 time, restarted from random points.
* :class:`EvolutionarySearch`  — a small (mu + lambda) evolutionary
                                 algorithm with Pareto-rank selection, the
                                 standard tool for multi-objective DSE.

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
:class:`SearchStrategy`: a strategy proposes points, filters them through
:meth:`~SearchStrategy._prune_candidates`, and hands them to
:meth:`~SearchStrategy._step`, which trims the generation to the budget,
evaluates it and counts a stall when it adds no new evaluation;
:meth:`~SearchStrategy._seed` does the same for uniform random starting
points, :meth:`~SearchStrategy._members` lists everything evaluated so far
and :attr:`~SearchStrategy._searching` says whether to go on (budget left,
not stalled).  Only :class:`HillClimbSearch` counts its own stalls, because
its restart evaluations count towards them.

Dominance pruning (``prune=True``) spends a *fraction* of a profiling run
per new candidate to avoid whole ones: the engine replays only a prefix of
the trace (:meth:`ExplorationEngine.predict_point`), and a candidate is
skipped before full profiling when

* its prefix already fails allocations — a sound proof of infeasibility
  (the full replay repeats the prefix exactly), or
* its partial vector is dominated by a fully evaluated record — the
  partial vector is a sound component-wise lower bound of the full vector,
  so this is a proof of full-vector dominance, or
* at least :attr:`SearchStrategy.prune_votes` already-evaluated feasible
  configurations each beat the candidate's partial vector by at least
  :attr:`SearchStrategy.prune_margin` of the observed per-metric spread on
  *every* objective.  This surrogate test compares like with like (all
  candidates are profiled on the same prefix); the margin and the vote
  quorum absorb prefix-vs-full noise.  Calibrated over 16 seeds × 4
  workloads on the compact space, the defaults produced zero skips of
  true front members while skipping 10-25 % of candidates.

Skipped candidates therefore never (first two rules) or only in
pathological cases (quorum rule) carry Pareto-optimal configurations; the
skip and prediction counters are surfaced on the produced database, its
summary, JSON artefact and text report.  Quorum skips — decided by a
surrogate prediction rather than a sound proof — are additionally counted
in ``surrogate_skips``, alongside the skips the learned-model strategies
perform.

The modern surrogate-guided portfolio (NSGA-II, the TPE sampler and the
random-forest surrogate search) lives in :mod:`repro.core.strategies` and
builds on the same :class:`SearchStrategy` base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..profiling.metrics import metric_keys
from .exploration import ExplorationEngine
from .pareto import IncrementalParetoFront, pareto_rank
from .results import ExplorationRecord, ResultDatabase, ResultSink

#: Default evaluation budget of a heuristic search.  This is the single
#: definition — :class:`SearchBudget`, the experiment spec and the CLI all
#: derive their default from it.
DEFAULT_SEARCH_BUDGET = 200

#: Default fraction of the trace replayed per dominance-pruning prediction.
#: Single definition, consumed by :class:`SearchStrategy`, the experiment
#: spec and the CLI.
DEFAULT_PRUNE_FRACTION = 0.25


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
    scalarisation / selection of the concrete strategies *and* the live
    Pareto front that dominance pruning tests candidates against.  With
    ``prune=True``, every genuinely new candidate is first profiled over a
    ``prune_fraction`` prefix of the trace and skipped when that partial
    vector is already dominated (see the module docstring for the exact
    rules); ``prune_skipped`` / ``prune_predicted`` count the outcome.
    """

    name = "abstract"

    #: Consecutive generations allowed to add no new evaluation before a
    #: strategy gives up (guards against spinning forever on a small space
    #: whose points are all memoised while budget remains).
    max_stalled_generations = 10

    #: Generation size used when a single-batch strategy (random search)
    #: prunes: the live front must be allowed to grow between batches for
    #: dominance tests to have anything to test against.  Fixed, so the
    #: pruned trajectory never depends on the evaluation backend.
    prune_batch_size = 16

    #: Surrogate-skip quorum: this many evaluated configurations must each
    #: clearly beat a candidate's partial vector before it is skipped.
    prune_votes = 3

    #: "Clearly beat" margin of the surrogate test, as a fraction of the
    #: running per-metric spread observed across partial vectors.
    prune_margin = 0.1

    def __init__(
        self,
        engine: ExplorationEngine,
        budget: SearchBudget | None = None,
        metrics: list[str] | None = None,
        prune: bool = False,
        prune_fraction: float = DEFAULT_PRUNE_FRACTION,
    ) -> None:
        self.engine = engine
        self.budget = budget or SearchBudget()
        self.metrics = metrics or metric_keys()
        self.prune = prune
        self.prune_fraction = prune_fraction
        if prune and not 0.0 < prune_fraction < 1.0:
            raise ValueError(
                f"prune_fraction must be in (0, 1) when pruning, got {prune_fraction}"
            )
        # Every strategy instance owns its RNG; nothing here touches the
        # process-wide ``random`` module, so concurrently constructed
        # strategies (or parallel backends) cannot perturb each other.
        self.rng = random.Random(self.budget.seed)
        self._evaluated: dict[int, ExplorationRecord] = {}
        # Consecutive generations that added no new evaluation (see _step).
        self._stalled = 0
        self._sink: ResultSink | None = None
        # Pruning state: the live front of fully evaluated feasible records,
        # the *partial* (prefix) vectors of those records (the surrogate
        # voters), the running per-metric spread of every partial vector
        # seen, and a cache of predictions so a candidate resubmitted by a
        # later generation is never prefix-profiled twice.
        self._live_front: IncrementalParetoFront[ExplorationRecord] = (
            IncrementalParetoFront()
        )
        self._partial_vectors: list[tuple[float, ...]] = []
        self._partial_low: list[float] = []
        self._partial_high: list[float] = []
        self._predictions: dict[int, tuple[tuple[float, ...], int]] = {}
        self._pruned_indices: set[int] = set()
        self.prune_skipped = 0
        self.prune_predicted = 0
        # Of the skipped candidates, how many were discarded on a *surrogate
        # prediction alone* (the quorum rule here, or a learned model in the
        # surrogate strategies) rather than on a sound proof.  Always a
        # separate counter so designers can tell recoverable, model-driven
        # skips from provable ones.
        self.surrogate_skips = 0

    # -- helpers ------------------------------------------------------------

    def _evaluate(self, point: dict, database: ResultDatabase) -> ExplorationRecord:
        """Evaluate one point (memoised by its index in the space)."""
        return self._evaluate_batch([point], database)[0]

    def _evaluate_batch(
        self, points: list[dict], database: ResultDatabase
    ) -> list[ExplorationRecord]:
        """Evaluate a generation of points as one backend batch.

        The whole generation goes through the engine, whose memoisation
        cache answers revisited points (hill-climb no-op mutations, repeated
        offspring) without re-profiling; only points this strategy has not
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
                if record.feasible:
                    self._live_front.add(record, record.metric_vector(self.metrics))
                    prediction = self._predictions.get(index)
                    if prediction is not None and prediction[1] == 0:
                        self._partial_vectors.append(prediction[0])
        return records

    def _fold_spread(self, vector: tuple[float, ...]) -> None:
        """Fold one partial vector into the running per-metric spread."""
        if not self._partial_low:
            self._partial_low = list(vector)
            self._partial_high = list(vector)
            return
        for j, value in enumerate(vector):
            self._partial_low[j] = min(self._partial_low[j], value)
            self._partial_high[j] = max(self._partial_high[j], value)

    def _surrogate_skip(self, vector: tuple[float, ...]) -> bool:
        """Quorum test: do ``prune_votes`` evaluated configurations clearly
        beat this partial vector on every objective?"""
        if not self._partial_low:
            return False
        slack = [
            self.prune_margin * (high - low) if high > low else 0.0
            for low, high in zip(self._partial_low, self._partial_high)
        ]
        votes = 0
        for member in self._partial_vectors:
            beaten = all(
                m <= v - s for m, v, s in zip(member, vector, slack)
            ) and any(m < v - s for m, v, s in zip(member, vector, slack))
            if beaten:
                votes += 1
                if votes >= self.prune_votes:
                    return True
        return False

    def _prune_candidates(self, points: list[dict]) -> list[dict]:
        """Drop candidates whose prefix profile proves (or strongly predicts)
        they cannot reach the Pareto front; returns the survivors in order.

        Points already evaluated by this strategy, memoised by the engine or
        present in the persistent store pass through untouched — their exact
        metrics are free, so predicting would only cost accuracy.
        """
        if not self.prune:
            return points
        kept: list[dict] = []
        for point in points:
            index = self.engine.space.index_of(point)
            if index in self._evaluated or self.engine.is_known(point):
                kept.append(point)
                continue
            prediction = self._predictions.get(index)
            if prediction is None:
                prediction = self.engine.predict_point(
                    point, fraction=self.prune_fraction, metrics=self.metrics
                )
                self._predictions[index] = prediction
                self.prune_predicted += 1
            vector, prefix_oom = prediction
            if prefix_oom:
                # The prefix already failed allocations: provably infeasible.
                self._count_skip(index)
                continue
            if self._live_front.dominates(vector):
                # A full record dominates the candidate's lower bound — a
                # sound proof of full-vector dominance.
                self._count_skip(index)
                self._fold_spread(vector)
                continue
            if self._surrogate_skip(vector):
                # The quorum merely *predicts* domination; counted separately
                # so the two kinds of skip stay distinguishable downstream.
                self._count_skip(index, surrogate=True)
                self._fold_spread(vector)
                continue
            self._fold_spread(vector)
            kept.append(point)
        return kept

    def _count_skip(self, index: int, surrogate: bool = False) -> None:
        """Count a skipped candidate once, however often it is re-proposed,
        so ``prune_skipped`` never exceeds ``prune_predicted``.  A skip
        decided by surrogate prediction (rather than a sound proof) is
        additionally counted in ``surrogate_skips``."""
        if index not in self._pruned_indices:
            self._pruned_indices.add(index)
            self.prune_skipped += 1
            if surrogate:
                self.surrogate_skips += 1

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
    def budget_left(self) -> bool:
        return self.evaluations_used < self.budget.evaluations

    @property
    def _searching(self) -> bool:
        """Budget left and fewer than ``max_stalled_generations`` stalls in a row."""
        return self.budget_left and self._stalled < self.max_stalled_generations

    def _members(self) -> list[tuple[dict, ExplorationRecord]]:
        """``(parameters, record)`` of every point evaluated so far, in
        evaluation order."""
        return [(record.parameters, record) for record in self._evaluated.values()]

    def _step(
        self, points: list[dict], database: ResultDatabase
    ) -> list[tuple[dict, ExplorationRecord]]:
        """Evaluate one generation: trim it to the budget, evaluate it as one
        batch and count a stall when it added no new evaluation (a fully
        pruned, memoised or duplicate generation).  Returns the evaluated
        ``(point, record)`` pairs in order."""
        used_before = self.evaluations_used
        points = self._within_budget(points)
        records = self._evaluate_batch(points, database) if points else []
        self._stalled = self._stalled + 1 if self.evaluations_used == used_before else 0
        return list(zip(points, records))

    def _seed(
        self, size: int, database: ResultDatabase, distinct: bool = True
    ) -> list[tuple[dict, ExplorationRecord]]:
        """Evaluate pruned, uniformly random points until ``size`` distinct
        points have been evaluated — or, with ``distinct=False``, until
        ``size`` seeds have, duplicates included.  Pruned draws are redrawn,
        bounded by the stall counter.  Returns every evaluated
        ``(point, record)`` seed pair in order."""
        seeded: list[tuple[dict, ExplorationRecord]] = []
        while self._searching:
            have = len(self._evaluated) if distinct else len(seeded)
            if have >= size:
                break
            seeds = [self._random_point() for _ in range(size - have)]
            seeded.extend(self._step(self._prune_candidates(seeds), database))
        return seeded

    def _random_point(self) -> dict:
        return self.engine.space.point_at(self.rng.randrange(self.engine.space.size()))

    def _mutate(self, point: dict) -> dict:
        """Change one randomly chosen parameter to a different value."""
        mutated = dict(point)
        parameter = self.rng.choice(list(self.engine.space))
        alternatives = [value for value in parameter.values if value != point[parameter.name]]
        if alternatives:
            mutated[parameter.name] = self.rng.choice(alternatives)
        return mutated

    def _crossover(self, first: dict, second: dict) -> dict:
        """Uniform crossover of two points."""
        child = {}
        for parameter in self.engine.space:
            source = first if self.rng.random() < 0.5 else second
            child[parameter.name] = source[parameter.name]
        return child

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
        database.prune_skipped = self.prune_skipped
        database.prune_predicted = self.prune_predicted
        database.surrogate_skips = self.surrogate_skips
        self.engine._attach_provenance(database)
        return database

    def _search(self, database: ResultDatabase) -> None:
        raise NotImplementedError


class RandomSearch(SearchStrategy):
    """Uniformly sample the space until the budget is spent.

    Without pruning the whole sample is evaluated as one backend batch.
    With pruning it is evaluated in fixed-size generations so the live
    front grows between them and later candidates can be skipped.
    """

    name = "random"

    def _search(self, database: ResultDatabase) -> None:
        total = min(self.budget.evaluations, self.engine.space.size())
        points = self.engine.space.sample(total, seed=self.budget.seed)
        if not self.prune:
            self._evaluate_batch(points, database)
            return
        for start in range(0, len(points), self.prune_batch_size):
            batch = self._prune_candidates(points[start : start + self.prune_batch_size])
            if batch:
                self._evaluate_batch(batch, database)


class HillClimbSearch(SearchStrategy):
    """Steepest-descent hill climbing with random restarts.

    Minimises a scalarised objective (the normalised sum of the chosen
    metrics) — a simple but effective local search when the designer wants
    one good configuration quickly rather than the whole front.  Each step
    evaluates ``neighbours_per_step`` single-parameter mutations of the
    current point as one batch (so a parallel backend profiles them
    concurrently) and moves to the best improving neighbour.
    """

    name = "hillclimb"

    def __init__(
        self,
        engine: ExplorationEngine,
        budget: SearchBudget | None = None,
        metrics: list[str] | None = None,
        neighbours_per_step: int = 4,
        prune: bool = False,
        prune_fraction: float = DEFAULT_PRUNE_FRACTION,
    ) -> None:
        super().__init__(engine, budget, metrics, prune, prune_fraction)
        self.neighbours_per_step = neighbours_per_step

    def _score(self, record: ExplorationRecord, scales: dict[str, float]) -> float:
        # An infeasible record (OOM on the trace) has artificially low
        # metrics — it never ran the whole application — so it must never
        # look like an improvement; score it off the scale.
        if not record.feasible:
            return float("inf")
        return sum(
            record.metrics.value(metric) / scales[metric] for metric in self.metrics
        )

    def _search(self, database: ResultDatabase) -> None:
        # Scale metrics by the value of an initial random point so that
        # objectives with large magnitudes do not dominate the scalarisation.
        current_point = self._random_point()
        current = self._evaluate(current_point, database)
        scales = {
            metric: max(current.metrics.value(metric), 1.0) for metric in self.metrics
        }
        current_score = self._score(current, scales)
        stalled = 0
        while self.budget_left and stalled < self.max_stalled_generations:
            used_before = self.evaluations_used
            neighbours = [
                self._mutate(current_point) for _ in range(self.neighbours_per_step)
            ]
            neighbours = self._prune_candidates(neighbours)
            neighbours = self._within_budget(neighbours)
            improved = False
            if neighbours:
                records = self._evaluate_batch(neighbours, database)
                best_index = min(
                    range(len(records)),
                    key=lambda i: self._score(records[i], scales),
                )
                best_score = self._score(records[best_index], scales)
                if best_score < current_score:
                    current_point = neighbours[best_index]
                    current = records[best_index]
                    current_score = best_score
                    improved = True
            if not improved:
                # Random restart.
                if not self.budget_left:
                    break
                current_point = self._random_point()
                current = self._evaluate(current_point, database)
                current_score = self._score(current, scales)
            stalled = stalled + 1 if self.evaluations_used == used_before else 0


class EvolutionarySearch(SearchStrategy):
    """(mu + lambda) evolutionary search with Pareto-rank selection."""

    name = "evolutionary"

    def __init__(
        self,
        engine: ExplorationEngine,
        budget: SearchBudget | None = None,
        metrics: list[str] | None = None,
        population: int = 16,
        offspring: int = 16,
        mutation_rate: float = 0.3,
        prune: bool = False,
        prune_fraction: float = DEFAULT_PRUNE_FRACTION,
    ) -> None:
        super().__init__(engine, budget, metrics, prune, prune_fraction)
        if population <= 1 or offspring <= 0:
            raise ValueError("population must be > 1 and offspring > 0")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
        self.population_size = population
        self.offspring_size = offspring
        self.mutation_rate = mutation_rate

    def _failure_order(self, records: list[ExplorationRecord]) -> list[ExplorationRecord]:
        """Infeasible records, least failed allocations first.

        An infeasible replay stopped at its first failed allocation, so its
        metric vector looks cheap; selection therefore ranks these records
        behind every feasible one, in this order."""
        return sorted(
            (record for record in records if not record.feasible),
            key=lambda record: (record.oom_failures, record.metric_vector(self.metrics)),
        )

    def _select(self, records: list[ExplorationRecord]) -> list[ExplorationRecord]:
        """Keep the best ``population_size`` records: feasible ones by Pareto
        rank, then by the first metric as a tiebreaker; infeasible ones
        after them, in :meth:`_failure_order`."""
        feasible = [record for record in records if record.feasible]
        vectors = [record.metric_vector(self.metrics) for record in feasible]
        ranks = pareto_rank(vectors)
        order = sorted(range(len(feasible)), key=lambda i: (ranks[i], vectors[i][0]))
        ranked = [feasible[i] for i in order] + self._failure_order(records)
        return ranked[: self.population_size]

    def _search(self, database: ResultDatabase) -> None:
        # The population is a multiset: a seed drawn twice is kept twice.
        population = self._seed(self.population_size, database, distinct=False)
        while self._searching and len(population) >= 2:
            child_points = []
            for _ in range(self.offspring_size):
                first, second = self.rng.sample(population, 2)
                child_point = self._crossover(first[0], second[0])
                if self.rng.random() < self.mutation_rate:
                    child_point = self._mutate(child_point)
                child_points.append(child_point)
            offspring = self._step(self._prune_candidates(child_points), database)
            combined = population + offspring
            selected_ids = {id(record) for record in self._select([r for _, r in combined])}
            population = [
                (point, record) for point, record in combined if id(record) in selected_ids
            ][: self.population_size]
