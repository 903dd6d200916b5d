"""Random-forest surrogate search: learn the replay, evaluate the elite.

The expensive operation in allocator exploration is the full trace replay
behind every metric vector.  This strategy learns a cheap stand-in — one
:class:`~repro.core.strategies.forest.RandomForest` regressor per chosen
metric over the encoded parameter space, retrained each round on every
feasible configuration evaluated so far — scores a large random candidate
pool with the model, and sends only the predicted-elite fraction to real
replays.  With ``surrogate_fraction=0.125`` each real evaluation is
amortised over 8 model-scored candidates, which is how the strategy
reaches the Pareto front on ~1 % of the evaluations an exhaustive sweep
would spend.

Elites are chosen by non-dominated sorting plus crowding distance over the
*predicted* metric vectors, so the picked batch spreads along the predicted
front instead of clustering on one predicted optimum.  Pool candidates
ranked out by the model are counted (once per configuration) in
``surrogate_skips``: they were discarded on model prediction alone, without
any dominance proof.

Model training draws only from the strategy's private seeded RNG and
happens strictly between evaluation batches, so fixed-seed runs stay
byte-identical across evaluation backends (and with or without numpy —
see :mod:`repro.core.strategies.forest`).
"""

from __future__ import annotations

from ..exploration import ExplorationEngine
from ..results import ExplorationRecord, ResultDatabase
from ..search import SearchBudget, SearchStrategy
from .forest import RandomForest
from .nsga2 import crowded_order

#: Fewest feasible observations before the forests are trusted; below this
#: the strategy keeps sampling uniformly at random.
MIN_TRAINING_ROWS = 4


class SurrogateSearch(SearchStrategy):
    """Forest-surrogate search: model-rank a pool, replay only the elite."""

    name = "surrogate"

    def __init__(
        self,
        engine: ExplorationEngine,
        budget: SearchBudget | None = None,
        metrics: list[str] | None = None,
        initial: int = 16,
        candidates: int = 128,
        surrogate_fraction: float = 0.125,
        trees: int = 12,
        depth: int = 6,
    ) -> None:
        super().__init__(engine, budget, metrics)
        if initial <= 0 or candidates <= 0:
            raise ValueError("initial and candidates must be positive")
        if not 0.0 < surrogate_fraction <= 1.0:
            raise ValueError(
                f"surrogate_fraction must be in (0, 1], got {surrogate_fraction}"
            )
        if trees <= 0 or depth <= 0:
            raise ValueError("trees and depth must be positive")
        self.initial = initial
        self.candidates = candidates
        self.surrogate_fraction = surrogate_fraction
        self.trees = trees
        self.depth = depth
        # Encoded-feature dictionary: parameter value -> ordinal position.
        self._value_index = {
            parameter.name: {value: i for i, value in enumerate(parameter.values)}
            for parameter in engine.space
        }
        # Configurations already counted in ``surrogate_skips`` — a pool
        # candidate ranked out by the model in several rounds counts once.
        self._model_rejected: set[int] = set()

    # -- the learned model --------------------------------------------------

    def _encode(self, point: dict) -> tuple[float, ...]:
        """A point as the ordinal positions of its values, in space order."""
        return tuple(
            float(self._value_index[parameter.name][point[parameter.name]])
            for parameter in self.engine.space
        )

    def _train(
        self, members: list[tuple[dict, ExplorationRecord]]
    ) -> list[RandomForest] | None:
        """One forest per metric, trained on the feasible members.

        Returns ``None`` while fewer than :data:`MIN_TRAINING_ROWS` feasible
        observations exist — an untrained model would only mislead.
        Infeasible records are excluded: their metric vectors cover a
        truncated replay and would teach the model that OOM is cheap.
        """
        feasible = [m for m in members if m[1].feasible]
        if len(feasible) < MIN_TRAINING_ROWS:
            return None
        rows = [self._encode(point) for point, _ in feasible]
        forests = []
        for metric in self.metrics:
            targets = [record.metrics.value(metric) for _, record in feasible]
            forest = RandomForest(trees=self.trees, max_depth=self.depth)
            forests.append(forest.fit(rows, targets, self.rng))
        return forests

    def _rank_pool(
        self, pool: list[dict], forests: list[RandomForest]
    ) -> list[dict]:
        """Pool ordered best-first by NDS + crowding over predicted vectors."""
        rows = [self._encode(point) for point in pool]
        columns = [forest.predict_batch(rows) for forest in forests]
        predicted = [
            tuple(column[i] for column in columns) for i in range(len(pool))
        ]
        return [pool[index] for index, _, _ in crowded_order(predicted)]

    # -- the search ---------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Real evaluations per round: the elite fraction of the pool."""
        return max(1, round(self.surrogate_fraction * self.candidates))

    def _draw_pool(self) -> list[dict]:
        """Up to ``candidates`` distinct unevaluated random points."""
        pool: list[dict] = []
        seen: set[int] = set()
        # Bounded oversampling: a small space (or a nearly exhausted one)
        # must not spin forever redrawing known points.
        for _ in range(4 * self.candidates):
            if len(pool) >= self.candidates:
                break
            point = self._random_point()
            index = self.engine.space.index_of(point)
            if index in self._evaluated or index in seen:
                continue
            seen.add(index)
            pool.append(point)
        return pool

    def _search(self, database: ResultDatabase) -> None:
        # Startup: uniform random observations to give the forests a floor.
        self._seed(self.initial, database)
        while self._searching:
            pool = self._draw_pool()
            if not pool:
                break
            forests = self._train(self._members())
            if forests is None:
                chosen = pool[: self.batch_size]
            else:
                ordered = self._rank_pool(pool, forests)
                chosen = ordered[: self.batch_size]
                for point in ordered[self.batch_size :]:
                    # Discarded on model prediction alone — no dominance
                    # proof exists for these, so they are *surrogate* skips.
                    index = self.engine.space.index_of(point)
                    if index not in self._model_rejected:
                        self._model_rejected.add(index)
                        self.surrogate_skips += 1
            self._step(chosen, database)
