"""Tree-structured Parzen estimator (TPE) over the categorical space.

A Bayesian-optimisation sampler in the style of Bergstra et al. (2011),
adapted to the allocator space: every dimension is categorical (a
:class:`~repro.core.parameters.Parameter` with an explicit value list), so
the two Parzen densities reduce to Laplace-smoothed per-dimension value
histograms.

Each round splits the evaluated configurations into a *good* set (the best
``gamma`` fraction under Pareto rank, then crowding pressure via the first
metric) and the rest, fits the two histograms ``l(v)`` (good) and ``g(v)``
(rest), draws a candidate pool from ``l``, and sends the candidates with
the highest acquisition score ``sum_d log(l(v_d) / g(v_d))`` — the
categorical expected-improvement proxy — to real evaluation as one batch.

Infeasible configurations (OOM on the trace) always land in the *rest*
set, so the sampler steers away from value combinations that failed, not
just away from mediocre ones.
"""

from __future__ import annotations

import math

from ..exploration import ExplorationEngine
from ..pareto import pareto_rank
from ..results import ExplorationRecord, ResultDatabase
from ..search import SearchBudget, SearchStrategy


class TPESearch(SearchStrategy):
    """TPE sampler: model good-vs-rest parameter densities, sample the ratio."""

    name = "tpe"

    def __init__(
        self,
        engine: ExplorationEngine,
        budget: SearchBudget | None = None,
        metrics: list[str] | None = None,
        startup: int = 16,
        batch: int = 8,
        candidates: int = 64,
        gamma: float = 0.25,
    ) -> None:
        super().__init__(engine, budget, metrics)
        if startup <= 0 or batch <= 0 or candidates <= 0:
            raise ValueError("startup, batch and candidates must be positive")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        self.startup = startup
        self.batch = batch
        self.candidates = candidates
        self.gamma = gamma

    # -- density model ------------------------------------------------------

    def _split(
        self, members: list[tuple[dict, ExplorationRecord]]
    ) -> tuple[list[dict], list[dict]]:
        """Split evaluated members into (good, rest) point sets.

        Feasible members are ordered by Pareto rank over the chosen
        metrics (first-metric value breaks ties deterministically); the top
        ``gamma`` fraction — at least one — is *good*.  Infeasible members
        are always *rest*.
        """
        feasible = [m for m in members if m[1].feasible]
        rest_points = [point for point, record in members if not record.feasible]
        if not feasible:
            return [], rest_points
        vectors = [record.metric_vector(self.metrics) for _, record in feasible]
        ranks = pareto_rank(vectors)
        order = sorted(range(len(feasible)), key=lambda i: (ranks[i], vectors[i], i))
        cut = max(1, int(math.ceil(self.gamma * len(feasible))))
        good_points = [feasible[i][0] for i in order[:cut]]
        rest_points.extend(feasible[i][0] for i in order[cut:])
        return good_points, rest_points

    def _histograms(self, points: list[dict]) -> dict[str, dict]:
        """Laplace-smoothed per-dimension value frequencies of ``points``.

        With ``n`` observations of a dimension with ``k`` values, value
        ``v`` seen ``c`` times gets probability ``(c + 1) / (n + k)`` — the
        add-one prior keeps every value reachable (density never zero), so
        the acquisition ratio is always finite and exploration never
        collapses onto the observed values alone.
        """
        model: dict[str, dict] = {}
        total = len(points)
        for parameter in self.engine.space:
            counts = {value: 0 for value in parameter.values}
            for point in points:
                counts[point[parameter.name]] += 1
            k = len(parameter.values)
            model[parameter.name] = {
                value: (count + 1) / (total + k) for value, count in counts.items()
            }
        return model

    def _sample_from(self, model: dict[str, dict]) -> dict:
        """Draw one point from the good-density model, dimension by dimension."""
        point = {}
        for parameter in self.engine.space:
            weights = model[parameter.name]
            point[parameter.name] = self.rng.choices(
                parameter.values,
                weights=[weights[value] for value in parameter.values],
            )[0]
        return point

    def _score(self, point: dict, good: dict[str, dict], rest: dict[str, dict]) -> float:
        """Acquisition score: ``sum_d log(l(v_d) / g(v_d))``, higher is better."""
        return sum(
            math.log(good[name][value] / rest[name][value])
            for name, value in point.items()
        )

    # -- the search ---------------------------------------------------------

    def _search(self, database: ResultDatabase) -> None:
        # Startup: uniform random observations to seed the two densities.
        self._seed(self.startup, database)
        while self._searching:
            good_points, rest_points = self._split(self._members())
            if not good_points:
                # Nothing feasible yet: keep sampling uniformly.
                proposals = [self._random_point() for _ in range(self.batch)]
            else:
                good = self._histograms(good_points)
                rest = self._histograms(rest_points)
                pool = [self._sample_from(good) for _ in range(self.candidates)]
                # Highest acquisition first; space index breaks exact score
                # ties so the ordering is deterministic.
                pool.sort(
                    key=lambda p: (
                        -self._score(p, good, rest),
                        self.engine.space.index_of(p),
                    )
                )
                proposals, proposed = [], set()
                for point in pool:
                    index = self.engine.space.index_of(point)
                    if index in self._evaluated or index in proposed:
                        continue
                    proposed.add(index)
                    proposals.append(point)
                    if len(proposals) >= self.batch:
                        break
                if not proposals:
                    # The model only reproduces known points: fall back to
                    # uniform sampling for one round to regain diversity.
                    proposals = [self._random_point() for _ in range(self.batch)]
            self._step(proposals, database)
