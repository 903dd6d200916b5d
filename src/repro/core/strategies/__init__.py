"""Surrogate-guided search portfolio (extension).

Three modern strategies on top of the :class:`~repro.core.search.
SearchStrategy` machinery, aimed at reaching the Pareto front with a small
fraction of the evaluations an exhaustive sweep spends:

* :class:`NSGA2Search`     — NSGA-II: fast non-dominated sorting with
                             crowding-distance selection.
* :class:`TPESearch`       — tree-structured Parzen estimator: sample from
                             the good-vs-rest parameter density ratio.
* :class:`SurrogateSearch` — random-forest surrogate: model-rank a large
                             candidate pool, replay only the elite.

All three are registered in :mod:`repro.api.registry` (as ``nsga2``,
``tpe`` and ``surrogate``), so they are reachable from experiment specs,
``dmexplore explore --strategy`` and the exploration service without
further wiring, and they share the base-class determinism contract:
fixed-seed runs are byte-identical across evaluation backends.

This package must not import :mod:`repro.api` (the registry imports us).
"""

from ..pareto import fast_non_dominated_sort
from .forest import RandomForest, RegressionTree
from .nsga2 import NSGA2Search, crowding_distance
from .surrogate import SurrogateSearch
from .tpe import TPESearch

__all__ = [
    "NSGA2Search",
    "RandomForest",
    "RegressionTree",
    "SurrogateSearch",
    "TPESearch",
    "crowding_distance",
    "fast_non_dominated_sort",
]
