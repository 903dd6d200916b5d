"""Multi-objective search portfolio (extension).

Two modern strategies on top of the :class:`~repro.core.search.
SearchStrategy` machinery, aimed at reaching the Pareto front with a small
fraction of the evaluations an exhaustive sweep spends:

* :class:`NSGA2Search` — NSGA-II: fast non-dominated sorting with
                         crowding-distance selection.
* :class:`TPESearch`   — tree-structured Parzen estimator: sample from the
                         good-vs-rest parameter density ratio.

Both are registered in :mod:`repro.api.registry` (as ``nsga2`` and
``tpe``), so they are reachable from experiment specs, ``dmexplore explore
--strategy`` and the exploration service without further wiring, and they
share the base-class determinism contract: fixed-seed runs are
byte-identical across evaluation backends.  :class:`NSGA2Search` is the
one genetic algorithm: the retired ``evolutionary``, ``surrogate`` and
``hillclimb`` names run it, because it matched or beat each of them on
front hypervolume at no more seconds on every measured setup (see
``docs/search.md``).

:mod:`~repro.core.strategies.forest` (``RandomForest``, ``RegressionTree``)
is the random-forest regressor the retired surrogate strategy trained.  No
strategy uses it; it stays while ``perfbench/tracing.py`` still traces
``RandomForest.fit``.

This package must not import :mod:`repro.api` (the registry imports us).
"""

from ..pareto import fast_non_dominated_sort
from .forest import RandomForest, RegressionTree
from .nsga2 import NSGA2Search, crowding_distance
from .tpe import TPESearch

__all__ = [
    "NSGA2Search",
    "RandomForest",
    "RegressionTree",
    "TPESearch",
    "crowding_distance",
    "fast_non_dominated_sort",
]
