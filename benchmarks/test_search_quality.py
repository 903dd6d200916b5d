"""Experiment SEARCH-QUALITY: the search portfolio vs exhaustive truth.

The headline claim of the search portfolio (``repro.core.strategies``):
NSGA-II and the TPE sampler reach the exhaustive Pareto front's quality
while spending only a few percent of the evaluations an exhaustive sweep
performs.  This benchmark measures it directly:

1. the 6 480-configuration ``vtc`` parameter space is explored
   exhaustively to obtain the ground-truth front and a fixed hypervolume
   reference point (auto-derived from every feasible vector),
2. each strategy runs at evaluation budgets of 1 %, 2.5 % and 5 % of the
   exhaustive count, and its front's hypervolume is expressed as a
   fraction of the ground truth — the quality-vs-evaluations curve,
3. two hard gates assert the claim: **every** gated strategy reaches
   >= 95 % of the exhaustive hypervolume at the 5 % budget, and the
   **portfolio best** reaches >= 95 % already at the 1 % budget, and
4. one fixed-seed TPE run is repeated serially and under a process-pool
   backend; the two databases must be byte-identical (the determinism
   contract), a flag the CI bench job hard-gates.

The all-feasible reference lies so far out that any handful of points
covers nearly all of its volume, so every curve point also records two
measures that tell strategies apart: ``front_ref_hypervolume_fraction``
(the same ratio against ``reference_point(exhaustive front)``, the
reference ``perfbench`` uses) and ``front_recall`` (the share of distinct
exhaustive-front vectors the run found).  ``evaluations_used`` is what
the run actually spent, which a stalled strategy leaves below the budget.

Full runs write ``BENCH_search.json`` in the repository root, quick runs
the git-ignored ``BENCH_search.quick.json``, which the CI bench-smoke job
gates and uploads as an artifact.  Plain pytest runs the
synthetic-workload space; ``BENCH_SEARCH_FULL=1`` — ``make
bench-search-full`` — additionally grinds the real VTC decoder trace and
the registry ``bursty`` and ``sessions`` workloads through the same
protocol (a full exhaustive sweep of the space for each).

Run with ``pytest benchmarks/test_search_quality.py -s``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import registry
from repro.core.exploration import ExplorationEngine, ProcessPoolBackend
from repro.core.pareto import hypervolume, reference_point
from repro.core.search import RandomSearch, SearchBudget
from repro.core.space import STANDARD_SPACES
from repro.core.strategies import NSGA2Search, TPESearch
from repro.workloads.synthetic import UniformRandomWorkload

from .common import SEED, print_table, vtc_trace, write_bench_json

#: ``BENCH_SEARCH_FULL=1`` adds the real VTC decoder trace to the protocol.
_FULL_ENV = bool(os.environ.get("BENCH_SEARCH_FULL"))

#: Budgets as fractions of the exhaustive evaluation count.
FRACTIONS = (0.01, 0.025, 0.05)

#: Gate 1: hypervolume fraction every strategy must reach at FRACTIONS[-1].
STRATEGY_FLOOR = 0.95

#: Gate 2: hypervolume fraction the best portfolio member must reach at
#: FRACTIONS[0] — the "Pareto front with ~1 % of the evaluations" headline.
PORTFOLIO_FLOOR = 0.95

#: The strategies measured (random sampling rides along as the baseline
#: curve; it is not gated).
STRATEGIES = ("nsga2", "tpe", "random")

#: The portfolio members both hypervolume gates apply to.
GATED = ("nsga2", "tpe")

#: Collected by the tests in this module, written once at module teardown.
_RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def bench_ledger():
    """Write the module's BENCH_search document after its measurements ran."""
    yield
    if not _RESULTS:  # pragma: no cover - nothing measured
        return
    document = {
        "benchmark": "search_quality",
        "seed": SEED,
        "fractions": list(FRACTIONS),
        "gates": {
            "strategy_floor": STRATEGY_FLOOR,
            "strategy_fraction": FRACTIONS[-1],
            "portfolio_floor": PORTFOLIO_FLOOR,
            "portfolio_fraction": FRACTIONS[0],
        },
        **_RESULTS,
    }
    write_bench_json("search", "full" if _FULL_ENV else "quick", document)


def synthetic_trace():
    """The cheap synthetic trace driving the quick-mode protocol."""
    return UniformRandomWorkload(operations=300).generate(seed=SEED)


def registry_trace(name: str):
    """A trace factory for the registry workload ``name`` at its defaults."""
    return lambda: registry.workloads.create(name).generate(seed=SEED)


#: (key, workload label, trace factory) per benchmarked setup.  All use
#: the 6 480-point ``vtc`` space — large enough that a 1 % budget is still
#: a meaningful search, small enough that the exhaustive ground truth runs
#: in seconds (quick) / minutes (full).
SETUPS = [("uniform-vtc", "uniform-300", synthetic_trace)]
if _FULL_ENV:
    SETUPS += [
        ("vtc-vtc", "vtc-decoder", vtc_trace),
        ("bursty-vtc", "bursty", registry_trace("bursty")),
        ("sessions-vtc", "sessions", registry_trace("sessions")),
    ]


def strategy_params(name: str, budget: int) -> dict:
    """Budget-scaled strategy parameters.

    The defaults target the default 200-evaluation budget; at a 1 % budget
    of a 6 480-point space (65 evaluations) a 16-member startup phase
    would eat a quarter of the budget, so population/startup scale with it.
    """
    if name == "nsga2":
        size = max(8, budget // 6)
        return {"population": size, "offspring": size}
    if name == "tpe":
        return {"startup": max(8, budget // 6), "batch": 8, "candidates": 96}
    return {}


def build_strategy(name: str, engine, budget: int):
    classes = {
        "nsga2": NSGA2Search,
        "tpe": TPESearch,
        "random": RandomSearch,
    }
    return classes[name](
        engine,
        SearchBudget(evaluations=budget, seed=SEED),
        **strategy_params(name, budget),
    )


def test_quality_vs_evaluations_curves():
    """Measure every curve and hard-gate the two hypervolume floors."""
    space = STANDARD_SPACES["vtc"]()
    for key, workload_label, trace_factory in SETUPS:
        trace = trace_factory()
        started = time.perf_counter()
        exhaustive = ExplorationEngine(space, trace).explore()
        exhaustive_seconds = time.perf_counter() - started
        feasible_vectors = [
            record.metric_vector() for record in exhaustive.feasible_records()
        ]
        reference = reference_point(feasible_vectors)
        truth_front = [
            record.metric_vector() for record in exhaustive.pareto_records()
        ]
        truth = hypervolume(truth_front, reference)
        assert truth > 0.0
        front_reference = reference_point(truth_front)
        front_truth = hypervolume(truth_front, front_reference)
        truth_vectors = set(truth_front)

        curves: dict[str, list[dict]] = {name: [] for name in STRATEGIES}
        rows = []
        for fraction in FRACTIONS:
            budget = round(fraction * space.size())
            for name in STRATEGIES:
                engine = ExplorationEngine(space, trace)
                started = time.perf_counter()
                database = build_strategy(name, engine, budget).run()
                seconds = time.perf_counter() - started
                front = [
                    record.metric_vector() for record in database.pareto_records()
                ]
                achieved = hypervolume(front, reference) / truth
                front_achieved = hypervolume(front, front_reference) / front_truth
                recall = len(truth_vectors.intersection(front)) / len(truth_vectors)
                curves[name].append(
                    {
                        "fraction": fraction,
                        "evaluations": budget,
                        "evaluations_used": len(database),
                        "hypervolume_fraction": achieved,
                        "front_ref_hypervolume_fraction": front_achieved,
                        "front_recall": recall,
                        "front_size": len(front),
                        "seconds": round(seconds, 3),
                    }
                )
                rows.append(
                    (
                        name,
                        f"{fraction:.1%}",
                        budget,
                        len(database),
                        f"{achieved:.4f}",
                        f"{front_achieved:.4f}",
                        f"{recall:.2f}",
                        len(front),
                        f"{seconds:.2f}",
                    )
                )

        print_table(
            f"search quality vs evaluations — {key} "
            f"(truth: {len(truth_front)}-point front over {space.size()} configs)",
            rows,
            (
                "strategy",
                "budget",
                "evals",
                "used",
                "HV fraction",
                "front-ref HV",
                "recall",
                "front",
                "s",
            ),
        )

        # Gate 1: every portfolio member reaches the floor at the largest
        # (still <= 5 %) budget fraction.
        for name in GATED:
            final = curves[name][-1]["hypervolume_fraction"]
            assert final >= STRATEGY_FLOOR, (
                f"{key}: {name} reached only {final:.4f} of the exhaustive "
                f"hypervolume at a {FRACTIONS[-1]:.1%} budget "
                f"(gate: {STRATEGY_FLOOR})"
            )
        # Gate 2: the portfolio best crosses the floor at the ~1 % budget.
        best_at_min = max(curves[name][0]["hypervolume_fraction"] for name in GATED)
        assert best_at_min >= PORTFOLIO_FLOOR, (
            f"{key}: portfolio best reached only {best_at_min:.4f} at a "
            f"{FRACTIONS[0]:.1%} budget (gate: {PORTFOLIO_FLOOR})"
        )

        _RESULTS.setdefault("setups", {})[key] = {
            "workload": workload_label,
            "space": "vtc",
            "space_size": space.size(),
            "exhaustive": {
                "evaluations": len(exhaustive),
                "feasible": exhaustive.feasible_count,
                "front_size": len(truth_front),
                "distinct_front_vectors": len(truth_vectors),
                "hypervolume": truth,
                "front_ref_hypervolume": front_truth,
                "seconds": round(exhaustive_seconds, 3),
            },
            "reference_point": list(reference),
            "front_reference_point": list(front_reference),
            "curves": curves,
            "portfolio_best_at_min_fraction": best_at_min,
        }


def test_serial_and_pool_runs_byte_identical(tmp_path):
    """The determinism contract at benchmark scale: the TPE search (the
    model-guided portfolio member) at the 1 % budget produces byte-identical
    artefacts serially and under a process pool.  CI hard-gates the
    recorded flag."""
    space = STANDARD_SPACES["vtc"]()
    trace = synthetic_trace()
    budget = round(FRACTIONS[0] * space.size())

    def run(backend=None):
        engine = ExplorationEngine(space, trace, backend=backend)
        try:
            database = build_strategy("tpe", engine, budget).run()
        finally:
            engine.close()
        return database

    serial_path, pool_path = tmp_path / "serial.json", tmp_path / "pool.json"
    run().to_json(serial_path)
    run(ProcessPoolBackend(jobs=4)).to_json(pool_path)
    identical = serial_path.read_bytes() == pool_path.read_bytes()
    _RESULTS["identity"] = {
        "strategy": "tpe",
        "evaluations": budget,
        "identical_databases": identical,
    }
    print(
        f"\nserial vs process-pool tpe run ({budget} evaluations): "
        f"identical={identical}"
    )
    assert identical
