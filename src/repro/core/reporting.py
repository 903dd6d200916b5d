"""Human-readable exploration reports.

The paper's tool presents its output "either on a GUI or in a format easy to
import to Excel or Gnuplot".  This module produces the textual report: the
per-metric trade-off table, the list of Pareto-optimal configurations with
their parameters, and the suggested knee-point configuration.  CSV/gnuplot
exports live in :mod:`repro.gui`.
"""

from __future__ import annotations

from ..profiling.metrics import metric_keys, metric_spec
from .results import ExplorationRecord, ResultDatabase, StreamingResultView
from .tradeoff import TradeoffAnalysis


def format_metric_value(metric: str, value: float) -> str:
    """Render a metric value with its unit, compactly."""
    spec = metric_spec(metric)
    if metric == "energy_nj":
        if value >= 1e6:
            return f"{value / 1e6:.2f} mJ"
        if value >= 1e3:
            return f"{value / 1e3:.2f} uJ"
        return f"{value:.1f} nJ"
    if metric == "footprint":
        if value >= 1 << 20:
            return f"{value / (1 << 20):.2f} MB"
        if value >= 1 << 10:
            return f"{value / (1 << 10):.1f} KB"
        return f"{int(value)} B"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M {spec.unit}"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k {spec.unit}"
    return f"{int(value)} {spec.unit}"


def describe_record(record: ExplorationRecord, metrics: list[str] | None = None) -> str:
    """One-line description of a record: id, key parameters, metric values."""
    keys = metrics or metric_keys()
    parameters = record.parameters
    highlights = []
    if "num_dedicated_pools" in parameters:
        highlights.append(f"{parameters['num_dedicated_pools']} dedicated pools")
    if "dedicated_pool_placement" in parameters and parameters.get("num_dedicated_pools"):
        highlights.append(f"on {parameters['dedicated_pool_placement']}")
    if "general_fit" in parameters:
        highlights.append(f"{parameters['general_fit']}")
    if "general_coalescing" in parameters:
        highlights.append(f"coalesce:{parameters['general_coalescing']}")
    values = ", ".join(
        f"{key}={format_metric_value(key, record.metrics.value(key))}" for key in keys
    )
    detail = "; ".join(highlights)
    return f"{record.configuration_id} [{detail}] -> {values}"


def tradeoff_table(analysis: TradeoffAnalysis, metrics: list[str] | None = None) -> str:
    """ASCII table of the per-metric ranges and within-Pareto gains."""
    keys = metrics or metric_keys()
    header = (
        f"{'metric':<12} {'overall min':>14} {'overall max':>14} "
        f"{'range':>8} {'pareto gain':>12} {'decrease':>9}"
    )
    lines = [header, "-" * len(header)]
    for key in keys:
        tradeoff = analysis.metric_tradeoff(key)
        lines.append(
            f"{key:<12} "
            f"{format_metric_value(key, tradeoff.overall_min):>14} "
            f"{format_metric_value(key, tradeoff.overall_max):>14} "
            f"x{tradeoff.overall_range_factor:>6.1f} "
            f"x{tradeoff.pareto_gain_factor:>10.2f} "
            f"{tradeoff.pareto_gain_percent:>8.2f}%"
        )
    return "\n".join(lines)


def pareto_listing(
    analysis: TradeoffAnalysis,
    metrics: list[str] | None = None,
    sort_by: str = "accesses",
) -> str:
    """Listing of every Pareto-optimal configuration, sorted by one metric.

    When ``sort_by`` is not among the emitted ``metrics``, the first emitted
    metric orders the listing instead.
    """
    keys = metrics or metric_keys()
    if sort_by not in keys:
        sort_by = keys[0]
    records = sorted(
        analysis.pareto_records, key=lambda record: record.metrics.value(sort_by)
    )
    lines = [f"Pareto-optimal configurations ({len(records)}):"]
    for record in records:
        lines.append("  " + describe_record(record, keys))
    return "\n".join(lines)


def exploration_report(
    database: ResultDatabase | StreamingResultView,
    pareto_metrics: list[str] | None = None,
    title: str = "",
    metrics: list[str] | None = None,
) -> str:
    """Full textual report for one exploration run.

    Works identically on an in-memory :class:`ResultDatabase` and on a
    :class:`StreamingResultView` over a persistent store — everything the
    report body states is a pure function of the records; the cache/store
    counter lines only appear when the database carries that execution
    metadata.

    ``metrics`` restricts which metrics the table, the listing and the knee
    description emit (all four by default); ``pareto_metrics`` (defaulting
    to ``metrics``) chooses the dominance objectives.
    """
    pareto_metrics = pareto_metrics or metrics
    analysis = TradeoffAnalysis(database, pareto_metrics=pareto_metrics)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(
        f"Explored {len(database)} configurations of trace "
        f"'{database.trace_name or '?'}'."
    )
    lines.append(f"Pareto-optimal configurations: {analysis.pareto_count}")
    if database.cache_hits or database.cache_misses or database.store_hits:
        parts = [
            f"Point evaluations: {database.cache_misses} profiled",
            f"{database.cache_hits} answered from the memoisation cache",
        ]
        if database.store_hits or database.store_misses or database.store_loaded:
            parts.append(f"{database.store_hits} answered from the result store")
        lines.append(", ".join(parts))
    if database.store_hits or database.store_misses or database.store_loaded:
        lines.append(
            f"Result store: {database.store_hits} hits, "
            f"{database.store_misses} misses, "
            f"{database.store_loaded} entries loaded from disk"
        )
    if database.provenance is not None and database.provenance.shard:
        lines.append(f"Shard: {database.provenance.shard} of the enumeration")
    lines.append("")
    lines.append(tradeoff_table(analysis, metrics))
    lines.append("")
    lines.append(pareto_listing(analysis, metrics))
    knee = database.knee_record(pareto_metrics)
    if knee is not None:
        lines.append("")
        lines.append("Suggested balanced configuration (knee point):")
        lines.append("  " + describe_record(knee, metrics))
    windows = getattr(database, "windows", None)
    if windows:
        lines.append("")
        lines.append(windows_section(windows))
    return "\n".join(lines)


def windows_section(windows: dict) -> str:
    """Render the windowed phase analysis attached by ``dmexplore windows``.

    One line per window — index, span, front size, the front's labels —
    plus the shift summary (windows whose optimal set differs from the
    previous window's).  Consumes the JSON-ready ``windows`` dict, so the
    section renders identically from a live run and a reloaded artefact.
    """
    unit = "events" if windows.get("mode") == "events" else "ticks"
    lines = [
        f"Windowed analysis: {windows.get('count', 0)} windows of "
        f"{windows.get('size', 0)} {unit}, metrics "
        f"{'/'.join(windows.get('metrics', []))}"
    ]
    shifts = windows.get("shifts", [])
    if shifts:
        lines.append(
            f"Front shifts at windows: {', '.join(str(s) for s in shifts)}"
        )
    else:
        lines.append("Front shifts at windows: none (stationary workload)")
    for window in windows.get("windows", []):
        labels = [member.get("label", "?") for member in window.get("front", [])]
        shown = ", ".join(labels[:4])
        if len(labels) > 4:
            shown += f", ... ({len(labels)} total)"
        marker = " *" if window.get("shifted") else ""
        lines.append(
            f"  window {window.get('index'):>3}  "
            f"{window.get('events'):>7} events  "
            f"front {window.get('front_size'):>3}{marker}  [{shown}]"
        )
    return "\n".join(lines)
