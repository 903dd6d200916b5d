"""Profiling substrate: traces, trace-driven profiler, metrics, logs and parser."""

from .batch import BatchReplayEngine
from .events import AllocationEvent, EventKind, alloc, free
from .logformat import (
    ProfilingLogWriter,
    format_event_lines,
    format_level_lines,
    format_pool_lines,
    format_result_line,
    log_to_string,
    write_log,
)
from .metrics import (
    METRICS,
    LevelMetrics,
    MetricSet,
    MetricSpec,
    ProfileResult,
    improvement_factor,
    metric_keys,
    metric_spec,
    percent_decrease,
)
from .parser import (
    LogParseError,
    ParsedLog,
    ProfilingLogParser,
    iter_result_metrics,
    parse_log,
    parse_log_text,
)
from .profiler import (
    DEFAULT_PAYLOAD_ACCESS_FACTOR,
    Profiler,
    profile_trace,
)
from .tracer import AllocationTrace, TraceError, TraceSummary

__all__ = [
    "AllocationEvent",
    "AllocationTrace",
    "BatchReplayEngine",
    "DEFAULT_PAYLOAD_ACCESS_FACTOR",
    "EventKind",
    "LevelMetrics",
    "LogParseError",
    "METRICS",
    "MetricSet",
    "MetricSpec",
    "ParsedLog",
    "ProfileResult",
    "Profiler",
    "ProfilingLogParser",
    "ProfilingLogWriter",
    "TraceError",
    "TraceSummary",
    "alloc",
    "format_event_lines",
    "format_level_lines",
    "format_pool_lines",
    "format_result_line",
    "free",
    "improvement_factor",
    "iter_result_metrics",
    "log_to_string",
    "metric_keys",
    "metric_spec",
    "parse_log",
    "parse_log_text",
    "percent_decrease",
    "profile_trace",
    "write_log",
]
