"""Fast profiling-log parser.

The reproduction of the paper's Perl/O'Caml back-end: reads the
line-oriented logs produced by :mod:`repro.profiling.logformat` and rebuilds
the per-configuration metric summaries the Pareto analysis needs.  The
parser is deliberately a single streaming pass over the text with no
intermediate object per raw event line, so that multi-hundred-megabyte logs
parse in seconds (see ``benchmarks/test_parser_speed.py`` for the
paper's "< 20 seconds" claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .logformat import (
    COMMENT_PREFIX,
    EVENT_PREFIX,
    LEVEL_PREFIX,
    POOL_PREFIX,
    RESULT_PREFIX,
)
from .metrics import LevelMetrics, MetricSet, ProfileResult


def numbered_lines(lines: Iterable[str]) -> Iterator[tuple[int, str, bool]]:
    """Yield ``(line_number, line, torn)`` per line, the line end removed.

    ``torn`` marks a *torn tail*: the final line when it has no line end,
    the partial record a crashed or still-running writer leaves.  Readers
    skip a malformed torn line with a counter, strict mode included; a
    malformed line that ends in a newline is a format error wherever it
    appears.  One line of lookahead tells the final line from the rest.
    """
    iterator = iter(lines)
    pending = next(iterator, None)
    line_number = 0
    while pending is not None:
        raw_line = pending
        pending = next(iterator, None)
        line_number += 1
        line = raw_line.rstrip("\r\n")
        yield line_number, line, pending is None and len(line) == len(raw_line)


class LogParseError(ValueError):
    """Raised on malformed log lines when strict parsing is requested."""

    def __init__(self, line_number: int, line: str, reason: str) -> None:
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {line!r}")


@dataclass
class ParsedLog:
    """Outcome of parsing one profiling log."""

    results: dict[str, ProfileResult] = field(default_factory=dict)
    event_lines: int = 0
    total_lines: int = 0
    skipped_lines: int = 0
    #: Malformed torn tails tolerated (a final line with no line end: a
    #: crashed or still running writer leaves a truncated last line; like
    #: the result store's torn-tail repair, the parser skips it with a
    #: counter instead of raising — strict mode included).  Always 0 or 1,
    #: and also counted in :attr:`skipped_lines`.
    truncated_tail: int = 0

    def configuration_ids(self) -> list[str]:
        return list(self.results)

    def result_for(self, configuration_id: str) -> ProfileResult:
        return self.results[configuration_id]

    def metric_table(self) -> list[dict]:
        """Flat table (one dict per configuration) for CSV/report export."""
        table = []
        for config_id, result in self.results.items():
            row = {"configuration_id": config_id, "trace": result.trace_name}
            row.update(result.totals.as_dict())
            table.append(row)
        return table


class ProfilingLogParser:
    """Streaming parser for profiling logs.

    Parameters
    ----------
    strict:
        When True malformed lines raise :class:`LogParseError`; when False
        (default, matching a robust Perl-style parser) they are counted in
        ``skipped_lines`` and ignored.
    keep_events:
        When True raw event lines are counted per configuration in
        ``per_pool['__events__']``; the lines themselves are never stored.
    """

    def __init__(self, strict: bool = False, keep_events: bool = False) -> None:
        self.strict = strict
        self.keep_events = keep_events

    # -- entry points ------------------------------------------------------

    def parse_path(self, path: str | Path) -> ParsedLog:
        """Parse a log file from disk (streaming, line by line)."""
        with open(path, "r", encoding="utf-8") as handle:
            return self.parse_lines(handle)

    def parse_string(self, text: str) -> ParsedLog:
        """Parse a log held in memory."""
        return self.parse_lines(text.splitlines(keepends=True))

    def parse_lines(self, lines: Iterable[str]) -> ParsedLog:
        """Parse an iterable of log lines.

        A malformed line that ends in a newline is a real format error
        (raised in strict mode, counted otherwise); a malformed torn tail
        (see :func:`numbered_lines`) is skipped with ``truncated_tail`` set,
        never raised, so a log captured mid-write still parses.
        """
        parsed = ParsedLog()
        event_counts: dict[str, int] = {}
        for line_number, line, torn in numbered_lines(lines):
            parsed.total_lines += 1
            if not line or line.startswith(COMMENT_PREFIX):
                continue
            prefix, _, rest = line.partition("|")
            try:
                if prefix == RESULT_PREFIX:
                    self._parse_result(rest, parsed)
                elif prefix == LEVEL_PREFIX:
                    self._parse_level(rest, parsed)
                elif prefix == POOL_PREFIX:
                    self._parse_pool(rest, parsed)
                elif prefix == EVENT_PREFIX:
                    parsed.event_lines += 1
                    if self.keep_events:
                        config_id = rest.split("|", 1)[0]
                        event_counts[config_id] = event_counts.get(config_id, 0) + 1
                else:
                    raise ValueError(f"unknown record type '{prefix}'")
            except (ValueError, IndexError) as exc:
                if torn:
                    parsed.truncated_tail += 1
                    parsed.skipped_lines += 1
                elif self.strict:
                    raise LogParseError(line_number, line, str(exc)) from exc
                else:
                    parsed.skipped_lines += 1
        if self.keep_events:
            for config_id, count in event_counts.items():
                if config_id in parsed.results:
                    parsed.results[config_id].per_pool["__events__"] = {"count": count}
        return parsed

    # -- record handlers ------------------------------------------------------

    @staticmethod
    def _parse_result(rest: str, parsed: ParsedLog) -> None:
        fields = rest.split("|")
        if len(fields) != 6:
            raise ValueError(f"result record needs 6 fields, got {len(fields)}")
        config_id, trace_name, accesses, footprint, energy, cycles = fields
        result = ProfileResult(configuration_id=config_id, trace_name=trace_name)
        result.totals = MetricSet(
            accesses=int(accesses),
            footprint=int(footprint),
            energy_nj=float(energy),
            cycles=int(cycles),
        )
        parsed.results[config_id] = result

    @staticmethod
    def _parse_level(rest: str, parsed: ParsedLog) -> None:
        fields = rest.split("|")
        if len(fields) != 6:
            raise ValueError(f"level record needs 6 fields, got {len(fields)}")
        config_id, module, reads, writes, footprint, energy = fields
        result = parsed.results.get(config_id)
        if result is None:
            raise ValueError(f"level record for unknown configuration '{config_id}'")
        result.per_level[module] = LevelMetrics(
            module_name=module,
            reads=int(reads),
            writes=int(writes),
            footprint=int(footprint),
            energy_nj=float(energy),
        )

    @staticmethod
    def _parse_pool(rest: str, parsed: ParsedLog) -> None:
        fields = rest.split("|")
        if len(fields) != 5:
            raise ValueError(f"pool record needs 5 fields, got {len(fields)}")
        config_id, pool_name, module, accesses, peak_footprint = fields
        result = parsed.results.get(config_id)
        if result is None:
            raise ValueError(f"pool record for unknown configuration '{config_id}'")
        result.per_pool[pool_name] = {
            "module": module,
            "accesses": int(accesses),
            "peak_footprint": int(peak_footprint),
        }


def parse_log(path: str | Path, strict: bool = False) -> ParsedLog:
    """Convenience wrapper: parse a log file."""
    return ProfilingLogParser(strict=strict).parse_path(path)


def parse_log_text(text: str, strict: bool = False) -> ParsedLog:
    """Convenience wrapper: parse a log held in a string."""
    return ProfilingLogParser(strict=strict).parse_string(text)


def iter_result_metrics(path: str | Path) -> Iterator[tuple[str, MetricSet]]:
    """Stream only the summary metric lines of a log (lowest-memory path)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith(RESULT_PREFIX + "|"):
                continue
            fields = line.rstrip("\n").split("|")
            if len(fields) != 7:
                continue
            _, config_id, _trace, accesses, footprint, energy, cycles = fields
            yield config_id, MetricSet(
                accesses=int(accesses),
                footprint=int(footprint),
                energy_nj=float(energy),
                cycles=int(cycles),
            )
