"""Unit tests for the profiling-log writer and the fast parser."""

import pytest

from repro.profiling.logformat import (
    ProfilingLogWriter,
    format_result_line,
    log_to_string,
    write_log,
)
from repro.profiling.metrics import LevelMetrics, MetricSet, ProfileResult
from repro.profiling.parser import (
    LogParseError,
    ProfilingLogParser,
    iter_result_metrics,
    numbered_lines,
    parse_log,
    parse_log_text,
)
from repro.profiling.tracer import AllocationTrace
from repro.profiling.events import alloc, free


def make_result(config_id="cfg1", accesses=1000, footprint=2048, energy=12.5, cycles=9000):
    result = ProfileResult(configuration_id=config_id, trace_name="trace")
    result.totals = MetricSet(
        accesses=accesses, footprint=footprint, energy_nj=energy, cycles=cycles
    )
    result.per_level["l1_scratchpad"] = LevelMetrics(
        "l1_scratchpad", reads=100, writes=50, footprint=512, energy_nj=1.5
    )
    result.per_level["main_memory"] = LevelMetrics(
        "main_memory", reads=400, writes=450, footprint=1536, energy_nj=11.0
    )
    result.per_pool["hot"] = {"module": "l1_scratchpad", "accesses": 150, "peak_footprint": 512}
    result.per_pool["general"] = {"module": "main_memory", "accesses": 850, "peak_footprint": 1536}
    return result


def make_trace(events=10):
    trace = AllocationTrace(name="trace")
    for i in range(events):
        trace.append(alloc(i, 64, timestamp=i))
    for i in range(events):
        trace.append(free(i, timestamp=events + i))
    return trace


class TestWriter:
    def test_result_line_format(self):
        line = format_result_line(make_result())
        fields = line.split("|")
        assert fields[0] == "R"
        assert fields[1] == "cfg1"
        assert int(fields[3]) == 1000

    def test_log_to_string_contains_all_record_types(self):
        text = log_to_string([make_result()], trace=make_trace(), include_events=True)
        prefixes = {line.split("|")[0] for line in text.splitlines() if "|" in line}
        assert prefixes == {"R", "L", "P", "E"}

    def test_event_lines_optional(self):
        text = log_to_string([make_result()], trace=make_trace(), include_events=False)
        assert not any(line.startswith("E|") for line in text.splitlines())

    def test_write_log_to_file(self, tmp_path):
        path = tmp_path / "profile.log"
        lines = write_log(path, [make_result(), make_result("cfg2")])
        assert path.exists()
        assert lines == len(path.read_text().splitlines())

    def test_writer_counts_lines(self, tmp_path):
        path = tmp_path / "profile.log"
        writer = ProfilingLogWriter.open(path)
        writer.comment("hello")
        writer.write_result(make_result())
        writer.close()
        assert writer.lines_written >= 5


class TestParser:
    def test_round_trip_totals(self):
        original = make_result()
        parsed = parse_log_text(log_to_string([original]))
        restored = parsed.result_for("cfg1")
        assert restored.totals.accesses == original.totals.accesses
        assert restored.totals.footprint == original.totals.footprint
        assert restored.totals.energy_nj == pytest.approx(original.totals.energy_nj)
        assert restored.totals.cycles == original.totals.cycles

    def test_round_trip_levels_and_pools(self):
        parsed = parse_log_text(log_to_string([make_result()]))
        restored = parsed.result_for("cfg1")
        assert restored.per_level["main_memory"].reads == 400
        assert restored.per_pool["hot"]["module"] == "l1_scratchpad"

    def test_multiple_configurations(self):
        results = [make_result(f"cfg{i}", accesses=i * 100) for i in range(1, 6)]
        parsed = parse_log_text(log_to_string(results))
        assert parsed.configuration_ids() == [f"cfg{i}" for i in range(1, 6)]
        table = parsed.metric_table()
        assert len(table) == 5

    def test_event_lines_counted_not_stored(self):
        text = log_to_string([make_result()], trace=make_trace(100), include_events=True)
        parsed = parse_log_text(text)
        assert parsed.event_lines == 200

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + log_to_string([make_result()])
        parsed = parse_log_text(text)
        assert len(parsed.results) == 1

    def test_malformed_lines_skipped_by_default(self):
        text = log_to_string([make_result()]) + "R|broken\nX|who|knows\n"
        parsed = parse_log_text(text)
        assert parsed.skipped_lines == 2
        assert len(parsed.results) == 1

    def test_strict_mode_raises(self):
        # The malformed line must not be the last one: a torn final line is
        # tolerated (see TestTornTail), an interior one is a real error.
        text = "R|only|three|fields\n# trailing comment\n"
        with pytest.raises(LogParseError):
            parse_log_text(text, strict=True)

    def test_level_for_unknown_config_rejected_in_strict_mode(self):
        text = "L|ghost|main_memory|1|2|3|4.0\n# trailing comment\n"
        with pytest.raises(LogParseError):
            parse_log_text(text, strict=True)

    def test_parse_path_and_iter_metrics(self, tmp_path):
        path = tmp_path / "profile.log"
        results = [make_result(f"cfg{i}", accesses=i) for i in range(3)]
        write_log(path, results)
        parsed = parse_log(path)
        assert len(parsed.results) == 3
        streamed = dict(iter_result_metrics(path))
        assert streamed["cfg2"].accesses == 2

    def test_keep_events_attaches_counts(self):
        text = log_to_string([make_result()], trace=make_trace(5), include_events=True)
        parsed = ProfilingLogParser(keep_events=True).parse_string(text)
        assert parsed.result_for("cfg1").per_pool["__events__"]["count"] == 10


class TestTornTail:
    """Round-trip gaps surfaced by streaming ingestion: a log captured while
    a writer is mid-line (or after a crash) must still parse."""

    def truncated_log(self):
        # The last line is a P record (event echo off); chop it mid-field,
        # as a torn write would.  (A torn E line never errors at all: the
        # parser counts event lines without validating their fields.)
        text = log_to_string([make_result()])
        return text.rstrip("\n")[:-4]

    def test_truncated_final_line_skipped_with_counter(self):
        parsed = parse_log_text(self.truncated_log())
        assert parsed.truncated_tail == 1
        assert parsed.skipped_lines == 1
        assert len(parsed.results) == 1

    def test_truncated_final_line_tolerated_in_strict_mode(self):
        parsed = parse_log_text(self.truncated_log(), strict=True)
        assert parsed.truncated_tail == 1

    def test_truncated_result_line_tolerated(self):
        text = log_to_string([make_result()]) + "R|cfg2|trace|12"
        parsed = parse_log_text(text, strict=True)
        assert parsed.truncated_tail == 1
        assert list(parsed.results) == ["cfg1"]

    def test_newline_terminated_malformed_final_line_is_an_error(self):
        # Only a final line with no newline is a torn tail; a complete
        # malformed line is a format error even when it comes last.
        text = log_to_string([make_result()]) + "R|cfg2|trace|12\n"
        with pytest.raises(LogParseError):
            parse_log_text(text, strict=True)
        parsed = parse_log_text(text)
        assert parsed.truncated_tail == 0
        assert parsed.skipped_lines == 1

    def test_parse_path_applies_the_same_rule(self, tmp_path):
        path = tmp_path / "profile.log"
        path.write_text(log_to_string([make_result()]) + "R|cfg2|trace|12")
        assert parse_log(path, strict=True).truncated_tail == 1
        path.write_text(log_to_string([make_result()]) + "R|cfg2|trace|12\n")
        with pytest.raises(LogParseError):
            parse_log(path, strict=True)

    def test_numbered_lines_marks_only_an_unterminated_final_line(self):
        assert list(numbered_lines(["a\n", "b\r\n", "c"])) == [
            (1, "a", False),
            (2, "b", False),
            (3, "c", True),
        ]
        assert list(numbered_lines(["a", "b\n"])) == [(1, "a", False), (2, "b", False)]
        assert list(numbered_lines([])) == []

    def test_intact_log_reports_no_tail(self):
        text = log_to_string([make_result()], trace=make_trace(5), include_events=True)
        parsed = parse_log_text(text, strict=True)
        assert parsed.truncated_tail == 0
        assert parsed.skipped_lines == 0


class TestCommentInterleaving:
    """Comments interleaved *between* records of a log (progress markers a
    long-running writer emits) must be transparent to the parser."""

    def test_comments_between_every_record(self):
        text = log_to_string([make_result()], trace=make_trace(5), include_events=True)
        interleaved = "".join(f"# mark\n{line}\n" for line in text.splitlines())
        parsed = parse_log_text(interleaved, strict=True)
        assert len(parsed.results) == 1
        assert parsed.event_lines == 10
        assert parsed.skipped_lines == 0

    def test_comment_as_final_line_is_not_a_torn_tail(self):
        text = log_to_string([make_result()]) + "# writer still running\n"
        parsed = parse_log_text(text, strict=True)
        assert parsed.truncated_tail == 0
