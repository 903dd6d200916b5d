"""Compare two benchmark results metric by metric.

Usage (from the repository root)::

    python benchmarks/bench_diff.py OLD.json NEW.json
    python benchmarks/bench_diff.py --old OLD1.json OLD2.json ... --new NEW1.json ...
    make bench-diff OLD="OLD1.json OLD2.json" NEW="NEW1.json NEW2.json"

Each file is either a ``perfbench/run.py`` result
(``perfbench/out/results/*.json``) or a ``BENCH_<name>.json`` ledger; all
files must be of the same kind.

* For perfbench results, every end-to-end metric that ``BENCHMARK.json``
  declares is printed with the old value, the new value and their ratio.
  A relative move past the metric's ``bound`` is flagged ``worse`` or
  ``better`` according to its ``better`` direction.  Each side may hold
  several runs of one workload; the values compared are then the medians,
  and a metric whose old runs spread (interquartile range over median)
  wider than its bound is flagged ``unresolved`` instead of passing as
  unchanged: the parent's noise hides any move that small.
* A BENCH ledger declares no directions, so every numeric leaf is printed
  under its dotted key and a relative move past 0.25 (the bound
  ``BENCHMARK.json`` gives every end-to-end metric) is flagged ``moved``;
  a changed flag such as ``identical_metrics`` is flagged ``changed``.
  Ledgers are compared one file against one file.

``BENCHMARK.json`` is only read.  The exit code is 1 when an end-to-end
metric got worse past its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: The benchmark declaration holding the end-to-end metrics and bounds.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Relative move that flags a BENCH ledger leaf (BENCHMARK.json's bound).
LEDGER_BAND = 0.25


def end_to_end_metrics() -> list[dict]:
    """The ``end_to_end`` entries (name, unit, better, bound) of BENCHMARK.json."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]


def flatten(document, prefix: str = "") -> dict[str, object]:
    """Dotted key -> leaf value of a nested JSON document."""
    if isinstance(document, dict):
        leaves: dict[str, object] = {}
        for key, value in document.items():
            leaves.update(flatten(value, f"{prefix}{key}."))
        return leaves
    return {prefix[:-1]: document}


def relative_move(old: float, new: float) -> float | None:
    """``(new - old) / |old|``; ``None`` when ``old`` is zero."""
    if old == 0:
        return None if new != 0 else 0.0
    return (new - old) / abs(old)


def median_and_spread(values: list[float]) -> tuple[float, float]:
    """Median of ``values`` and their interquartile range relative to it
    (0 for a single value)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    if median == 0:
        return median, 0.0 if high == low else float("inf")
    return median, (high - low) / abs(median)


def diff_results(old: list[dict], new: list[dict], metrics: list[dict]) -> list[tuple]:
    """Rows ``(name, old, new, ratio, flag)`` comparing the median figures of
    two sets of perfbench results (one result per side in the simplest case)."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        befores = [result["figures"].get(name) for result in old]
        afters = [result["figures"].get(name) for result in new]
        if None in befores or None in afters:
            continue
        before, spread = median_and_spread(befores)
        after, _ = median_and_spread(afters)
        move = relative_move(before, after)
        flag = ""
        if move is not None and abs(move) > metric["bound"]:
            improved = (move < 0) == (metric["better"] == "lower")
            flag = "better" if improved else "worse"
        elif spread > metric["bound"]:
            flag = "unresolved"
        rows.append((f"{name} [{metric['unit']}]", before, after, _ratio(before, after), flag))
    return rows


def diff_ledgers(old: dict, new: dict) -> list[tuple]:
    """Rows ``(key, old, new, ratio, flag)`` for two BENCH ledgers."""
    before_leaves = flatten(old)
    after_leaves = flatten(new)
    rows = []
    for key, before in before_leaves.items():
        if key not in after_leaves:
            continue
        after = after_leaves[key]
        if isinstance(before, bool) or isinstance(after, bool):
            rows.append((key, before, after, None, "changed" if before != after else ""))
        elif isinstance(before, (int, float)) and isinstance(after, (int, float)):
            move = relative_move(before, after)
            flag = "moved" if move is None or abs(move) > LEDGER_BAND else ""
            rows.append((key, before, after, _ratio(before, after), flag))
    return rows


def _ratio(before: float, after: float) -> float | None:
    return None if before == 0 else after / before


def _shown(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render(rows: list[tuple]) -> str:
    table = [("metric", "old", "new", "new/old", "flag")]
    table += [
        (name, _shown(before), _shown(after), _shown(ratio), flag)
        for name, before, after, ratio, flag in rows
    ]
    widths = [max(len(row[column]) for row in table) for column in range(5)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", nargs="*", type=Path,
        help="OLD NEW: one result of the parent commit, one of the change",
    )
    parser.add_argument("--old", nargs="+", type=Path, default=[],
                        help="results of the parent commit")
    parser.add_argument("--new", nargs="+", type=Path, default=[],
                        help="results of the change")
    args = parser.parse_args(argv)
    if len(args.files) == 2 and not (args.old or args.new):
        args.old, args.new = args.files[:1], args.files[1:]
    elif args.files or not (args.old and args.new):
        parser.error("give OLD NEW, or --old FILE... --new FILE...")
    try:
        old, new = (
            [json.loads(path.read_text(encoding="utf-8")) for path in paths]
            for paths in (args.old, args.new)
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot read result: {error}", file=sys.stderr)
        return 2
    kinds = {"figures" in document for document in old + new}
    if len(kinds) > 1:
        print("error: one file is a perfbench result, the other a BENCH ledger",
              file=sys.stderr)
        return 2
    if kinds == {True}:
        workloads = list(dict.fromkeys(doc.get("workload") for doc in old + new))
        if len(workloads) > 1:
            print(f"error: workloads differ: {' vs '.join(map(str, workloads))}",
                  file=sys.stderr)
            return 2
        rows = diff_results(old, new, end_to_end_metrics())
        failed = [
            ",".join(str(document.get("failed")) for document in side)
            for side in (old, new)
        ]
        print(f"workload {workloads[0]}: failed {failed[0]} -> {failed[1]}")
    elif len(old) > 1 or len(new) > 1:
        print("error: BENCH ledgers are compared one file against one file",
              file=sys.stderr)
        return 2
    else:
        rows = diff_ledgers(old[0], new[0])
    print(render(rows))
    return 1 if any(flag == "worse" for *_row, flag in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
