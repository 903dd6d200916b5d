"""Compare two benchmark results metric by metric.

Usage (from the repository root)::

    python benchmarks/bench_diff.py OLD.json NEW.json
    make bench-diff OLD=OLD.json NEW=NEW.json

Each file is either a ``perfbench/run.py`` result
(``perfbench/out/results/*.json``) or a ``BENCH_<name>.json`` ledger; both
files must be of the same kind.

* For a perfbench result, every end-to-end metric that ``BENCHMARK.json``
  declares is printed with the old value, the new value and their ratio.
  A relative move past the metric's ``bound`` is flagged ``worse`` or
  ``better`` according to its ``better`` direction.
* A BENCH ledger declares no directions, so every numeric leaf is printed
  under its dotted key and a relative move past 0.25 (the bound
  ``BENCHMARK.json`` gives every end-to-end metric) is flagged ``moved``;
  a changed flag such as ``identical_metrics`` is flagged ``changed``.

``BENCHMARK.json`` is only read.  The exit code is 1 when an end-to-end
metric got worse past its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
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


def diff_results(old: dict, new: dict, metrics: list[dict]) -> list[tuple]:
    """Rows ``(name, old, new, ratio, flag)`` for two perfbench results."""
    rows = []
    for metric in metrics:
        name = metric["name"]
        before = old["figures"].get(name)
        after = new["figures"].get(name)
        if before is None or after is None:
            continue
        move = relative_move(before, after)
        flag = ""
        if move is not None and abs(move) > metric["bound"]:
            improved = (move < 0) == (metric["better"] == "lower")
            flag = "better" if improved else "worse"
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
    parser.add_argument("old", type=Path, help="result of the parent commit")
    parser.add_argument("new", type=Path, help="result of the change")
    args = parser.parse_args(argv)
    try:
        old, new = (
            json.loads(path.read_text(encoding="utf-8")) for path in (args.old, args.new)
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot read result: {error}", file=sys.stderr)
        return 2
    if ("figures" in old) != ("figures" in new):
        print("error: one file is a perfbench result, the other a BENCH ledger",
              file=sys.stderr)
        return 2
    if "figures" in old:
        if old.get("workload") != new.get("workload"):
            print(f"error: workloads differ: {old.get('workload')} vs {new.get('workload')}",
                  file=sys.stderr)
            return 2
        rows = diff_results(old, new, end_to_end_metrics())
        print(f"workload {old['workload']}: failed {old.get('failed')} -> {new.get('failed')}")
    else:
        rows = diff_ledgers(old, new)
    print(render(rows))
    return 1 if any(flag == "worse" for *_row, flag in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
