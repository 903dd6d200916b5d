"""Benchmark of the exploration flow: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

``--workload`` is ``sweep``, ``search`` or ``resume`` (see
``perfbench/flows.py``).  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it measures an
untraced and then a traced pass and reports the per-layer metrics and the
tracing overhead.  The program is imported from ``src/`` of the checkout.

Every metric is printed by name with its unit, with the environment it was
measured on; the full figures also go to
``perfbench/out/results/<workload>-seed<seed>-trace<0|1>-<time>.json``.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 1, "failed": 0,
     "metrics": {"wall_s": {"value": 23.41, "unit": "s"}, ...}}

The exit code is 0 when a result was printed, 1 when every iteration
failed and 2 when the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "search", "resume"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A termination request unwinds like an error, so every child process
    # is killed and waited for and the scratch work is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program (src/repro) is not in {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import flows

    environment = flows.environment(ROOT)
    work = OUT / f"work-{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        result = flows.run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result.attempted} runs, {result.failed} failed")
    print("environment: " + json.dumps(environment, sort_keys=True))
    summary = (
        *flows.END_TO_END,
        ("error_rate", "ratio"),
        *((f"search_s.{name}", "s") for name in flows.STRATEGIES),
        *((f"hv_fraction.{name}", "ratio") for name in flows.STRATEGIES),
    )
    for name, unit in summary:
        value = result.figures.get(name)
        shown = "n/a on this workload" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:<24} {shown}")
    if args.trace and result.metrics:
        moves = {name: target for name, _unit, target in flows.layer_metrics()}
        for name, (value, unit) in result.metrics.items():
            print(f"  {name:<36} {value:>12.6g} {unit:<6} -> {moves[name]}")
        figures = result.figures
        print(
            f"  busy time of {' + '.join(flows.ACCOUNTED_LAYERS)}: "
            f"{figures['trace.accounted_s']:.4g} s of the traced wall_s "
            f"{figures['trace.wall_s']:.4g} s (untraced wall_s "
            f"{figures['wall_s']:.4g} s)"
        )
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": environment,
                "attempted": result.attempted,
                "failed": result.failed,
                "figures": result.figures,
                "metrics": {name: value for name, (value, _unit) in result.metrics.items()},
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    if not result.metrics:
        print("error: no iteration succeeded", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
