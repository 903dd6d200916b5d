"""Run one experiment spec (typically one shard of a sweep) and write its artefact.

Usage (the benchmark starts it as a child process during untimed
preparation)::

    python3 perfbench/shard.py SPEC.json ARTEFACT.json
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec_path, artefact = sys.argv[1:]
    sys.path[:0] = [str(ROOT / "src")]
    from repro.api import Experiment, ExperimentSpec

    result = Experiment(ExperimentSpec.from_json(Path(spec_path))).run()
    result.database.to_json(artefact)
    return 0


if __name__ == "__main__":
    sys.exit(main())
