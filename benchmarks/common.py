"""Shared fixtures and calibration constants for the benchmark harness.

Every benchmark regenerates one table/figure-equivalent of the paper (see
DESIGN.md section 4 and EXPERIMENTS.md).  The constants here are the
workload sizes and the per-case-study CPU-overhead calibration used across
all benchmarks, so that the numbers printed by different benchmarks are
comparable with each other.

Benchmarks run each exploration exactly once (``benchmark.pedantic`` with a
single round): the measured quantity is the end-to-end tool runtime, and the
printed tables are the reproduction artefacts.

The machine-readable results go through :func:`write_bench_json`: full runs
write the tracked ``BENCH_<name>.json`` ledger in the repository root,
quick runs (every plain pytest run) a git-ignored ``BENCH_<name>.quick.json``
beside it, so the test suite never rewrites the ledger.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from functools import lru_cache
from pathlib import Path

from repro.core.exploration import ExplorationEngine, ExplorationSettings
from repro.core.space import compact_parameter_space, default_parameter_space
from repro.memhier.energy import EnergyModel
from repro.memhier.hierarchy import embedded_two_level
from repro.workloads.easyport import EasyportWorkload
from repro.workloads.vtc import VTCWorkload

#: Where the BENCH ledger files live.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Random seed shared by every benchmark (the paper's publication year).
SEED = 2006

#: Easyport workload size used by the benchmarks.
EASYPORT_PACKETS = 1200

#: VTC texture size used by the benchmarks.
VTC_IMAGE_SIZE = 176

#: Number of configurations sampled from the full 12 960-point space for the
#: headline case-study benchmarks (exhaustive exploration of the full space
#: takes tens of minutes in pure Python; the sample preserves the ranges and
#: the Pareto structure).
FULL_SPACE_SAMPLE = 300

#: Cycles of application CPU work between DM operations, per case study.
#: Easyport (packet forwarding) does comparatively little work per packet;
#: the VTC decoder performs heavy wavelet arithmetic per decoded object.
EASYPORT_CPU_CYCLES_PER_OP = 3000
VTC_CPU_CYCLES_PER_OP = 20_000


@lru_cache(maxsize=None)
def easyport_trace(packets: int = EASYPORT_PACKETS):
    """The canonical Easyport benchmark trace (cached across benchmarks)."""
    return EasyportWorkload(packets=packets).generate(seed=SEED)


@lru_cache(maxsize=None)
def vtc_trace(image_size: int = VTC_IMAGE_SIZE):
    """The canonical VTC benchmark trace (cached across benchmarks)."""
    return VTCWorkload(image_width=image_size, image_height=image_size).generate(seed=SEED)


def easyport_engine(sample: int | None = FULL_SPACE_SAMPLE, compact: bool = False):
    """Exploration engine for the Easyport case study."""
    hierarchy = embedded_two_level()
    space = compact_parameter_space() if compact else default_parameter_space()
    settings = ExplorationSettings(sample=None if compact else sample, sample_seed=SEED)
    energy_model = EnergyModel(hierarchy, cpu_overhead_cycles=EASYPORT_CPU_CYCLES_PER_OP)
    return ExplorationEngine(
        space,
        easyport_trace(),
        hierarchy=hierarchy,
        settings=settings,
        energy_model=energy_model,
    )


def vtc_engine(sample: int | None = FULL_SPACE_SAMPLE, compact: bool = False):
    """Exploration engine for the VTC case study."""
    hierarchy = embedded_two_level()
    space = compact_parameter_space(max_dedicated_pools=3) if compact else default_parameter_space(3)
    settings = ExplorationSettings(sample=None if compact else sample, sample_seed=SEED)
    energy_model = EnergyModel(hierarchy, cpu_overhead_cycles=VTC_CPU_CYCLES_PER_OP)
    return ExplorationEngine(
        space,
        vtc_trace(),
        hierarchy=hierarchy,
        settings=settings,
        energy_model=energy_model,
    )


def print_table(title: str, rows: list[tuple], header: tuple) -> None:
    """Print a small aligned table with a title (benchmark report output)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[col])), max((len(str(row[col])) for row in rows), default=0))
        for col in range(len(header))
    ]
    print("  ".join(str(header[col]).ljust(widths[col]) for col in range(len(header))))
    for row in rows:
        print("  ".join(str(row[col]).ljust(widths[col]) for col in range(len(header))))


def bench_environment() -> dict:
    """The machine and code a BENCH document was measured on."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        git_sha = completed.stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        git_sha = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
    }


def write_bench_json(name: str, mode: str, document: dict) -> Path:
    """Write one benchmark's results document with its environment.

    ``mode`` is ``"quick"`` for a plain test run, which lands in the
    git-ignored ``BENCH_<name>.quick.json``; any other mode (a full or
    dedicated benchmark run) writes the tracked ``BENCH_<name>.json``.
    """
    suffix = ".quick.json" if mode == "quick" else ".json"
    path = REPO_ROOT / f"BENCH_{name}{suffix}"
    document = {**document, "mode": mode, "environment": bench_environment()}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    return path
