"""Regression guard: the benchmark suite must stay collectable.

The seed shipped ``benchmarks/`` without an ``__init__.py`` while its
modules used ``from .common import ...``; pytest then died at collection
time with "attempted relative import with no known parent package",
taking the whole tier-1 run down with it.  These tests import every
benchmark module the same way pytest does (as ``benchmarks.<module>``),
so a future packaging regression fails here with a readable message
instead of as a collection error.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

MODULE_NAMES = sorted(
    info.name for info in pkgutil.iter_modules([str(BENCHMARKS_DIR)])
)


def test_benchmarks_is_a_package():
    assert (BENCHMARKS_DIR / "__init__.py").exists(), (
        "benchmarks/__init__.py is missing: pytest will fail to collect the "
        "benchmark modules because they use relative imports"
    )


def test_benchmark_modules_discovered():
    assert "common" in MODULE_NAMES
    assert any(name.startswith("test_") for name in MODULE_NAMES)


@pytest.mark.parametrize("module_name", MODULE_NAMES)
def test_benchmark_module_imports(module_name):
    module = importlib.import_module(f"benchmarks.{module_name}")
    assert module.__name__ == f"benchmarks.{module_name}"


@pytest.mark.parametrize(
    "mode, filename",
    [("quick", "BENCH_demo.quick.json"), ("full", "BENCH_demo.json")],
)
def test_only_full_runs_write_the_tracked_ledger(
    mode, filename, tmp_path, monkeypatch
):
    import json

    common = importlib.import_module("benchmarks.common")
    monkeypatch.setattr(common, "REPO_ROOT", tmp_path)
    path = common.write_bench_json("demo", mode, {"value": 1})
    assert path == tmp_path / filename
    assert [entry.name for entry in tmp_path.iterdir()] == [filename]
    document = json.loads(path.read_text())
    assert document["mode"] == mode and document["value"] == 1
    assert set(document["environment"]) == {
        "git_sha",
        "git_dirty",
        "python",
        "numpy",
        "cpu_count",
    }


@pytest.mark.parametrize(
    "change, dirty",
    [("none", False), ("untracked", False), ("modified", True), ("no-git", None)],
)
def test_environment_marks_a_dirty_tree(change, dirty, tmp_path, monkeypatch):
    """A ledger measured on uncommitted changes says so; untracked files
    (build and test leftovers) do not count."""
    import subprocess

    common = importlib.import_module("benchmarks.common")
    monkeypatch.setattr(common, "REPO_ROOT", tmp_path)
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("committed\n")
    if change != "no-git":
        git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
        for args in (["init", "-q"], ["add", "tracked.txt"], ["commit", "-q", "-m", "x"]):
            subprocess.run(git + args, cwd=tmp_path, check=True, capture_output=True)
    if change == "untracked":
        (tmp_path / "BENCH_demo.quick.json").write_text("{}\n")
    elif change == "modified":
        tracked.write_text("changed\n")
    environment = common.bench_environment()
    assert environment["git_dirty"] is dirty
    assert (environment["git_sha"] is None) == (change == "no-git")
