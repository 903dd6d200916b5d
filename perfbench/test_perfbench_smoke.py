"""Smoke test of the benchmark at a tiny trace size.

Each workload, measured untraced and then traced, must pass its output
checks and emit every metric ``BENCHMARK.json`` declares, with its unit.
Run with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import flows
from perfbench.tracing import Layer, Tracer

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: A 16 x 16 texture (136 events) and a 48-evaluation budget.
TINY = flows.Scale(image_size=16, budget=48)


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def test_declared_workloads_are_the_benchmarks():
    assert [workload["name"] for workload in DECLARED["workloads"]] == list(
        flows.WORKLOADS
    )
    assert _declared("end_to_end") == dict(flows.END_TO_END)
    assert _declared("per_layer") == {
        name: unit for name, unit, _moves in flows.layer_metrics()
    }


@pytest.mark.parametrize("workload", flows.WORKLOADS)
def test_workload_emits_every_metric_and_passes_checks(workload, tmp_path):
    result = flows.run_benchmark(workload, 3, 0, True, tmp_path, TINY)
    assert result.correct, f"{result.failed} of {result.attempted} runs failed"
    assert {name: unit for name, (_value, unit) in result.metrics.items()} == (
        _declared("per_layer")
    )
    for name in _declared("end_to_end"):
        assert result.figures[name] > 0, name
    if workload == "search":
        for strategy in flows.STRATEGIES:
            assert 0 < result.figures[f"hv_fraction.{strategy}"] <= 1
    if workload == "resume":
        assert result.metrics["store.hit_frac"][0] == 1.0
        assert result.metrics["batch.run_configuration.calls"][0] == 0


class _Nested:
    def outer(self):
        time.sleep(0.02)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.01)


def test_tracer_splits_self_time_and_restores_the_callables():
    module = __name__
    layers = (
        Layer("outer", f"{module}:_Nested.outer", "", exclude="inner"),
        Layer("inner", f"{module}:_Nested.inner", ""),
        Layer("stray", f"{module}:_Nested.inner", "", parent="nowhere"),
    )
    original = _Nested.outer
    with Tracer().installed(layers) as tracer:
        _Nested().outer()
    assert _Nested.outer is original
    outer, inner = tracer.get("outer"), tracer.get("inner")
    assert (outer.calls, inner.calls, tracer.get("stray").calls) == (1, 2, 0)
    assert inner.busy >= 0.02
    assert outer.own == pytest.approx(outer.busy - inner.busy)
    assert tracer.net["outer"] == pytest.approx(outer.own)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
