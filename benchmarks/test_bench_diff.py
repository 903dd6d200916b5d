"""``bench_diff``: metric-by-metric comparison of two benchmark results."""

from __future__ import annotations

import json

from .bench_diff import main


def write(path, document):
    path.write_text(json.dumps(document))
    return str(path)


def result(workload, **figures):
    return {"workload": workload, "failed": 0, "figures": figures, "metrics": {}}


def test_perfbench_results_flag_moves_past_the_bound(tmp_path, capsys):
    old = write(tmp_path / "old.json", result(
        "sweep", wall_s=20.0, setup_s=0.050, configs_per_s=300.0, peak_rss_mb=100.0,
    ))
    new = write(tmp_path / "new.json", result(
        "sweep", wall_s=10.0, setup_s=0.051, configs_per_s=150.0, peak_rss_mb=110.0,
    ))
    assert main([old, new]) == 1  # configs_per_s halved: worse past 0.25
    lines = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    assert lines["wall_s"][1:] == ["[s]", "20", "10", "0.5", "better"]
    assert lines["configs_per_s"][-1] == "worse"
    assert lines["setup_s"][-1] == "1.02"  # within the bound: no flag
    assert lines["peak_rss_mb"][-1] == "1.1"


def test_no_worse_move_exits_zero(tmp_path, capsys):
    old = write(tmp_path / "old.json", result("resume", wall_s=1.36, configs_per_s=4700.0))
    new = write(tmp_path / "new.json", result("resume", wall_s=1.29, configs_per_s=5000.0))
    assert main([old, new]) == 0
    assert "worse" not in capsys.readouterr().out


def test_bench_ledgers_compare_every_leaf(tmp_path, capsys):
    old = write(tmp_path / "BENCH_old.json", {
        "mode": "quick",
        "batched": {"batched_s": 0.5, "identical_metrics": True, "points": 128},
    })
    new = write(tmp_path / "BENCH_new.json", {
        "mode": "quick",
        "batched": {"batched_s": 0.2, "identical_metrics": False, "points": 128},
    })
    assert main([old, new]) == 0  # ledgers declare no direction
    lines = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    assert lines["batched.batched_s"][-1] == "moved"
    assert lines["batched.identical_metrics"][-1] == "changed"
    assert lines["batched.points"][-1] == "1"
    assert "mode" not in lines


def test_mixed_kinds_and_unreadable_files_are_errors(tmp_path, capsys):
    ledger = write(tmp_path / "BENCH.json", {"batched": {"batched_s": 0.5}})
    run = write(tmp_path / "run.json", result("sweep", wall_s=1.0))
    assert main([ledger, run]) == 2
    assert main([run, str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err
