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


def runs(tmp_path, side, workload, values):
    """One perfbench result file per ``wall_s`` value."""
    return [
        write(tmp_path / f"{side}{index}.json", result(workload, wall_s=value))
        for index, value in enumerate(values)
    ]


def table(out):
    """Printed rows keyed by their first word."""
    return {line.split()[0]: line.split() for line in out.splitlines()}


def test_one_pair_reads_the_same_through_old_and_new(tmp_path, capsys):
    old = write(tmp_path / "old.json", result("sweep", wall_s=20.0, setup_s=0.05))
    new = write(tmp_path / "new.json", result("sweep", wall_s=10.0, setup_s=0.05))
    assert main([old, new]) == 0
    positional = capsys.readouterr().out
    assert main(["--old", old, "--new", new]) == 0
    assert capsys.readouterr().out == positional


def test_several_runs_per_side_compare_medians(tmp_path, capsys):
    # One slow outlier per side moves neither median.
    old = runs(tmp_path, "old", "sweep", [20.0, 21.0, 60.0, 20.5, 19.5])
    new = runs(tmp_path, "new", "sweep", [10.0, 10.5, 9.5, 40.0, 10.2])
    assert main(["--old", *old, "--new", *new]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "workload sweep: failed 0,0,0,0,0 -> 0,0,0,0,0"
    lines = table(out)
    assert lines["wall_s"][1:] == ["[s]", "20.5", "10.2", "0.497561", "better"]


def test_noisy_parent_runs_leave_a_small_move_unresolved(tmp_path, capsys):
    # Parent IQR 10..20 around a median of 15 (spread 0.67 > bound 0.25):
    # a 10% move cannot be told from noise.
    old = runs(tmp_path, "old", "search", [5.0, 10.0, 15.0, 20.0, 25.0])
    new = runs(tmp_path, "new", "search", [16.5, 16.5, 16.5])
    assert main(["--old", *old, "--new", *new]) == 0
    lines = table(capsys.readouterr().out)
    assert lines["wall_s"][-1] == "unresolved"
    # A move past the bound is still flagged, however noisy the parent.
    new = runs(tmp_path, "new", "search", [40.0, 40.0])
    assert main(["--old", *old, "--new", *new]) == 1
    lines = table(capsys.readouterr().out)
    assert lines["wall_s"][-1] == "worse"


def test_quiet_parent_runs_resolve_a_small_move(tmp_path, capsys):
    old = runs(tmp_path, "old", "search", [15.0, 15.1, 14.9, 15.0])
    new = runs(tmp_path, "new", "search", [16.5, 16.4, 16.6])
    assert main(["--old", *old, "--new", *new]) == 0
    lines = table(capsys.readouterr().out)
    assert lines["wall_s"][-1] == "1.1"  # ratio, no flag


def test_mixed_workloads_several_ledgers_and_bad_arguments_are_errors(
    tmp_path, capsys
):
    old = runs(tmp_path, "old", "sweep", [1.0, 1.1])
    new = runs(tmp_path, "new", "resume", [1.0])
    assert main(["--old", *old, "--new", *new]) == 2
    ledgers = [
        write(tmp_path / f"BENCH_{index}.json", {"batched": {"batched_s": 0.5}})
        for index in range(3)
    ]
    assert main(["--old", *ledgers[:2], "--new", ledgers[2]]) == 2
    err = capsys.readouterr().err
    assert "workloads differ: sweep vs resume" in err
    assert err.count("error:") == 2 and "Traceback" not in err
    for argv in ([old[0]], [old[0], old[1], new[0]], ["--old", old[0]]):
        try:
            main(argv)
        except SystemExit as exit_info:
            assert exit_info.code == 2
        else:
            raise AssertionError(f"{argv} was accepted")
