"""Unit tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.api import ExperimentSpec, registry
from repro.cli import build_parser, main
from repro.core.results import ResultDatabase


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.workload == "easyport"
        assert args.space == "compact"

    def test_registries_complete(self):
        assert {"easyport", "vtc", "uniform", "bursty"} <= set(registry.workloads)
        assert {"default", "compact", "smoke", "easyport", "vtc"} <= set(
            registry.spaces
        )
        assert {"2level", "3level"} <= set(registry.hierarchies)
        assert {"exhaustive", "random", "hillclimb", "evolutionary"} <= set(
            registry.strategies
        )


class TestCommands:
    def test_trace_command(self, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        code = main(["trace", "--workload", "uniform", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "allocations" in captured

    def test_explore_pareto_report_pipeline(self, tmp_path, capsys):
        database_path = tmp_path / "results.json"
        code = main(
            [
                "explore",
                "--workload",
                "uniform",
                "--space",
                "smoke",
                "--seed",
                "1",
                "--out",
                str(database_path),
            ]
        )
        assert code == 0
        assert database_path.exists()
        payload = json.loads(database_path.read_text())
        assert payload["records"]

        code = main(["pareto", str(database_path)])
        assert code == 0
        assert "Pareto-optimal" in capsys.readouterr().out

        export_dir = tmp_path / "artifacts"
        code = main(["report", str(database_path), "--export-dir", str(export_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "exported artefacts" in output
        assert (export_dir / "exploration_all.csv").exists()

    def test_explore_with_sampling(self, tmp_path):
        database_path = tmp_path / "sampled.json"
        code = main(
            [
                "explore",
                "--workload",
                "uniform",
                "--space",
                "compact",
                "--sample",
                "4",
                "--out",
                str(database_path),
            ]
        )
        assert code == 0
        database = ResultDatabase.from_json(database_path)
        assert len(database) == 4


class TestSpecCommand:
    def test_emits_a_runnable_commented_document(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        assert main(["spec", "--out", str(path)]) == 0
        document = json.loads(path.read_text())
        assert any(key.startswith("//") for key in document)
        assert ExperimentSpec.from_dict(document) == ExperimentSpec()

    def test_prints_to_stdout_without_out(self, capsys):
        assert main(["spec"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spec_version"] == ExperimentSpec().spec_version


class TestRunCommand:
    def spec_file(self, tmp_path, **overrides):
        spec = ExperimentSpec.from_dict(
            {
                "spec_version": 1,
                "workload": {"name": "uniform", "params": {"operations": 300}},
                "space": "smoke",
                "seed": 1,
                **overrides,
            }
        )
        path = tmp_path / "exp.json"
        spec.to_json(path)
        return path

    def test_run_executes_a_spec_file(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        run_out = tmp_path / "run.json"
        assert main(["run", str(spec_path), "--out", str(run_out)]) == 0
        payload = json.loads(run_out.read_text())
        assert payload["records"]
        assert payload["provenance"]["spec_hash"]
        assert "Pareto" in capsys.readouterr().out

    def test_run_with_overrides_matches_explore(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        assert main(["spec", "--out", str(spec_path)]) == 0
        run_out = tmp_path / "run.json"
        assert (
            main(
                [
                    "run",
                    str(spec_path),
                    "--set",
                    "workload.name=uniform",
                    "--set",
                    "space.name=smoke",
                    "--set",
                    "seed=1",
                    "--out",
                    str(run_out),
                ]
            )
            == 0
        )
        legacy_out = tmp_path / "legacy.json"
        assert (
            main(
                [
                    "explore",
                    "--workload",
                    "uniform",
                    "--space",
                    "smoke",
                    "--seed",
                    "1",
                    "--out",
                    str(legacy_out),
                ]
            )
            == 0
        )
        assert run_out.read_bytes() == legacy_out.read_bytes()

    def test_run_heuristic_with_store_matches_explore(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.json"
        assert main(["spec", "--out", str(spec_path)]) == 0
        run_out = tmp_path / "run.json"
        assert (
            main(
                [
                    "run",
                    str(spec_path),
                    "--set",
                    "workload.name=uniform",
                    "--set",
                    "space.name=smoke",
                    "--set",
                    "seed=1",
                    "--set",
                    "strategy.name=random",
                    "--set",
                    "strategy.params.budget=6",
                    "--set",
                    "store.name=jsonl",
                    "--set",
                    f"store.params.path={tmp_path / 'run-store.jsonl'}",
                    "--out",
                    str(run_out),
                ]
            )
            == 0
        )
        legacy_out = tmp_path / "legacy.json"
        assert (
            main(
                [
                    "explore",
                    "--workload",
                    "uniform",
                    "--space",
                    "smoke",
                    "--seed",
                    "1",
                    "--strategy",
                    "random",
                    "--budget",
                    "6",
                    "--store",
                    str(tmp_path / "legacy-store.jsonl"),
                    "--out",
                    str(legacy_out),
                ]
            )
            == 0
        )
        assert run_out.read_bytes() == legacy_out.read_bytes()

    def test_dry_run_prints_resolved_spec_and_runs_nothing(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        out = tmp_path / "nothing.json"
        assert (
            main(
                [
                    "run",
                    str(spec_path),
                    "--set",
                    "strategy.name=random",
                    "--dry-run",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert not out.exists()
        document = json.loads(capsys.readouterr().out)
        assert document["strategy"]["name"] == "random"
        assert document["workload"]["params"] == {"operations": 300}

    @pytest.mark.parametrize("where", ["document", "override"])
    def test_prune_true_is_refused(self, tmp_path, capsys, where):
        """Dominance pruning was removed: asking for it is a one-line error."""
        spec_path = self.spec_file(tmp_path, strategy={"name": "random"})
        out = tmp_path / "out.json"
        args = ["run", str(spec_path), "--out", str(out)]
        if where == "document":
            document = json.loads(spec_path.read_text())
            document["prune"] = True
            spec_path.write_text(json.dumps(document))
        else:
            args += ["--set", "prune=true"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: prune:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "retired, param", [("surrogate", "trees"), ("hillclimb", "neighbours_per_step")]
    )
    def test_retired_strategy_params_are_refused(
        self, tmp_path, capsys, retired, param
    ):
        """A retired strategy runs NSGA-II, which takes none of its old
        params: naming one is a one-line error and writes no artefact."""
        spec_path = self.spec_file(tmp_path)
        out = tmp_path / "out.json"
        args = ["run", str(spec_path), "--out", str(out)]
        args += ["--set", f"strategy.name={retired}"]
        args += ["--set", f"strategy.params.{param}=10"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert param in err and f"'{retired}'" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("retired", ["surrogate", "hillclimb"])
    def test_retired_strategy_flag_runs_nsga2(self, tmp_path, capsys, retired):
        """``--strategy hillclimb`` (or ``surrogate``) runs NSGA-II: the same
        records, under the name of the strategy that ran."""
        artefacts = {}
        for name in (retired, "nsga2"):
            out = tmp_path / f"{name}.json"
            args = ["explore", "--workload", "uniform", "--space", "compact"]
            args += ["--seed", "1", "--strategy", name, "--budget", "64"]
            assert main(args + ["--out", str(out)]) == 0
            artefacts[name] = json.loads(out.read_text())
        assert artefacts[retired]["name"] == artefacts["nsga2"]["name"]
        assert artefacts["nsga2"]["name"].endswith("-nsga2")
        assert artefacts[retired]["records"] == artefacts["nsga2"]["records"]
        assert len(artefacts["nsga2"]["records"]) == 64

    def test_explore_prune_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "--prune"])
        assert exit_info.value.code == 2
        assert "--prune" in capsys.readouterr().err

    def test_explore_prune_fraction_flag_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "--prune-fraction", "0.5"])
        assert exit_info.value.code == 2
        assert "--prune-fraction" in capsys.readouterr().err

    def test_legacy_spec_with_prune_false_matches_explore(self, tmp_path, capsys):
        """A spec written before pruning was removed runs a heuristic search
        to the same artefact bytes as the matching flag invocation."""
        spec_path = tmp_path / "legacy-spec.json"
        assert main(["spec", "--out", str(spec_path)]) == 0
        document = json.loads(spec_path.read_text())
        document.update(prune=False, prune_fraction=0.25)
        spec_path.write_text(json.dumps(document, indent=2))
        run_out = tmp_path / "run.json"
        overrides = [
            "workload.name=uniform",
            "space.name=smoke",
            "seed=1",
            "strategy.name=random",
            "strategy.params.budget=6",
        ]
        args = ["run", str(spec_path), "--out", str(run_out)]
        for override in overrides:
            args += ["--set", override]
        assert main(args) == 0
        flag_out = tmp_path / "flags.json"
        assert (
            main(
                [
                    "explore",
                    "--workload",
                    "uniform",
                    "--space",
                    "smoke",
                    "--seed",
                    "1",
                    "--strategy",
                    "random",
                    "--budget",
                    "6",
                    "--out",
                    str(flag_out),
                ]
            )
            == 0
        )
        assert run_out.read_bytes() == flag_out.read_bytes()

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_spec_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"spec_version": 1, "workload": "nosuch"}))
        assert main(["run", str(path)]) == 2
        assert "workload.name" in capsys.readouterr().err

    def test_malformed_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_misspelled_strategy_param_is_a_clean_error(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path, strategy={"name": "random"})
        code = main(
            ["run", str(spec_path), "--set", "strategy.params.bugdet=6"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "strategy" in err and "bugdet" in err

    def test_dry_run_rejects_misspelled_strategy_param(self, tmp_path, capsys):
        """Typos are caught at validation — before any work is done."""
        spec_path = self.spec_file(tmp_path, strategy={"name": "random"})
        code = main(
            ["run", str(spec_path), "--set", "strategy.params.bugdet=6", "--dry-run"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bugdet" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_non_positive_budget_is_refused_at_validation(
        self, tmp_path, capsys, budget
    ):
        spec_path = self.spec_file(tmp_path, strategy={"name": "random"})
        code = main(
            ["run", str(spec_path), "--set", f"strategy.params.budget={budget}",
             "--dry-run"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: strategy.params.budget:")
        assert err.count("\n") == 1
        code = main(
            ["explore", "--workload", "uniform", "--space", "smoke", "--strategy",
             "random", "--budget", budget, "--out", str(tmp_path / "out.json")]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: strategy.params.budget:")
        assert captured.out == ""  # refused before the banner
        assert not (tmp_path / "out.json").exists()

    def test_spec_unwritable_out_is_a_clean_error(self, tmp_path, capsys):
        code = main(["spec", "--out", str(tmp_path / "no-such-dir" / "exp.json")])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err

    def test_bad_backend_value_is_a_clean_error(self, tmp_path, capsys):
        spec_path = self.spec_file(tmp_path)
        code = main(
            [
                "run",
                str(spec_path),
                "--set",
                "backend.name=process",
                "--set",
                "backend.params.jobs=-1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "backend" in err

    def test_foreign_file_is_refused_as_a_store(self, tmp_path, capsys):
        # Neither the binary magic nor a JSON object: not a result store.
        # Appending to it would corrupt someone else's file.
        foreign = tmp_path / "X"
        payload = bytes(range(100))
        foreign.write_bytes(payload)
        for argv in (
            ["explore", "--workload", "uniform", "--space", "smoke", "--seed", "1",
             "--store", str(foreign), "--out", str(tmp_path / "out.json")],
            ["store", "info", str(foreign)],
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert "not a result store" in err and "Traceback" not in err
            assert foreign.read_bytes() == payload
        assert not (tmp_path / "out.json").exists()


class TestCleanErrors:
    """Bad input ends in exit 2 and one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("command", ["merge", "pareto", "report"])
    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "[1, 2]"],
        ids=["missing", "invalid-json", "not-an-object"],
    )
    def test_unreadable_artefact(self, tmp_path, capsys, command, content):
        path = tmp_path / "artefact.json"
        if content is not None:
            path.write_text(content)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load artefact {path}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--window-events", "--window-time"])
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_window_size_must_be_positive(self, tmp_path, capsys, flag, value):
        argv = ["windows", "--workload", "uniform", "--space", "smoke", flag, value,
                "--out", str(tmp_path / "windows.json")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].endswith(
            f"error: argument {flag}: must be a positive integer, got {value}"
        )
        assert "Traceback" not in err
        assert not (tmp_path / "windows.json").exists()


class TestListCommand:
    def test_lists_one_kind(self, capsys):
        assert main(["list", "workloads"]) == 0
        output = capsys.readouterr().out
        assert "easyport" in output
        assert "packet" in output  # the one-line description

    def test_lists_everything_without_an_argument(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for kind in ("workloads", "spaces", "hierarchies", "strategies",
                     "backends", "sinks"):
            assert f"{kind}:" in output

    def test_rejects_unknown_kind(self, capsys):
        with pytest.raises(SystemExit):
            main(["list", "gadgets"])

    def test_strategies_show_their_params_signature(self, capsys):
        assert main(["list", "strategies"]) == 0
        output = capsys.readouterr().out
        # Every SearchStrategy-backed entry advertises its tunable params
        # with defaults; the budget default comes from the registry entry.
        assert "params: budget=200, population=16, offspring=16" in output
        assert "params: budget=200, startup=16, batch=8" in output
        # The retired names say so, with the NSGA-II params they run with.
        lines = output.splitlines()
        for retired in ("hillclimb", "surrogate"):
            [at] = [i for i, line in enumerate(lines) if line.split()[:1] == [retired]]
            assert lines[at].endswith("retired; runs nsga2")
            assert lines[at + 1].strip() == (
                "params: budget=200, population=16, offspring=16, mutation_rate=0.3"
            )
        # The exhaustive runner has no budget and must stay signature-free.
        exhaustive_block = output.split("exhaustive", 1)[1].split("hillclimb")[0]
        assert "params:" not in exhaustive_block
