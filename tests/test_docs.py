"""Documentation smoke tests: the docs must describe the tool that exists.

Three layers of protection against doc rot:

1. every relative link in README.md and docs/*.md resolves to a real file,
2. every ``dmexplore`` command line shown in any fenced ``sh`` block parses
   against the real argument parser (unknown flags / renamed subcommands
   fail immediately),
3. the README quickstart and the whole docs/exploring.md tutorial are
   *executed* verbatim, shell and Python blocks alike, in a scratch
   directory — so the walk-through the docs promise is the walk-through
   that runs.

Conventions the docs follow to stay executable: tutorial ``sh`` blocks
contain plain ``dmexplore ...`` lines (no shell substitutions or
redirection); illustrative-only commands live in ``docs/cli.md`` (parsed,
never executed) or in ``text`` blocks.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = [
    REPO / "README.md",
    REPO / "docs" / "api.md",
    REPO / "docs" / "architecture.md",
    REPO / "docs" / "cli.md",
    REPO / "docs" / "distributed.md",
    REPO / "docs" / "exploring.md",
    REPO / "docs" / "performance.md",
    REPO / "docs" / "search.md",
    REPO / "docs" / "store.md",
    REPO / "docs" / "workloads.md",
]

FENCE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)
LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")


def fenced_blocks(path: Path, language: str) -> list[str]:
    """All fenced code blocks of ``language`` in ``path``, in order."""
    return [
        body
        for lang, body in FENCE.findall(path.read_text(encoding="utf-8"))
        if lang == language
    ]


def dmexplore_lines(blocks: list[str]) -> list[str]:
    """The ``dmexplore ...`` command lines inside the given sh blocks."""
    lines = []
    for block in blocks:
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("dmexplore"):
                lines.append(line)
    return lines


def run_line(line: str) -> int:
    """Execute one documented dmexplore command through the real CLI."""
    argv = shlex.split(line)[1:]
    return main(argv)


class TestDocsExist:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_doc_exists_and_is_substantial(self, path):
        assert path.exists(), f"{path} is missing"
        assert len(path.read_text(encoding="utf-8")) > 500

    def test_architecture_names_real_modules(self):
        """Every `repro.x.y` module the architecture doc cites must import."""
        import importlib

        text = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        assert modules, "architecture.md should cite repro modules"
        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Trim a trailing attribute (class/function) down to the module.
            for end in range(len(parts), 1, -1):
                try:
                    importlib.import_module(".".join(parts[:end]))
                    break
                except ModuleNotFoundError:
                    continue
            else:
                pytest.fail(f"architecture.md cites unknown module {dotted}")


class TestLinks:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_relative_links_resolve(self, path):
        text = path.read_text(encoding="utf-8")
        for target in LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            resolved = (path.parent / target).resolve()
            assert resolved.exists(), f"{path.name} links to missing {target}"


class TestCommandsParse:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_every_documented_command_parses(self, path):
        parser = build_parser()
        lines = dmexplore_lines(fenced_blocks(path, "sh"))
        for line in lines:
            argv = shlex.split(line)[1:]
            if "--help" in argv:
                continue
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{path.name} documents an invalid command: {line}")

    def test_cli_doc_covers_every_subcommand_and_flag(self):
        """docs/cli.md must mention every subcommand and every long flag."""
        text = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, __import__("argparse")._SubParsersAction)
        )
        for name, sub in subparsers.choices.items():
            assert f"dmexplore {name}" in text, f"cli.md misses subcommand {name}"
            for action in sub._actions:
                for option in action.option_strings:
                    if option.startswith("--") and option != "--help":
                        assert option in text, (
                            f"cli.md misses {option} of 'dmexplore {name}'"
                        )


class TestReadmeQuickstartRuns:
    def test_quickstart_shell_block(self, tmp_path, monkeypatch, capsys):
        """The first dmexplore sh block in the README runs end to end."""
        monkeypatch.chdir(tmp_path)
        blocks = [
            block
            for block in fenced_blocks(REPO / "README.md", "sh")
            if dmexplore_lines([block])
        ]
        assert blocks, "README has no runnable quickstart block"
        for line in dmexplore_lines([blocks[0]]):
            assert run_line(line) == 0, f"README quickstart failed: {line}"
        assert "Pareto" in capsys.readouterr().out

    def test_readme_python_blocks(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for block in fenced_blocks(REPO / "README.md", "python"):
            exec(compile(block, "README.md", "exec"), {})


class TestApiDocRuns:
    def test_api_python_blocks_run_verbatim(self, tmp_path, monkeypatch):
        """Every python block of docs/api.md executes (incl. registration)."""
        monkeypatch.chdir(tmp_path)
        blocks = fenced_blocks(REPO / "docs" / "api.md", "python")
        assert blocks, "api.md should contain runnable python examples"
        for block in blocks:
            exec(compile(block, "api.md", "exec"), {})

    def test_api_spec_flow_runs(self, tmp_path, monkeypatch, capsys):
        """The spec -> run -> byte-identity promise of api.md, executed."""
        monkeypatch.chdir(tmp_path)
        assert run_line("dmexplore spec --out experiment.json") == 0
        assert run_line(
            "dmexplore run experiment.json --set workload.name=uniform"
            " --set space.name=smoke --set seed=1 --out run.json"
        ) == 0
        assert run_line(
            "dmexplore explore --workload uniform --space smoke --seed 1"
            " --out flags.json"
        ) == 0
        assert (tmp_path / "run.json").read_bytes() == (
            tmp_path / "flags.json"
        ).read_bytes()
        assert run_line("dmexplore run experiment.json --dry-run") == 0
        assert run_line("dmexplore list") == 0
        output = capsys.readouterr().out
        assert "strategies:" in output


class TestWorkloadsDocRuns:
    def test_workloads_python_blocks_run_verbatim(self, tmp_path, monkeypatch):
        """Every python block of docs/workloads.md executes in order."""
        monkeypatch.chdir(tmp_path)
        blocks = fenced_blocks(REPO / "docs" / "workloads.md", "python")
        assert blocks, "workloads.md should contain runnable python examples"
        for block in blocks:
            exec(compile(block, "workloads.md", "exec"), {})


class TestDistributedDocRuns:
    def test_distributed_python_blocks_run_verbatim(self, tmp_path, monkeypatch):
        """The embedded-cluster example of docs/distributed.md, executed.

        The block runs a real coordinator (thread) and worker, then asserts
        its own promise: the distributed artefact is byte-identical to the
        single-host run.
        """
        monkeypatch.chdir(tmp_path)
        blocks = fenced_blocks(REPO / "docs" / "distributed.md", "python")
        assert blocks, "distributed.md should contain a runnable example"
        for block in blocks:
            exec(compile(block, "distributed.md", "exec"), {})


class TestStoreDocRuns:
    def test_store_doc_runs_verbatim(self, tmp_path, monkeypatch, capsys):
        """Every sh and python block of docs/store.md, in order."""
        monkeypatch.chdir(tmp_path)
        text = (REPO / "docs" / "store.md").read_text(encoding="utf-8")
        for language, body in FENCE.findall(text):
            if language == "sh":
                for line in dmexplore_lines([body]):
                    assert run_line(line) == 0, f"store doc command failed: {line}"
            elif language == "python":
                exec(compile(body, "store.md", "exec"), {})
        output = capsys.readouterr().out
        # The doc's promises hold: the warm run was answered from the store...
        assert "8 hits" in output
        # ...and store info reported a healthy binary store.
        assert "format:  binary" in output
        # The warm re-run reproduced the cold results: the artefacts agree
        # on everything except the store hit counters in the provenance.
        import json

        cold = json.loads((tmp_path / "sweep.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        for document in (cold, warm):
            for counter in ("store", "cache"):
                document.get("provenance", document).pop(counter, None)
                document.pop(counter, None)
        assert cold == warm
        # The conversion emitted a jsonl twin of the binary store.
        assert (tmp_path / "results.jsonl").exists()


class TestSearchDocRuns:
    def test_search_doc_runs_verbatim(self, tmp_path, monkeypatch, capsys):
        """Every sh and python block of docs/search.md, in order."""
        monkeypatch.chdir(tmp_path)
        text = (REPO / "docs" / "search.md").read_text(encoding="utf-8")
        for language, body in FENCE.findall(text):
            if language == "sh":
                for line in dmexplore_lines([body]):
                    assert run_line(line) == 0, f"search doc command failed: {line}"
            elif language == "python":
                exec(compile(body, "search.md", "exec"), {})
        output = capsys.readouterr().out
        # The doc's promises hold: `list strategies` advertises the whole
        # portfolio with its tunable parameters ...
        for name in ("nsga2", "tpe", "surrogate"):
            assert name in output
        assert "retired; runs nsga2" in output
        assert "params: budget=" in output
        # ... the CLI nsga2 run produced a front ...
        assert "Pareto-optimal" in output
        assert (tmp_path / "nsga2.json").exists()
        # ... and the hypervolume block measured both portfolio members.
        assert output.count("of the exhaustive hypervolume") == 2


class TestTutorialRuns:
    def test_exploring_tutorial_runs_verbatim(self, tmp_path, monkeypatch, capsys):
        """Every sh and python block of docs/exploring.md, in order."""
        monkeypatch.chdir(tmp_path)
        path = REPO / "docs" / "exploring.md"
        text = path.read_text(encoding="utf-8")
        for language, body in FENCE.findall(text):
            if language == "sh":
                for line in dmexplore_lines([body]):
                    assert run_line(line) == 0, f"tutorial command failed: {line}"
            elif language == "python":
                exec(compile(body, "exploring.md", "exec"), {})
        output = capsys.readouterr().out
        # The tutorial's promises hold: the resumed run profiled nothing ...
        assert "0 profiled" in output
        # ... and the merge produced a Pareto front.
        assert "Pareto-optimal configurations after merge" in output
        # Byte-identity promise of step 4: merged == what a single run writes.
        merged = (tmp_path / "merged.json").read_bytes()
        assert run_line(
            "dmexplore explore --workload uniform --space smoke --seed 1"
            " --out single.json"
        ) == 0
        assert (tmp_path / "single.json").read_bytes() == merged
