"""The README's examples work as written: each ``geodescent`` line of its
command-line block, its five-section config and its library quick start."""

import re
import shlex
import shutil
from pathlib import Path

from geodescent import cli, harness

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(heading: str, lang: str, after: str = "") -> str:
    """The first ``lang`` code block under ``## heading`` that follows the
    text ``after``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(f"```{lang}\n(.*?)```", section[section.index(after):], re.S).group(1)


def test_the_command_line_examples_exit_0(tmp_path, monkeypatch):
    shutil.copytree(ROOT / "demos" / "configs", tmp_path / "demos" / "configs")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(harness.OUTPUT_ROOT_ENV, raising=False)
    commands = [shlex.split(line, comments=True)
                for line in _block("Command line", "bash").splitlines()]
    assert [argv[0] for argv in commands] == ["geodescent"] * 6
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    assert (tmp_path / "out" / "comparison.csv").exists()


def test_the_config_example_validates(tmp_path, capsys):
    path = tmp_path / "example.yaml"
    path.write_text(_block("Command line", "yaml", "A config has five sections"))
    assert cli.main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_the_library_quick_start_runs(capsys):
    exec(compile(_block("Library quick start", "python"), "README quick start", "exec"), {})
    assert capsys.readouterr().out.strip()
