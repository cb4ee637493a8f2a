"""The README's examples run as written: its Python block, and each of its
``postgrasp`` command lines from the repository root, with ``results/``
moved under a temporary directory."""

import re
import shlex
from pathlib import Path

from postgrasp.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def command_lines() -> list[list[str]]:
    """Every ``postgrasp ...`` command of the shell blocks, in README order,
    with backslash continuations joined."""
    commands = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["postgrasp"]:
                commands.append(words[1:])
    return commands


def test_python_block_runs(capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})
    assert "g0" in capsys.readouterr().out


def test_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    commands = command_lines()
    assert [argv[0] for argv in commands] == ["evaluate", "inspect-model", "metrics-at", "pareto"]
    for argv in commands:
        argv = [str(tmp_path / word) if word.startswith("results/") else word for word in argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "results" / "task3" / "scorecards.csv").exists()
