"""The README describes only what exists: its documented commands parse."""

import shlex
from pathlib import Path

from climbench.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_block_commands() -> list[list[str]]:
    """The ``climbench ...`` lines of the code block under "## CLI", with
    backslash continuations joined, as argument lists without the program."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words and words[0] == "climbench":
            commands.append(words[1:])
    return commands


def test_readme_cli_commands_parse():
    commands = cli_block_commands()
    assert {argv[0] for argv in commands} == {"train", "tune", "evaluate", "rank",
                                              "export"}
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)  # raises UsageError on an unknown flag or value
