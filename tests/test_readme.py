"""The README describes only what exists: its documented commands parse, and
every file it documents is one that the code writes."""

import ast
import re
import shlex
from pathlib import Path

from climbench.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def file_format_suffixes() -> list[str]:
    """The suffixes of the file patterns under "## File formats": ``.rec`` of
    `*.rec`, ``.cfg`` of `tuned/<env-version>/<algo>.cfg`."""
    section = README.read_text(encoding="utf-8").split("\n## File formats\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"`(?:[^`\s]*/)?(?:\*|<[\w-]+>)((?:\.[a-z]+)+)`", section)


def src_string_constants() -> set[str]:
    """Every string literal under ``src/``, f-string pieces included."""
    return {node.value for path in (ROOT / "src").rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_readme_file_formats_are_written_by_src():
    suffixes = file_format_suffixes()
    assert {".rec", ".profile.csv", ".cfg", ".study.json"} <= set(suffixes)
    constants = src_string_constants()
    unwritten = [s for s in suffixes if not any(c.endswith(s) for c in constants)]
    assert unwritten == []
