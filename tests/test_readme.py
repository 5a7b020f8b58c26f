"""The README's Python examples run as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from npinfer.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks, "README.md has no python blocks"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_command_lines_parse():
    commands = [
        shlex.split(line, comments=True)
        for block in _blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
    ]
    commands = [words[1:] for words in commands if words[:1] == ["npinfer"]]
    assert commands, "README.md has no npinfer command lines"
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: npinfer {shlex.join(argv)}")
