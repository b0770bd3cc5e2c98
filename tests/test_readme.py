"""Every ```python block of README.md runs as written, and every ``poolkit`` line of its
command-line block parses."""

import re
import shlex
from pathlib import Path

import pytest

from poolkit import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)
SHELL = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", TEXT, flags=re.M | re.S)[1]
COMMAND_LINES = [line for line in SHELL.replace("\\\n", " ").splitlines() if line.startswith("poolkit ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(source):
    exec(compile(source, str(README), "exec"), {})


@pytest.mark.parametrize("line", COMMAND_LINES, ids=lambda line: line.split()[1])
def test_command_line_parses(line):
    argv = shlex.split(line)
    args = cli.build_parser().parse_args(argv[1:])
    assert args.command == argv[1]
    assert cli.build_parser(argv[1]).parse_args(argv[1:]) == args  # the parser main builds
