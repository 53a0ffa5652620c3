"""The README's examples must stay true: its python blocks run, and every
`kcover ...` line of its sh blocks parses with the command's own parser."""

import re
import shlex
from pathlib import Path

import pytest

from kcover.cli import _build_parser
from kcover.errors import InputError

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_parse():
    lines = [
        line for block in _blocks("sh") for line in block.splitlines()
        if line.startswith("kcover ")
    ]
    assert len(lines) >= 8
    for line in lines:
        _build_parser().parse_args(shlex.split(line)[1:])


def test_a_retired_command_line_does_not_parse():
    # negative control: the removed `bench` command must fail the check above
    line = "kcover bench --alg tree-approx4 --n 1000 --trials 20 --seed 1 --csv out.csv"
    with pytest.raises(InputError, match="invalid choice: 'bench'"):
        _build_parser().parse_args(shlex.split(line)[1:])
