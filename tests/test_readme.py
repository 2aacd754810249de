"""The README's quick-start code runs as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)


def test_readme_has_two_python_blocks():
    assert len(python_blocks()) == 2


@pytest.mark.parametrize("index", range(2))
def test_readme_python_block_runs(index, capsys):
    exec(compile(python_blocks()[index], f"README.md block {index}", "exec"), {})
    assert capsys.readouterr().out
