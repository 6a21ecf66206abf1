"""The README's examples run as written.

Every ```python block of README.md is executed in a fresh namespace, and the
``kraft`` transcript must equal what the command line prints for it.
"""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from prefixcast.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
TEXT_BLOCKS = re.findall(r"^```text\n(.*?)^```", README, re.M | re.S)


def test_readme_has_python_blocks():
    assert PYTHON_BLOCKS


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_python_block_runs(index):
    with redirect_stdout(io.StringIO()):
        exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_kraft_transcript_matches_cli():
    command = "$ prefixcast kraft --lengths 1,2,3\n"
    (block,) = [b for b in TEXT_BLOCKS if b.startswith(command)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(shlex.split(command)[2:])
    assert code == 0
    assert buf.getvalue() == block[len(command):]
