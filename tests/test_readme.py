"""The README's Python examples run as written, and a ``print`` line that
carries a ``# ...`` comment prints exactly that comment."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.lstrip().startswith("print(") and "#" in line]
    if expected:
        assert out.getvalue().splitlines() == expected
