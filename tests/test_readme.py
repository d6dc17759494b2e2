"""Every ``python`` code block of README.md runs as it is written, and its
``chaos_map`` plan key lists the package's maps, so README cannot drift
from the package."""

import re
from pathlib import Path

import pytest

from beetleopt import kernels

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)


def test_the_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_a_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_the_chaos_map_key_lists_the_chaos_table_in_order():
    (choices,) = re.findall(r"^chaos_map\s*=\s*\S+\s*#(.*)$", TEXT, re.M)
    assert choices.split() == list(kernels.CHAOS_MAPS)
