import doctest
import re
from pathlib import Path

import cubemedian.core
import cubemedian.gates
import cubemedian.generators

README = Path(__file__).resolve().parents[1] / "README.md"


def test_docstring_examples():
    for module in (cubemedian.core, cubemedian.gates, cubemedian.generators):
        failures, _ = doctest.testmod(module)
        assert failures == 0, module.__name__


def test_readme_quick_start():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
