"""The README's Python examples run as written: its fenced python blocks, in order, in one namespace."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert blocks, "README.md has no python block"
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for index, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {index}", "exec"), namespace)
