"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README.name} (Library quick start)", "exec"), namespace)
    # the values its comments state
    assert namespace["res"].value == 2 and namespace["res"].witness == (0, 1)
    assert namespace["part"].value == len(namespace["part"].witness.classes) == 3
