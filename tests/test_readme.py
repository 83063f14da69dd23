"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_quick_tour_runs():
    """Each ```python block of the README (the library quick tour) runs, its asserts included."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks, "the README has no ```python block"
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {})
