"""Execute every Python block of docs/tutorial.md so the tutorial

cannot drift from the library. Blocks share one namespace, in order,
exactly as a reader would run them."""

import re
from pathlib import Path

import pytest

DOCS = Path(__file__).parent.parent / "docs"


def python_blocks(document: Path) -> list[str]:
    """The ```python blocks of a Markdown *document*, in order."""
    return re.findall(r"```python\n(.*?)```", document.read_text(), re.DOTALL)


def run_blocks(document: Path) -> None:
    """Execute the Python blocks of *document* in order, in one
    namespace; fail naming the first block that raises."""
    namespace: dict = {}
    for position, block in enumerate(python_blocks(document), start=1):
        label = f"{document.stem}-block-{position}"
        try:
            exec(compile(block, label, "exec"), namespace)
        except Exception as exc:  # pragma: no cover - diagnostic aid
            pytest.fail(f"{label} failed: {exc}\n---\n{block}")


def test_tutorial_has_blocks():
    assert len(python_blocks(DOCS / "tutorial.md")) >= 8


def test_tutorial_blocks_execute_in_order():
    run_blocks(DOCS / "tutorial.md")
