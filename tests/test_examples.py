"""Run every script under examples/ as a reader would, so none of them

can drift from the library: each must exit 0 in a fresh process."""

import contextlib
import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent.parent
_EXAMPLES = sorted((_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")])
    )
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, str(script), str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    if script.name == "test_database_extraction.py":
        # the §1 extract is queried by SQLite itself, from a file a
        # reader can open
        __, sql_section = done.stdout.split("SQL over the extract")
        rows = [
            line for line in sql_section.splitlines()[1:]
            if line.strip().startswith("(")
        ]
        assert rows
        with contextlib.closing(sqlite3.connect(out / "extract.sqlite")) as db:
            (movies,) = db.execute("SELECT COUNT(*) FROM MOVIE").fetchone()
        assert movies >= len(rows)
