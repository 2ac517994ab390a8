"""Every Python file parses under the oldest supported grammar (3.10), so
syntax that needs a newer interpreter fails here and not only on a 3.10 job."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "benchmarks", "demos")
                 for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=(3, 10))


def test_sources_found():
    assert len(SOURCES) > 20
