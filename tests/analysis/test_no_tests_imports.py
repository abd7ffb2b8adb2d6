"""Meta-test: the library never imports the test suite.

The test oracles live under ``tests/`` and the benchmarks import them
from there, but an installed ``repro`` ships no ``tests`` package.
Every CI job runs with the checkout on ``sys.path``, so an
``import tests…`` inside ``src/`` would pass every job and break only
for users; this test parses every module under ``src/`` and fails on
one.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def find_tests_imports(root: Path) -> list:
    """Every absolute ``import tests…`` / ``from tests… import`` under
    ``root``, as ``path:line`` strings."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "tests" or name.startswith("tests.") for name in names):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_src_never_imports_tests():
    assert find_tests_imports(REPO / "src") == []


def test_seeded_tests_imports_are_caught(tmp_path):
    package = tmp_path / "repro" / "series"
    package.mkdir(parents=True)
    (package / "clean.py").write_text(
        "from .truncated import TruncatedSeries\nimport testsuite\n"
        "from ..tests_helpers import x\n"
    )
    (package / "seeded.py").write_text(
        "import numpy\n"
        "from tests.oracles.series import ScalarSeries\n"
        "def f():\n"
        "    import tests.oracles.poly as oracle\n"
        "    from tests import oracles\n"
    )
    assert find_tests_imports(tmp_path) == [
        "repro/series/seeded.py:2",
        "repro/series/seeded.py:4",
        "repro/series/seeded.py:5",
    ]
